//! End-to-end benchmark of the DfMS.
//!
//! Three workloads, each a fixed amount of seeded work:
//!
//! * [`wire`] — raw DGL XML through a journaled [`DfmsServer`] from two
//!   closed-loop clients, then shutdown and crash recovery;
//! * [`history`] — waves of flows through one in-process engine while
//!   history piles up;
//! * [`fabric`] — a 4-shard federation mixing cross-shard compositions
//!   with single-shard flows.
//!
//! One call of a workload's `run` is one *repetition*: it sets up,
//! measures, checks every output and returns a [`report::Rep`] holding
//! raw samples (windows, latencies), deterministic counts and — when
//! traced — per-layer numbers. `run.py` runs repetitions in separate
//! processes and aggregates them into the benchmark's metrics.
//!
//! [`DfmsServer`]: datagridflows::dfms::DfmsServer

pub mod fabric;
pub mod history;
pub mod layers;
pub mod report;
pub mod setup;
pub mod sys;
pub mod wire;

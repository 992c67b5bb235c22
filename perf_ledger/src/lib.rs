//! perf_ledger: an open-loop SLO benchmark of the two-hop monitor
//! (client → reactor → monitor → cloudsim, plus the durable audit
//! writer) with a traced per-layer ledger. See `README.md`.

pub mod cpus;
pub mod loadgen;
pub mod run;
pub mod slo;
pub mod splitter;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod workload;

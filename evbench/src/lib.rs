//! # evbench
//!
//! The evopt benchmark: SQL in, rows out, measured from outside the
//! engine through its public API, on three workloads:
//!
//! * `olap_tpch` — one in-process session repeats a TPC-H-lite battery
//!   over cached data (execution-bound);
//! * `oltp_wire` — closed-loop TCP clients send a Zipf-skewed read/write
//!   mix to `serve()` over a WAL database larger than its pool;
//! * `join_optimize` — one in-process session runs COUNT(*) joins over
//!   chain, star, cycle and clique graphs (optimizer-bound).
//!
//! Every answer is checked: against a plain-Rust reference evaluator for
//! the in-process workloads, against per-connection models for
//! `oltp_wire`, and after a crash and recovery for all three.

pub(crate) mod inproc;
pub mod layers;
pub mod model;
pub(crate) mod oltp;
pub mod reference;
pub mod run;
pub mod stats;
pub(crate) mod trace;

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["olap_tpch", "oltp_wire", "join_optimize"];

/// Run one workload.
pub fn dispatch(args: &run::Args) -> run::Result<run::Outcome> {
    match (args.workload.as_str(), args.trace) {
        ("olap_tpch", false) => inproc::run(&inproc::OLAP_TPCH, args),
        ("olap_tpch", true) => inproc::run_traced(&inproc::OLAP_TPCH, args),
        ("join_optimize", false) => inproc::run(&inproc::JOIN_OPTIMIZE, args),
        ("join_optimize", true) => inproc::run_traced(&inproc::JOIN_OPTIMIZE, args),
        ("oltp_wire", false) => oltp::run(args),
        ("oltp_wire", true) => oltp::run_traced(args),
        (other, _) => Err(format!(
            "unknown workload {other} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

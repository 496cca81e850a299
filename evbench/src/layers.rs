//! The per-layer metrics of the traced run.

use std::collections::HashMap;

use crate::run::Outcome;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("core.optimize_us", "us"),
    ("core.plans_considered", "count"),
    ("core.prune_ratio", "frac"),
    ("exec.run_us", "us"),
    ("exec.rows_per_s", "1/s"),
    ("exec.batches_per_stmt", "count"),
    ("exec.spills", "count"),
    ("storage.pool_hit_ratio", "frac"),
    ("storage.pool_misses_per_stmt", "count"),
    ("storage.evictions_per_stmt", "count"),
    ("storage.disk_reads_per_stmt", "count"),
    ("storage.disk_writes_per_stmt", "count"),
    ("storage.pages_per_point_read", "count"),
    ("storage.pages_per_update", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.write_amp", "ratio"),
    ("wal.syncs_per_commit", "count"),
    ("wal.coalesced_ratio", "frac"),
    ("wal.sync_wait_us", "us"),
    ("engine.commit_lock_wait_us", "us"),
    ("engine.snapshot_acquire_us", "us"),
    ("engine.pool_miss_io_us", "us"),
    ("engine.write_stmt_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.refused", "count"),
    ("catalog.load_s", "s"),
    ("catalog.analyze_s", "s"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer values as a workload measures them; a metric that does not
/// apply to the workload (no writes, no server) stays 0.
#[derive(Debug, Default)]
pub struct Layers {
    values: HashMap<&'static str, (f64, usize)>,
}

impl Layers {
    /// Set `name` from `samples` samples. Panics on a name not in
    /// [`PER_LAYER`], which is a benchmark bug.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.values.insert(name, (value, samples));
    }

    /// Push every declared metric onto `out`.
    pub fn report(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
            out.push(name, v, unit, n);
        }
    }
}

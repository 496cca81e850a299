//! In-memory spans for the traced run.
//!
//! Every statement is a root span (`stmt`) whose children are the public
//! calls it was split into. Each span records storage counter deltas taken
//! at its own begin and end. Spans stay in memory until the run ends and
//! are then written out as JSON lines.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use evopt_engine::Database;

/// Name of the root span every statement opens.
pub(crate) const STMT: &str = "stmt";

/// Storage counters read at a span boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub evictions: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub wal_bytes: u64,
}

impl Counters {
    /// Read the pool, disk and WAL snapshots of `db`.
    pub fn read(db: &Database) -> Counters {
        let pool = db.pool().stats();
        let io = db.disk().snapshot();
        Counters {
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            evictions: pool.evictions,
            disk_reads: io.reads,
            disk_writes: io.writes,
            wal_bytes: db.wal().map_or(0, |w| w.stats().bytes_written),
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            disk_reads: self.disk_reads.saturating_sub(earlier.disk_reads),
            disk_writes: self.disk_writes.saturating_sub(earlier.disk_writes),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
        }
    }

    /// Pages the pool served, hit or miss.
    pub fn pages(&self) -> u64 {
        self.pool_hits + self.pool_misses
    }
}

/// One timed call.
#[derive(Debug, Clone)]
pub(crate) struct Span {
    pub name: &'static str,
    /// Statement id, shared by a root span and its children.
    pub stmt: u64,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Storage counter growth between begin and end (all zero for spans
    /// recorded without a database).
    pub io: Counters,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. One per thread; [`Tracer::merge`] combines them.
#[derive(Debug)]
pub(crate) struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Counters)>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span under the innermost open span (or as a root).
    pub fn begin(&mut self, name: &'static str, stmt: u64, db: Option<&Database>) -> usize {
        let parent = self.open.last().map(|(i, _)| *i);
        let id = self.spans.len();
        let counters = db.map(Counters::read).unwrap_or_default();
        self.spans.push(Span {
            name,
            stmt,
            parent,
            start_ns: self.now(),
            end_ns: 0,
            io: Counters::default(),
        });
        self.open.push((id, counters));
        id
    }

    /// Close the innermost open span.
    pub fn end(&mut self, db: Option<&Database>) {
        let end = self.now();
        if let Some((id, before)) = self.open.pop() {
            let span = &mut self.spans[id];
            span.end_ns = end;
            if let Some(db) = db {
                span.io = Counters::read(db).since(&before);
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        stmt: u64,
        db: Option<&Database>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name, stmt, db);
        let out = f();
        self.end(db);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another tracer's spans, re-basing its parent indices.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_sum)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self times in µs of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Share of statement wall time that no child span covers.
    pub fn unattributed_frac(&self) -> f64 {
        let selfs = self.self_times_ns();
        let (mut own, mut total) = (0u64, 0u64);
        for (s, own_ns) in self.spans.iter().zip(selfs) {
            if s.parent.is_none() {
                own += own_ns;
                total += s.duration_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"stmt\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\
                 \"pool_hits\":{},\"pool_misses\":{},\"evictions\":{},\"disk_reads\":{},\
                 \"disk_writes\":{},\"wal_bytes\":{}}}",
                s.name,
                s.stmt,
                parent,
                s.start_ns,
                s.end_ns,
                s.io.pool_hits,
                s.io.pool_misses,
                s.io.evictions,
                s.io.disk_reads,
                s.io.disk_writes,
                s.io.wal_bytes
            )?;
        }
        out.flush()
    }
}

/// Run one SELECT split into its public calls — `evopt_sql::parse`,
/// `bind_select`, `Database::optimize`, `Database::run_plan` — each as a
/// child span of an already open statement span.
pub(crate) fn split_select(
    tracer: &mut Tracer,
    db: &Database,
    stmt: u64,
    sql: &str,
) -> Result<Vec<evopt_common::Tuple>, String> {
    let d = Some(db);
    let parsed = tracer
        .span("sql.parse", stmt, d, || evopt_sql::parse(sql))
        .map_err(|e| e.to_string())?;
    let evopt_sql::Statement::Select(select) = parsed else {
        return Err(format!("not a SELECT: {sql}"));
    };
    let catalog = db.catalog();
    let provider = |table: &str| -> evopt_common::Result<evopt_common::Schema> {
        Ok(catalog.table(table)?.schema.clone())
    };
    let logical = tracer
        .span("sql.bind", stmt, d, || {
            evopt_sql::bind_select(&select, &provider)
        })
        .map_err(|e| e.to_string())?;
    let plan = tracer
        .span("core.optimize", stmt, d, || db.optimize(&logical))
        .map_err(|e| e.to_string())?;
    tracer
        .span("exec.run", stmt, d, || db.run_plan(&plan))
        .map_err(|e| e.to_string())
}

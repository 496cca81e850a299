//! What every workload shares: arguments, set-up through SQL, crash and
//! recovery, latency samples, and the result line.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use evopt_common::{DataType, Tuple, Value};
use evopt_engine::{
    Database, DatabaseConfig, DiskBackend, DiskManager, Durability, HistogramSnapshot, QueryResult,
    Session,
};

use crate::reference::{Row, Table};
use crate::stats::{self, median, percentile};

/// Recoveries timed per crashed database; `recovery_s` is the median over
/// all of a run's recoveries.
pub(crate) const RECOVERIES: usize = 3;

/// Fewest statements a run measures: p95 then has 10 samples beyond it.
pub(crate) fn min_statements() -> usize {
    stats::samples_needed(95)
}

pub type Result<T> = std::result::Result<T, String>;

/// Turn an engine error into the benchmark's error text.
pub(crate) fn e<E: std::fmt::Display>(err: E) -> String {
    err.to_string()
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args> {
        let mut map: HashMap<&str, &str> = HashMap::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(flag.as_str(), value.as_str());
        }
        let get = |k: &str| map.get(k).copied().ok_or_else(|| format!("missing {k}"));
        let num = |k: &str| -> Result<u64> {
            get(k)?
                .parse()
                .map_err(|_| format!("{k} must be a whole number"))
        };
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        Ok(Args {
            workload: get("--workload")?.to_string(),
            seed: num("--seed")?,
            seconds: num("--seconds")?.max(1),
            trace,
            out_dir: PathBuf::from(map.get("--out").copied().unwrap_or("evbench/out")),
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from, for the human-readable report.
    pub samples: usize,
}

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions (the first few are printed).
    pub errors: Vec<String>,
    /// Extra lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Print the human-readable report to stderr and the result line to
    /// stdout.
    pub fn print(&self, args: &Args) {
        eprintln!(
            "evbench {} seed={} trace={}",
            args.workload, args.seed, args.trace as u8
        );
        for m in &self.metrics {
            eprintln!(
                "  {:<32} {:>16.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let frac = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        eprintln!(
            "  {:<32} {:>16.6} {:<6} n={}",
            "failed_frac", frac, "frac", self.attempted
        );
        for note in &self.notes {
            eprintln!("  {note}");
        }
        for err in &self.errors {
            eprintln!("  FAILED: {err}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Peak resident set of this process (VmHWM) in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A database configuration for a workload: WAL durability, LRU pool of
/// `pages`, everything else at its default.
pub(crate) fn config(pages: usize) -> DatabaseConfig {
    DatabaseConfig {
        buffer_pages: pages,
        durability: Durability::Wal,
        ..DatabaseConfig::default()
    }
}

/// A fresh WAL database on a disk the caller keeps, so the database can
/// be dropped and recovered from the same disk.
pub(crate) fn create(
    pages: usize,
    io_latency_us: u64,
) -> Result<(Arc<Database>, Arc<DiskManager>)> {
    let disk = Arc::new(DiskManager::new());
    disk.set_io_latency_micros(io_latency_us);
    let db =
        Database::create_on(Arc::clone(&disk) as Arc<dyn DiskBackend>, config(pages)).map_err(e)?;
    Ok((Arc::new(db), disk))
}

/// A loaded database, the disk under it, and how long the load took.
pub(crate) type Setup = ((Arc<Database>, Arc<DiskManager>), LoadTimes);

/// The DDL and rows of a database, to be loaded into another through SQL.
#[derive(Debug, Clone)]
pub(crate) struct LoadPlan {
    pub tables: Vec<TableLoad>,
    /// Rows per INSERT statement.
    pub chunk_rows: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct TableLoad {
    pub create: String,
    /// `CREATE [UNIQUE] INDEX` statements; run before the inserts when
    /// `index_first`, else after.
    pub indexes: Vec<String>,
    pub index_first: bool,
    pub table: Table,
}

impl LoadPlan {
    /// Read the schema, indexes and rows of every table of `src`.
    pub fn from_database(src: &Database, chunk_rows: usize) -> Result<LoadPlan> {
        let mut tables = Vec::new();
        for info in src.catalog().tables() {
            let cols: Vec<String> = info
                .schema
                .columns()
                .iter()
                .map(|c| {
                    let ty = match c.dtype {
                        DataType::Int => "INT",
                        DataType::Float => "FLOAT",
                        DataType::Str => "STRING",
                        DataType::Bool => "BOOL",
                    };
                    let null = if c.nullable { "" } else { " NOT NULL" };
                    format!("{} {ty}{null}", c.name)
                })
                .collect();
            let names: Vec<&str> = info
                .schema
                .columns()
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            let indexes = info
                .indexes()
                .iter()
                .map(|i| {
                    let kind = if i.unique { "UNIQUE " } else { "" };
                    format!(
                        "CREATE {kind}INDEX {} ON {} ({})",
                        i.name, info.name, names[i.column]
                    )
                })
                .collect();
            let rows = dump(src, &info.name)?;
            tables.push(TableLoad {
                create: format!("CREATE TABLE {} ({})", info.name, cols.join(", ")),
                indexes,
                index_first: false,
                table: Table::new(&info.name, &names, rows),
            });
        }
        Ok(LoadPlan { tables, chunk_rows })
    }

    /// Tables by name.
    pub fn data(&self) -> HashMap<String, Table> {
        self.tables
            .iter()
            .map(|t| (t.table.name.clone(), t.table.clone()))
            .collect()
    }
}

/// Timings of one load.
#[derive(Debug, Clone, Default)]
pub struct LoadTimes {
    /// CREATE TABLE, INSERT and CREATE INDEX.
    pub load_s: f64,
    pub analyze_s: f64,
    /// Latency of every INSERT statement, ms.
    pub insert_ms: Vec<f64>,
}

impl LoadTimes {
    pub fn total_s(&self) -> f64 {
        self.load_s + self.analyze_s
    }
}

/// Load `plan` into `db` through SQL statements, then ANALYZE.
pub(crate) fn load(session: &Session, plan: &LoadPlan) -> Result<LoadTimes> {
    let mut times = LoadTimes::default();
    let started = Instant::now();
    let exec = |sql: &str| {
        session
            .execute(sql)
            .map_err(|err| format!("{err}: {sql:.80}"))
    };
    for t in &plan.tables {
        exec(&t.create)?;
        if t.index_first {
            for i in &t.indexes {
                exec(i)?;
            }
        }
        for chunk in t.table.rows.chunks(plan.chunk_rows.max(1)) {
            let sql = insert_sql(&t.table.name, chunk);
            let at = Instant::now();
            match exec(&sql)? {
                QueryResult::Affected(n) if n == chunk.len() => {}
                other => return Err(format!("load INSERT returned {other:?}")),
            }
            times.insert_ms.push(ms(at.elapsed()));
        }
        if !t.index_first {
            for i in &t.indexes {
                exec(i)?;
            }
        }
    }
    times.load_s = started.elapsed().as_secs_f64();
    let at = Instant::now();
    exec("ANALYZE")?;
    times.analyze_s = at.elapsed().as_secs_f64();
    Ok(times)
}

/// Rows and pages of every table and index, against the pool's size.
pub(crate) fn footprint(db: &Database) -> String {
    let (mut rows, mut heap, mut index) = (0, 0, 0);
    for t in db.catalog().tables() {
        rows += t.heap.tuple_count();
        heap += t.heap.page_count();
        for i in t.indexes() {
            index += i.btree.page_count().unwrap_or(0);
        }
    }
    format!(
        "data: {rows} rows in {heap} heap + {index} index pages; pool {} pages",
        db.pool().capacity()
    )
}

/// `INSERT INTO t VALUES (…), (…)`.
pub(crate) fn insert_sql(table: &str, rows: &[Row]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(Value::to_string).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

/// Every row of `table`.
pub(crate) fn dump(db: &Database, table: &str) -> Result<Vec<Row>> {
    Ok(db
        .query(&format!("SELECT * FROM {table}"))
        .map_err(e)?
        .into_iter()
        .map(Tuple::into_values)
        .collect())
}

/// Recover from `disk` `RECOVERIES` times (each recovery replays the same
/// log) and return the last recovered database with every recovery's time.
/// The crashed database must already be dropped.
pub(crate) fn recover(disk: &Arc<DiskManager>, pages: usize) -> Result<(Database, Vec<f64>)> {
    let mut times = Vec::new();
    loop {
        let at = Instant::now();
        let (db, _) = Database::recover(Arc::clone(disk) as Arc<dyn DiskBackend>, config(pages))
            .map_err(e)?;
        times.push(at.elapsed().as_secs_f64());
        if times.len() >= RECOVERIES {
            return Ok((db, times));
        }
    }
}

/// Compare every table of a recovered database with what must be there.
pub(crate) fn check_tables(db: &Database, want: &HashMap<String, Table>, out: &mut Outcome) {
    out.attempted += 1;
    for (name, table) in want {
        let got = match dump(db, name) {
            Ok(rows) => rows,
            Err(err) => return out.fail(format!("after recovery, {name}: {err}")),
        };
        let mut got = got;
        let mut expect = table.rows.clone();
        got.sort();
        expect.sort();
        if got != expect {
            return out.fail(format!(
                "after recovery, {name} holds {} rows that differ from the {} acknowledged",
                got.len(),
                expect.len()
            ));
        }
    }
}

pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latency samples of one run.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    pub all_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    /// Per client: (statements, seconds spent waiting on them).
    clients: Vec<(usize, f64)>,
}

impl Samples {
    pub fn record(&mut self, latency_ms: f64, write: bool) {
        self.all_ms.push(latency_ms);
        if write {
            self.write_ms.push(latency_ms);
        } else {
            self.read_ms.push(latency_ms);
        }
    }

    /// Add the samples of client number `client`.
    pub fn merge(&mut self, client: usize, other: Samples) {
        if self.clients.len() <= client {
            self.clients.resize(client + 1, (0, 0.0));
        }
        let entry = &mut self.clients[client];
        entry.0 += other.all_ms.len();
        entry.1 += other.all_ms.iter().sum::<f64>() / 1e3;
        self.all_ms.extend(other.all_ms);
        self.read_ms.extend(other.read_ms);
        self.write_ms.extend(other.write_ms);
    }

    /// Statements per second over all clients of a closed loop: the sum of
    /// each client's statements over the time it spent waiting on them
    /// (client-side answer checking is not counted).
    pub fn throughput_sps(&self) -> f64 {
        self.clients
            .iter()
            .filter(|(_, busy)| *busy > 0.0)
            .map(|(n, busy)| *n as f64 / busy)
            .sum()
    }
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    pub setups: Vec<LoadTimes>,
    pub samples: Samples,
    pub recoveries_s: Vec<f64>,
}

impl EndToEnd {
    /// Push every end-to-end metric. A run without writes (the read-only
    /// workloads) reports the latency of its load's INSERT statements as
    /// `write_p50_ms`.
    pub fn report(self, out: &mut Outcome) {
        let s = &self.samples;
        let n = s.all_ms.len();
        let totals: Vec<f64> = self.setups.iter().map(LoadTimes::total_s).collect();
        out.push("setup_s", median(&totals), "s", totals.len());
        out.push("throughput_sps", s.throughput_sps(), "1/s", n);
        out.push("latency_p50_ms", median(&s.all_ms), "ms", n);
        out.push("latency_p95_ms", percentile(&s.all_ms, 95.0), "ms", n);
        if let Some((q1, q3)) = stats::quartiles(&s.all_ms) {
            out.notes
                .push(format!("latency quartiles {q1:.3} / {q3:.3} ms"));
        }
        out.push("read_p50_ms", median(&s.read_ms), "ms", s.read_ms.len());
        let load_writes: Vec<f64>;
        let writes = if s.write_ms.is_empty() {
            load_writes = self
                .setups
                .iter()
                .flat_map(|l| l.insert_ms.clone())
                .collect();
            &load_writes
        } else {
            &s.write_ms
        };
        out.push("write_p50_ms", median(writes), "ms", writes.len());
        out.push(
            "recovery_s",
            median(&self.recoveries_s),
            "s",
            self.recoveries_s.len(),
        );
        out.push("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    }
}

/// Mean of the observations a histogram gained between two snapshots.
pub(crate) fn hist_mean_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> f64 {
    let count = after.count.saturating_sub(before.count);
    if count == 0 {
        0.0
    } else {
        after.sum.saturating_sub(before.sum) as f64 / count as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

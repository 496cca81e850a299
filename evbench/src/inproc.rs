//! The in-process workloads: one `Session` repeats a battery of SELECTs
//! over read-only data (`olap_tpch`, `join_optimize`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use evopt_common::Value;
use evopt_engine::{Database, DatabaseConfig, MetricsSnapshot, QueryResult, Session};
use evopt_workload::{load_tpch_lite, JoinWorkload, Topology};

use crate::layers::Layers;
use crate::reference::{self, joins, tpch, Expected, Table};
use crate::run::{
    self, e, hist_mean_delta, ratio, Args, EndToEnd, LoadPlan, Outcome, Result, Samples, Setup,
};
use crate::stats::median;
use crate::trace::{split_select, Tracer, STMT};

/// One battery query with its expected answer.
#[derive(Debug, Clone)]
pub(crate) struct Query {
    pub name: String,
    pub sql: String,
    pub expected: Expected,
}

/// An in-process workload.
pub(crate) struct Spec {
    pub pool_pages: usize,
    /// Databases an untraced run loads and measures in turn, each for an
    /// equal share of the run, so one run samples several loads and
    /// several stretches of a shared host's varying speed.
    pub segments: u32,
    /// Rows per INSERT statement of the load.
    pub chunk_rows: usize,
    /// Generate the data into a scratch database.
    pub generate: fn(&Database, u64) -> run::Result<()>,
    /// The battery and its reference answers over the dumped tables.
    pub battery: fn(&HashMap<String, Table>, u64) -> run::Result<Vec<Query>>,
}

/// TPC-H-lite scale factor of `olap_tpch`.
pub(crate) const TPCH_SF: f64 = 4.0;

pub(crate) const OLAP_TPCH: Spec = Spec {
    pool_pages: 1024,
    segments: 4,
    chunk_rows: 500,
    generate: |db, seed| load_tpch_lite(db, TPCH_SF, seed).map(|_| ()).map_err(e),
    battery: |data, _| {
        tpch::BATTERY
            .iter()
            .map(|(name, sql, reference)| {
                Ok(Query {
                    name: name.to_string(),
                    sql: sql.to_string(),
                    expected: reference(data)?,
                })
            })
            .collect()
    },
};

pub(crate) const JOIN_OPTIMIZE: Spec = Spec {
    pool_pages: 256,
    segments: 10,
    chunk_rows: 500,
    generate: |db, seed| {
        for w in join_workloads(seed) {
            w.load(db, false).map_err(e)?;
        }
        Ok(())
    },
    battery: |data, seed| {
        let workloads = join_workloads(seed);
        let mut queries: Vec<(String, String)> = workloads
            .iter()
            .map(|w| (w.prefix.clone(), w.count_query()))
            .collect();
        let chain = &workloads[0];
        queries.push((
            format!("{}_filtered", chain.prefix),
            chain.filtered_query(JOIN_PAYLOAD_CUTOFF),
        ));
        queries
            .into_iter()
            .map(|(name, sql)| {
                let count = joins::count(&joins::parse_count_query(&sql)?, data)?;
                Ok(Query {
                    name,
                    sql,
                    expected: Expected::unordered(vec![vec![Value::Int(count as i64)]]),
                })
            })
            .collect()
    },
};

/// Rows of the smallest relation of each join graph.
pub(crate) const JOIN_BASE_ROWS: usize = 10;
/// Size ratio of consecutive relations.
pub(crate) const JOIN_GROWTH: f64 = 1.3;
/// `payload` bound of the filtered chain query (payloads lie in 0..1000).
pub(crate) const JOIN_PAYLOAD_CUTOFF: i64 = 100;

/// chain-8, star-8, cycle-8 and clique-6, each seeded from `seed`.
pub(crate) fn join_workloads(seed: u64) -> Vec<JoinWorkload> {
    [
        (Topology::Chain, 8),
        (Topology::Star, 8),
        (Topology::Cycle, 8),
        (Topology::Clique, 6),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (topology, n))| {
        let mut w = JoinWorkload::new(topology, n, JOIN_BASE_ROWS, seed.wrapping_add(i as u64));
        w.growth = JOIN_GROWTH;
        w
    })
    .collect()
}

/// Generate the data, dump it and compute the battery's answers.
fn prepare(spec: &Spec, seed: u64) -> Result<(LoadPlan, Vec<Query>)> {
    let scratch = Database::new(DatabaseConfig {
        buffer_pages: spec.pool_pages,
        ..DatabaseConfig::default()
    });
    (spec.generate)(&scratch, seed)?;
    let plan = LoadPlan::from_database(&scratch, spec.chunk_rows)?;
    let battery = (spec.battery)(&plan.data(), seed)?;
    Ok((plan, battery))
}

fn setup(spec: &Spec, plan: &LoadPlan) -> Result<Setup> {
    let (db, disk) = run::create(spec.pool_pages, 0)?;
    let times = run::load(&db.session(), plan)?;
    Ok(((db, disk), times))
}

fn check(q: &Query, result: std::result::Result<Vec<evopt_common::Tuple>, String>) -> Result<()> {
    let rows: Vec<reference::Row> = result?
        .into_iter()
        .map(evopt_common::Tuple::into_values)
        .collect();
    reference::check(&rows, &q.expected).map_err(|err| format!("{}: {err}", q.name))
}

fn rows_of(r: evopt_common::Result<QueryResult>) -> Result<Vec<evopt_common::Tuple>> {
    match r.map_err(e)? {
        QueryResult::Rows { rows, .. } => Ok(rows),
        other => Err(format!("expected rows, got {other:?}")),
    }
}

/// Run every battery query once, untimed but checked, so caches are
/// filled before timing starts.
fn warm_up(session: &Session, battery: &[Query], out: &mut Outcome) {
    for q in battery {
        out.attempted += 1;
        if let Err(err) = check(q, rows_of(session.execute(&q.sql))) {
            out.fail(err);
        }
    }
}

/// Closed loop over the battery until `until` has passed and at least
/// `min` statements ran. Latencies go to `samples` and, per battery query,
/// to `per_query`.
fn closed_loop(
    session: &Session,
    battery: &[Query],
    until: Instant,
    min: usize,
    samples: &mut Samples,
    per_query: &mut [Vec<f64>],
    out: &mut Outcome,
) {
    let mut mine = Samples::default();
    let mut i = 0;
    while Instant::now() < until || i < min {
        let q = &battery[i % battery.len()];
        let at = Instant::now();
        let result = session.execute(&q.sql);
        let latency = run::ms(at.elapsed());
        mine.record(latency, false);
        per_query[i % battery.len()].push(latency);
        out.attempted += 1;
        if let Err(err) = check(q, rows_of(result)) {
            out.fail(err);
        }
        i += 1;
    }
    samples.merge(0, mine);
}

fn per_query_notes(battery: &[Query], per_query: &[Vec<f64>], out: &mut Outcome) {
    for (q, lat) in battery.iter().zip(per_query) {
        out.notes.push(format!(
            "{:<24} p50 {:>10.3} ms  n={}",
            q.name,
            median(lat),
            lat.len()
        ));
    }
}

/// The untraced run: end-to-end metrics. Each segment loads a fresh
/// database, measures it, crashes it, recovers it and checks the
/// recovered tables.
pub(crate) fn run(spec: &Spec, args: &Args) -> Result<Outcome> {
    let (plan, battery) = prepare(spec, args.seed)?;
    let data = plan.data();
    let mut out = Outcome::default();
    let (mut setups, mut samples, mut recoveries_s) = (Vec::new(), Samples::default(), Vec::new());
    let mut per_query = vec![Vec::new(); battery.len()];
    let segment = Duration::from_secs(args.seconds) / spec.segments;
    let min = run::min_statements().div_ceil(spec.segments as usize);
    for k in 0..spec.segments {
        let ((db, disk), times) = setup(spec, &plan)?;
        setups.push(times);
        if k == 0 {
            out.notes.push(run::footprint(&db));
        }
        let session = db.session();
        warm_up(&session, &battery, &mut out);
        let until = Instant::now() + segment;
        closed_loop(
            &session,
            &battery,
            until,
            min,
            &mut samples,
            &mut per_query,
            &mut out,
        );
        // Crash: drop the database without a flush, then recover.
        drop(session);
        drop(db);
        let (recovered, times) = run::recover(&disk, spec.pool_pages)?;
        recoveries_s.extend(times);
        run::check_tables(&recovered, &data, &mut out);
    }
    per_query_notes(&battery, &per_query, &mut out);
    EndToEnd {
        setups,
        samples,
        recoveries_s,
    }
    .report(&mut out);
    Ok(out)
}

/// The traced run: half the time untraced, then the same statements
/// replayed with every SELECT split into its public calls.
pub(crate) fn run_traced(spec: &Spec, args: &Args) -> Result<Outcome> {
    let (plan, battery) = prepare(spec, args.seed)?;
    let ((db, _disk), times) = setup(spec, &plan)?;
    let mut out = Outcome::default();
    let session = db.session();
    warm_up(&session, &battery, &mut out);
    let until = Instant::now() + Duration::from_millis(args.seconds * 500);
    let mut untraced = Samples::default();
    let mut per_query = vec![Vec::new(); battery.len()];
    closed_loop(
        &session,
        &battery,
        until,
        0,
        &mut untraced,
        &mut per_query,
        &mut out,
    );
    per_query_notes(&battery, &per_query, &mut out);
    let n = untraced.all_ms.len();

    let before = db.metrics_snapshot();
    let mut tracer = Tracer::new(Instant::now());
    for i in 0..n {
        let q = &battery[i % battery.len()];
        let stmt = i as u64;
        tracer.begin(STMT, stmt, Some(&db));
        let result = split_select(&mut tracer, &db, stmt, &q.sql);
        tracer.end(Some(&db));
        out.attempted += 1;
        if let Err(err) = check(q, result) {
            out.fail(err);
        }
    }
    let after = db.metrics_snapshot();

    let mut layers = Layers::default();
    select_layers(&tracer, &before, &after, &mut layers);
    storage_layers(&tracer, &mut layers);
    layers.set("catalog.load_s", times.load_s, 1);
    layers.set("catalog.analyze_s", times.analyze_s, 1);
    layers.set("trace.unattributed_frac", tracer.unattributed_frac(), n);
    let traced_tps = ratio(n as f64, total_s(&tracer, STMT));
    layers.set(
        "trace.overhead_frac",
        1.0 - ratio(traced_tps, untraced.throughput_sps()),
        n,
    );
    write_spans(&tracer, args)?;
    layers.report(&mut out);
    Ok(out)
}

/// Summed duration of every span called `name`, in seconds.
pub(crate) fn total_s(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Layers of split SELECTs: front end, optimizer, executor, and the
/// engine histograms that read paths touch.
pub(crate) fn select_layers(
    tracer: &Tracer,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    layers: &mut Layers,
) {
    for (span, metric) in [
        ("sql.parse", "sql.parse_us"),
        ("sql.bind", "sql.bind_us"),
        ("core.optimize", "core.optimize_us"),
        ("exec.run", "exec.run_us"),
    ] {
        let us = tracer.self_us(span);
        layers.set(metric, median(&us), us.len());
    }
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let calls = d(after.optimize_calls, before.optimize_calls);
    let considered = d(after.plans_considered, before.plans_considered);
    let runs = tracer.self_us("exec.run").len();
    layers.set(
        "core.plans_considered",
        ratio(considered, calls),
        calls as usize,
    );
    layers.set(
        "core.prune_ratio",
        ratio(d(after.plans_pruned, before.plans_pruned), considered),
        calls as usize,
    );
    layers.set(
        "exec.rows_per_s",
        ratio(
            d(after.exec_rows, before.exec_rows),
            total_s(tracer, "exec.run"),
        ),
        runs,
    );
    layers.set(
        "exec.batches_per_stmt",
        ratio(d(after.exec_batches, before.exec_batches), runs as f64),
        runs,
    );
    layers.set(
        "exec.spills",
        d(after.exec_spills, before.exec_spills),
        runs,
    );
    for (metric, b, a) in [
        (
            "engine.snapshot_acquire_us",
            &before.snapshot_acquire_us,
            &after.snapshot_acquire_us,
        ),
        (
            "engine.pool_miss_io_us",
            &before.pool_miss_io_us,
            &after.pool_miss_io_us,
        ),
        (
            "engine.commit_lock_wait_us",
            &before.commit_lock_wait_us,
            &after.commit_lock_wait_us,
        ),
    ] {
        layers.set(
            metric,
            hist_mean_delta(b, a),
            a.count.saturating_sub(b.count) as usize,
        );
    }
}

/// Storage layers from the counter deltas of every statement span.
pub(crate) fn storage_layers(tracer: &Tracer, layers: &mut Layers) {
    let roots: Vec<_> = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == STMT)
        .collect();
    let n = roots.len();
    let sum = |f: fn(&crate::trace::Counters) -> u64| -> f64 {
        roots.iter().map(|s| f(&s.io) as f64).sum()
    };
    let (hits, misses) = (sum(|c| c.pool_hits), sum(|c| c.pool_misses));
    layers.set("storage.pool_hit_ratio", ratio(hits, hits + misses), n);
    layers.set("storage.pool_misses_per_stmt", ratio(misses, n as f64), n);
    layers.set(
        "storage.evictions_per_stmt",
        ratio(sum(|c| c.evictions), n as f64),
        n,
    );
    layers.set(
        "storage.disk_reads_per_stmt",
        ratio(sum(|c| c.disk_reads), n as f64),
        n,
    );
    layers.set(
        "storage.disk_writes_per_stmt",
        ratio(sum(|c| c.disk_writes), n as f64),
        n,
    );
}

/// Write the spans where the run's `--out` points.
pub(crate) fn write_spans(tracer: &Tracer, args: &Args) -> Result<()> {
    let path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path).map_err(e)?;
    eprintln!(
        "spans: {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(())
}

//! `oltp_wire`: closed-loop clients talk to `serve()` over TCP with a
//! Zipf-skewed read/write mix on one keyed table larger than the pool.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use evopt_engine::{Database, QueryResult};
use evopt_server::{serve, Client, Response, ServerConfig, ServerHandle};
use evopt_storage::PAGE_SIZE;

use crate::inproc::{select_layers, storage_layers, write_spans};
use crate::layers::Layers;
use crate::model::{self, ConnModel, Op};
use crate::reference::Table;
use crate::run::{
    self, e, hist_mean_delta, ratio, Args, EndToEnd, LoadPlan, Outcome, Result, Samples, Setup,
    TableLoad,
};
use crate::stats::median;
use crate::trace::{split_select, Tracer, STMT};

/// Rows loaded.
pub(crate) const ROWS: usize = 50_000;
/// Buffer pool pages (the engine default).
pub(crate) const POOL_PAGES: usize = 256;
/// Simulated latency of every page read and write.
pub(crate) const IO_LATENCY_US: u64 = 50;
/// Rows per INSERT statement of the load.
pub(crate) const CHUNK_ROWS: usize = 1000;
/// Client connections, at most the machine's parallelism.
pub(crate) const MAX_CLIENTS: usize = 2;
/// Databases an untraced run loads and serves in turn (see
/// `inproc::Spec::segments`).
pub(crate) const SEGMENTS: u32 = 4;

pub(crate) fn clients() -> usize {
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    MAX_CLIENTS.min(cores).max(1)
}

const COLUMNS: [&str; 7] = [
    "unique1",
    "unique2",
    "one_pct",
    "ten_pct",
    "twenty_pct",
    "odd",
    "stringu1",
];

/// The load: index first, then key-ordered INSERT chunks (a WAL no-steal
/// pool cannot take the table in one statement, nor index it afterwards).
fn plan(seed: u64) -> LoadPlan {
    LoadPlan {
        tables: vec![TableLoad {
            create: model::CREATE_TABLE.to_string(),
            indexes: vec![model::CREATE_INDEX.to_string()],
            index_first: true,
            table: Table::new(model::TABLE, &COLUMNS, model::initial_rows(ROWS, seed)),
        }],
        chunk_rows: CHUNK_ROWS,
    }
}

fn setup(plan: &LoadPlan) -> Result<Setup> {
    let (db, disk) = run::create(POOL_PAGES, IO_LATENCY_US)?;
    let times = run::load(&db.session(), plan)?;
    Ok(((db, disk), times))
}

fn models(plan: &LoadPlan, seed: u64) -> Vec<ConnModel> {
    let conns = clients();
    let rows = &plan.tables[0].table.rows;
    (0..conns)
        .map(|c| {
            let (lo, hi) = model::key_range(c, conns, ROWS);
            ConnModel::new(lo, hi, rows, seed ^ (0x9e37_79b9 * (c as u64 + 1)))
        })
        .collect()
}

/// What one connection did.
struct Conn {
    model: ConnModel,
    ops: Vec<Op>,
    samples: Samples,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    user_bytes: usize,
    tracer: Option<Tracer>,
}

/// Run one closed-loop client per model against `handle` until `until`
/// (and `min` statements each), or replay `streams` exactly.
fn wire(
    handle: &ServerHandle,
    models: Vec<ConnModel>,
    streams: Option<Vec<Vec<Op>>>,
    until: Instant,
    min: usize,
    traced: Option<Instant>,
) -> Vec<Conn> {
    let addr = handle.addr();
    let mut streams = streams.map(|s| s.into_iter());
    let workers: Vec<_> = models
        .into_iter()
        .enumerate()
        .map(|(c, model)| {
            let replay = streams.as_mut().and_then(Iterator::next);
            thread::spawn(move || client_loop(addr, c, model, replay, until, min, traced))
        })
        .collect();
    workers
        .into_iter()
        .map(|w| {
            w.join().unwrap_or_else(|_| Conn {
                model: ConnModel::new(0, 0, &[], 0),
                ops: Vec::new(),
                samples: Samples::default(),
                attempted: 1,
                failed: 1,
                errors: vec!["client thread panicked".into()],
                user_bytes: 0,
                tracer: None,
            })
        })
        .collect()
}

fn client_loop(
    addr: std::net::SocketAddr,
    c: usize,
    model: ConnModel,
    replay: Option<Vec<Op>>,
    until: Instant,
    min: usize,
    traced: Option<Instant>,
) -> Conn {
    let mut conn = Conn {
        model,
        ops: Vec::new(),
        samples: Samples::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        user_bytes: 0,
        tracer: traced.map(Tracer::new),
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(err) => {
            conn.attempted = 1;
            conn.failed = 1;
            conn.errors.push(format!("connection refused: {err}"));
            return conn;
        }
    };
    let mut replay = replay.map(Vec::into_iter);
    let mut i = 0u64;
    loop {
        let op = match replay.as_mut() {
            Some(ops) => match ops.next() {
                Some(op) => op,
                None => break,
            },
            None if Instant::now() >= until && i as usize >= min => break,
            None => conn.model.next_op(),
        };
        let expect = conn.model.expect(&op);
        let sql = op.sql();
        let stmt = ((c as u64) << 32) | i;
        let at = Instant::now();
        let resp = match conn.tracer.as_mut() {
            Some(t) => {
                t.begin(STMT, stmt, None);
                let r = t.span("server.request", stmt, None, || client.request(&sql));
                t.end(None);
                r
            }
            None => client.request(&sql),
        };
        conn.samples.record(run::ms(at.elapsed()), op.is_write());
        conn.attempted += 1;
        let verdict = match &resp {
            Ok(Response::Bye(text)) => Err(format!("connection refused: {text}")),
            Ok(r) => expect.check_wire(r),
            Err(err) => Err(format!("request failed: {err}")),
        };
        match verdict {
            Ok(()) => {
                conn.model.apply(&op);
                conn.user_bytes += op.user_bytes();
            }
            Err(err) => {
                conn.failed += 1;
                if conn.errors.len() < 20 {
                    conn.errors.push(format!("conn {c}: {sql:.60}: {err}"));
                }
                if matches!(resp, Ok(Response::Bye(_)) | Err(_)) {
                    conn.ops.push(op);
                    break;
                }
            }
        }
        conn.ops.push(op);
        i += 1;
    }
    conn
}

/// Fold the connections' outcomes into `out` and their latencies into
/// `samples`.
fn collect(conns: &mut [Conn], samples: &mut Samples, out: &mut Outcome) {
    for (i, c) in conns.iter_mut().enumerate() {
        out.attempted += c.attempted;
        out.failed += c.failed;
        out.errors.append(&mut c.errors);
        samples.merge(i, std::mem::take(&mut c.samples));
    }
}

fn start(db: &Arc<Database>) -> Result<ServerHandle> {
    serve(
        Arc::clone(db),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: clients(),
        },
    )
    .map_err(e)
}

/// Stop the server and wait until every connection thread has released
/// its session.
fn stop(handle: ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.metrics().active_sessions.get() > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(1));
    }
    handle.shutdown();
}

/// The untraced run: end-to-end metrics. Each segment loads a fresh
/// database, serves it for an equal share of the run, crashes it, recovers
/// it and checks that every acknowledged write is there.
pub(crate) fn run(args: &Args) -> Result<Outcome> {
    let plan = plan(args.seed);
    let mut out = Outcome::default();
    let (mut setups, mut samples, mut recoveries_s) = (Vec::new(), Samples::default(), Vec::new());
    let segment = Duration::from_secs(args.seconds) / SEGMENTS;
    let min = run::min_statements().div_ceil(clients() * SEGMENTS as usize);
    for k in 0..SEGMENTS {
        let ((db, disk), times) = setup(&plan)?;
        setups.push(times);
        if k == 0 {
            out.notes.push(run::footprint(&db));
        }
        let handle = start(&db)?;
        let until = Instant::now() + segment;
        let streams = models(&plan, args.seed.wrapping_add(k.into()));
        let mut conns = wire(&handle, streams, None, until, min, None);
        stop(handle);
        collect(&mut conns, &mut samples, &mut out);

        // Crash: drop the database without a flush, then recover.
        drop(db);
        let (recovered, times) = run::recover(&disk, POOL_PAGES)?;
        recoveries_s.extend(times);
        let rows = conns
            .iter()
            .flat_map(|c| c.model.rows().values().cloned())
            .collect();
        let want = [(
            model::TABLE.to_string(),
            Table::new(model::TABLE, &COLUMNS, rows),
        )]
        .into_iter()
        .collect();
        run::check_tables(&recovered, &want, &mut out);
    }
    EndToEnd {
        setups,
        samples,
        recoveries_s,
    }
    .report(&mut out);
    Ok(out)
}

/// The traced run. An untraced wire run records each connection's
/// statements; a fresh database replays them over the wire with every
/// `Client::request` a span, and another replays them in-process, one at
/// a time, with SELECTs split into their public calls and writes as one
/// `Session::execute` each.
pub(crate) fn run_traced(args: &Args) -> Result<Outcome> {
    let plan = plan(args.seed);
    let mut out = Outcome::default();

    // Untraced: record the stream.
    let ((db, _disk), times) = setup(&plan)?;
    let handle = start(&db)?;
    let until = Instant::now() + Duration::from_millis(args.seconds * 500);
    let mut conns = wire(&handle, models(&plan, args.seed), None, until, 0, None);
    stop(handle);
    drop(db);
    let mut untraced = Samples::default();
    collect(&mut conns, &mut untraced, &mut out);
    let streams: Vec<Vec<Op>> = conns.into_iter().map(|c| c.ops).collect();

    // Traced, over the wire.
    let origin = Instant::now();
    let ((db, _disk), _) = setup(&plan)?;
    let before = db.metrics_snapshot();
    let (wal_before, io_before) = wal_and_io(&db);
    let handle = start(&db)?;
    let mut conns = wire(
        &handle,
        models(&plan, args.seed),
        Some(streams.clone()),
        Instant::now(),
        0,
        Some(origin),
    );
    let refused = handle.metrics().connections_refused.get();
    stop(handle);
    let after = db.metrics_snapshot();
    let (wal_after, io_after) = wal_and_io(&db);
    drop(db);
    let user_bytes: usize = conns.iter().map(|c| c.user_bytes).sum();
    let mut wire_samples = Samples::default();
    collect(&mut conns, &mut wire_samples, &mut out);
    let mut wire_tracer = Tracer::new(origin);
    for c in &mut conns {
        if let Some(t) = c.tracer.take() {
            wire_tracer.merge(t);
        }
    }

    // Traced, in-process and sequential, so per-statement counter deltas
    // belong to one statement.
    let ((db, _disk), _) = setup(&plan)?;
    let session = db.session();
    let mut local = Tracer::new(origin);
    let mut models = models(&plan, args.seed);
    let (mut point_pages, mut update_pages) = (Vec::new(), Vec::new());
    let p_before = db.metrics_snapshot();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for (c, stream) in streams.iter().enumerate() {
            let Some(op) = stream.get(i) else { continue };
            let stmt = ((c as u64) << 32) | i as u64;
            let expect = models[c].expect(op);
            let sql = op.sql();
            let root = local.begin(STMT, stmt, Some(&db));
            let verdict = if op.is_write() {
                let r = local.span("engine.execute", stmt, Some(&db), || session.execute(&sql));
                r.map_err(e)
                    .and_then(|r: QueryResult| expect.check_local(&r))
            } else {
                split_select(&mut local, &db, stmt, &sql).and_then(|rows| expect.check_rows(&rows))
            };
            local.end(Some(&db));
            out.attempted += 1;
            match verdict {
                Ok(()) => models[c].apply(op),
                Err(err) => out.fail(format!("in-process conn {c}: {sql:.60}: {err}")),
            }
            let pages = local.spans()[root].io.pages() as f64;
            match op {
                Op::Point(_) => point_pages.push(pages),
                Op::Update(..) => update_pages.push(pages),
                _ => {}
            }
        }
    }
    let p_after = db.metrics_snapshot();
    drop(session);
    drop(db);

    let mut layers = Layers::default();
    select_layers(&local, &p_before, &p_after, &mut layers);
    storage_layers(&local, &mut layers);
    layers.set(
        "storage.pages_per_point_read",
        median(&point_pages),
        point_pages.len(),
    );
    layers.set(
        "storage.pages_per_update",
        median(&update_pages),
        update_pages.len(),
    );
    let writes = local.self_us("engine.execute");
    layers.set("engine.write_stmt_us", median(&writes), writes.len());

    // WAL, contention and server layers from the concurrent wire replay.
    let commits = wal_after.commits.saturating_sub(wal_before.commits) as f64;
    let n_commits = commits as usize;
    layers.set(
        "wal.bytes_per_commit",
        ratio(
            wal_after
                .bytes_written
                .saturating_sub(wal_before.bytes_written) as f64,
            commits,
        ),
        n_commits,
    );
    layers.set(
        "wal.write_amp",
        ratio(
            (io_after.writes.saturating_sub(io_before.writes) as usize * PAGE_SIZE) as f64,
            user_bytes as f64,
        ),
        n_commits,
    );
    layers.set(
        "wal.syncs_per_commit",
        ratio(
            io_after.syncs.saturating_sub(io_before.syncs) as f64,
            commits,
        ),
        n_commits,
    );
    layers.set(
        "wal.coalesced_ratio",
        ratio(
            wal_after
                .coalesced_syncs
                .saturating_sub(wal_before.coalesced_syncs) as f64,
            commits,
        ),
        n_commits,
    );
    for (metric, b, a) in [
        (
            "wal.sync_wait_us",
            &before.wal_sync_wait_us,
            &after.wal_sync_wait_us,
        ),
        (
            "engine.commit_lock_wait_us",
            &before.commit_lock_wait_us,
            &after.commit_lock_wait_us,
        ),
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
    ] {
        layers.set(
            metric,
            hist_mean_delta(b, a),
            a.count.saturating_sub(b.count) as usize,
        );
    }
    let request_us: Vec<f64> = wire_tracer
        .spans()
        .iter()
        .filter(|s| s.name == "server.request")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let local_us: Vec<f64> = local
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    layers.set(
        "server.wire_overhead_us",
        median(&request_us) - median(&local_us),
        request_us.len(),
    );
    layers.set("server.refused", refused as f64, clients());
    layers.set("catalog.load_s", times.load_s, 1);
    layers.set("catalog.analyze_s", times.analyze_s, 1);
    layers.set(
        "trace.overhead_frac",
        1.0 - ratio(wire_samples.throughput_sps(), untraced.throughput_sps()),
        wire_samples.all_ms.len(),
    );
    wire_tracer.merge(local);
    layers.set(
        "trace.unattributed_frac",
        wire_tracer.unattributed_frac(),
        wire_samples.all_ms.len(),
    );
    write_spans(&wire_tracer, args)?;
    layers.report(&mut out);
    Ok(out)
}

fn wal_and_io(db: &Database) -> (evopt_engine::WalStats, evopt_engine::IoSnapshot) {
    (
        db.wal().map(|w| w.stats()).unwrap_or_default(),
        db.disk().snapshot(),
    )
}

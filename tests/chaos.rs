//! Chaos suite (experiment R1): whole-stack fault injection.
//!
//! Each scenario loads a workload cleanly, then unleashes a deterministic,
//! seed-driven fault schedule (transient I/O errors, torn writes, bit
//! flips) on the simulated disk and re-runs real queries. The contract
//! under fire:
//!
//! 1. **No panics, ever.** Any panic anywhere in the stack fails the test.
//! 2. **Correct or typed.** Every query either returns exactly the
//!    fault-free answer or fails with a fault-class error
//!    (`is_fault()`): `Io`, `Corruption`, `Storage`, ...
//! 3. **Counters stay consistent.** Pool and disk accounting never
//!    contradict each other, faults included.
//!
//! Seeds: `CHAOS_SEED=<n>` pins one seed (the CI matrix runs 1, 2, 3);
//! without it every default seed runs in-process.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use evopt::storage::page::PageData;
use evopt::storage::PageId;
use evopt::{Database, DatabaseConfig, DiskBackend, DiskManager, Durability, FaultConfig, Tuple};
use evopt_workload::{load_tpch_lite, load_wisconsin};

/// Seeds to exercise: the CHAOS_SEED env var pins one (CI matrix), default
/// is all three.
fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s
            .parse()
            .unwrap_or_else(|_| panic!("CHAOS_SEED must be an integer, got '{s}'"))],
        Err(_) => vec![1, 2, 3],
    }
}

/// A database with the chaos fault schedule installed but *disabled*, plus
/// a fault-free twin for ground truth. Both small-pooled so queries do real
/// I/O.
fn twin_dbs(seed: u64) -> (Database, Database) {
    let faulty = Database::new(DatabaseConfig {
        buffer_pages: 32,
        faults: Some(FaultConfig::chaos(seed)),
        ..Default::default()
    });
    faulty
        .fault_injector()
        .expect("built with faults")
        .set_enabled(false);
    let clean = Database::new(DatabaseConfig {
        buffer_pages: 32,
        ..Default::default()
    });
    (faulty, clean)
}

fn load_both(faulty: &Database, clean: &Database, seed: u64) {
    for db in [faulty, clean] {
        load_wisconsin(db, "wisc", 2000, seed).unwrap();
        db.execute("CREATE INDEX wisc_u1 ON wisc (unique1)")
            .unwrap();
        load_tpch_lite(db, 0.25, seed).unwrap();
        db.execute("ANALYZE").unwrap();
    }
}

/// Deterministic queries (ORDER BY throughout) spanning scans, index
/// lookups, sorts, aggregation, and multi-table joins — enough operator
/// diversity that spills and evictions happen in a 32-page pool.
const QUERIES: &[&str] = &[
    "SELECT COUNT(*) FROM wisc",
    "SELECT unique1, stringu1 FROM wisc WHERE unique1 < 40 ORDER BY unique1",
    "SELECT one_pct, COUNT(*) AS n FROM wisc GROUP BY one_pct ORDER BY one_pct",
    "SELECT ten_pct, MIN(unique2) AS lo, MAX(unique2) AS hi FROM wisc \
     GROUP BY ten_pct ORDER BY ten_pct",
    "SELECT COUNT(*) FROM orders o JOIN customer c ON o.o_customer = c.c_key",
    "SELECT c.c_nation, COUNT(*) AS n FROM orders o \
     JOIN customer c ON o.o_customer = c.c_key \
     GROUP BY c.c_nation ORDER BY n DESC, c.c_nation",
    "SELECT unique2 FROM wisc WHERE odd = 1 ORDER BY unique2 DESC",
];

/// The core chaos scenario for one seed.
fn run_chaos(seed: u64) {
    let (faulty, clean) = twin_dbs(seed);
    load_both(&faulty, &clean, seed);

    // Ground truth, computed fault-free.
    let expected: Vec<Vec<Tuple>> = QUERIES.iter().map(|q| clean.query(q).unwrap()).collect();

    let injector = faulty.fault_injector().unwrap().clone();
    let pool_before = faulty.pool().stats();
    let io_before = faulty.disk().snapshot();
    injector.set_enabled(true);

    let mut ok = 0u32;
    let mut typed_failures = 0u32;
    // Several rounds so the random schedule hits different pages/ops.
    for round in 0..6 {
        for (q, want) in QUERIES.iter().zip(&expected) {
            match faulty.query(q) {
                Ok(rows) => {
                    assert_eq!(
                        &rows, want,
                        "seed {seed} round {round}: wrong answer under faults for {q}"
                    );
                    ok += 1;
                }
                Err(e) => {
                    assert!(
                        e.is_fault(),
                        "seed {seed} round {round}: non-fault error {e:?} ({}) for {q}",
                        e.kind()
                    );
                    typed_failures += 1;
                }
            }
        }
    }
    injector.set_enabled(false);

    // The schedule actually fired.
    let report = injector.report();
    assert!(
        report.total() > 0,
        "seed {seed}: chaos schedule injected no faults in {} queries",
        ok + typed_failures
    );

    // Counter consistency across the storm. Every successful pool miss did
    // at least one physical read; fault-path fetches that failed clean did
    // not inflate the miss count past the reads that served them.
    let pool_delta = faulty.pool().stats().since(&pool_before);
    let io_delta = faulty.disk().snapshot().since(&io_before);
    assert!(
        io_delta.reads >= pool_delta.misses,
        "seed {seed}: {} pool misses but only {} physical reads",
        pool_delta.misses,
        io_delta.reads
    );
    assert_eq!(
        io_delta.read_faults + io_delta.write_faults,
        report.total(),
        "seed {seed}: disk snapshot and injector report disagree on fault count"
    );

    // The engine survives: with faults off again, every query answers
    // correctly unless it needs a page the schedule already corrupted on
    // disk (those must keep failing typed, never silently wrong).
    for (q, want) in QUERIES.iter().zip(&expected) {
        match faulty.query(q) {
            Ok(rows) => assert_eq!(&rows, want, "seed {seed}: wrong post-chaos answer for {q}"),
            Err(e) => assert!(
                e.is_fault(),
                "seed {seed}: non-fault post-chaos error {e:?} for {q}"
            ),
        }
    }
}

#[test]
fn chaos_wisconsin_tpch_survives_fault_storm() {
    for seed in chaos_seeds() {
        run_chaos(seed);
    }
}

/// Acceptance: 100% of injected silent corruptions (torn writes, bit
/// flips) are caught by page checksums — a corrupted page can only produce
/// `Corruption`, never wrong bytes.
#[test]
fn checksums_catch_every_injected_corruption() {
    for seed in chaos_seeds() {
        let (faulty, _clean) = twin_dbs(seed);
        load_wisconsin(&faulty, "wisc", 1500, seed).unwrap();
        faulty.execute("ANALYZE").unwrap();

        let pool = faulty.pool().clone();
        // Persist everything (stamping checksums), then empty the pool so
        // the next fetch must hit the corrupted disk image.
        pool.evict_all().unwrap();

        let injector = faulty.fault_injector().unwrap();
        let total_pages = faulty.disk().page_count();
        assert!(total_pages > 8, "expected a multi-page database");
        // Corrupt a deterministic sample: torn writes on even picks, bit
        // flips on odd ones.
        let victims: Vec<u64> = (0..total_pages).step_by(3).collect();
        for (i, &page) in victims.iter().enumerate() {
            if i % 2 == 0 {
                injector.force_torn_write(page).unwrap();
            } else {
                injector.force_bit_flip(page).unwrap();
            }
        }

        let mut caught = 0usize;
        for &page in &victims {
            match pool.fetch(page) {
                Err(e) => {
                    assert_eq!(
                        e.kind(),
                        "corruption",
                        "seed {seed}: page {page} failed with {e:?}, want Corruption"
                    );
                    caught += 1;
                }
                Ok(_) => panic!(
                    "seed {seed}: page {page} was corrupted on disk but fetch returned bytes"
                ),
            }
        }
        assert_eq!(
            caught,
            victims.len(),
            "seed {seed}: checksum catch rate below 100%"
        );
        assert!(
            pool.stats().corruptions >= victims.len() as u64,
            "seed {seed}: pool corruption counter did not track the catches"
        );
    }
}

/// Transient read faults (no on-disk damage) heal via the pool's bounded
/// retry: queries keep succeeding with correct answers, and the retry
/// counter shows the faults were absorbed rather than never injected.
#[test]
fn transient_faults_are_absorbed_by_retry() {
    let seed = chaos_seeds()[0];
    // Transient faults only — nothing persists on disk, so every fault
    // must heal within the pool's bounded retry.
    let faulty = Database::new(DatabaseConfig {
        buffer_pages: 16,
        faults: Some(FaultConfig {
            seed,
            read_error: 0.20,
            write_error: 0.10,
            bit_flip_read: 0.10,
            ..FaultConfig::default()
        }),
        ..Default::default()
    });
    let injector = faulty.fault_injector().unwrap().clone();
    injector.set_enabled(false);
    load_wisconsin(&faulty, "wisc", 1200, seed).unwrap();
    faulty.execute("ANALYZE").unwrap();
    let want = faulty.query("SELECT COUNT(*) FROM wisc").unwrap();

    injector.set_enabled(true);
    for _ in 0..5 {
        // Force physical re-reads each round.
        faulty.pool().evict_all().unwrap();
        let got = faulty
            .query("SELECT COUNT(*) FROM wisc")
            .expect("transient faults must heal via bounded retry");
        assert_eq!(got, want);
    }
    injector.set_enabled(false);
    assert!(
        faulty.pool().stats().retries > 0,
        "retry counter never moved — schedule injected nothing"
    );
    assert_eq!(
        faulty.pool().stats().corruptions,
        0,
        "transient-only schedule must not corrupt"
    );
}

/// Fault storm on the *durability* path: a WAL-backed database under
/// transient read/write/sync faults. Contract: every statement is correct
/// or fails typed, and recovery afterwards yields a row count bounded by
/// the acknowledged and the attempted writes — never more, never fewer
/// than was acknowledged durable.
#[test]
fn wal_path_survives_fault_storm() {
    for seed in chaos_seeds() {
        // Transient-only schedule (no torn writes / bit flips): the disk
        // image itself stays honest, so recovery must always succeed; the
        // faults exercise the WAL's retry, poison, and re-queue paths.
        let cfg = DatabaseConfig {
            buffer_pages: 32,
            durability: Durability::Wal,
            faults: Some(FaultConfig {
                seed,
                read_error: 0.05,
                write_error: 0.10,
                sync_error: 0.15,
                ..FaultConfig::default()
            }),
            ..Default::default()
        };
        let db = Database::create_on(
            std::sync::Arc::new(evopt::DiskManager::new())
                as std::sync::Arc<dyn evopt::DiskBackend>,
            cfg,
        )
        .expect("bootstrap runs with injection suspended");
        let injector = db.fault_injector().expect("built with faults").clone();
        injector.set_enabled(false);
        db.execute("CREATE TABLE kv (k INT NOT NULL, v INT)")
            .unwrap();

        injector.set_enabled(true);
        let (mut acked_rows, mut attempted_rows) = (0u64, 0u64);
        for i in 0..40i64 {
            let base = i * 5;
            let rows: Vec<String> = (base..base + 5)
                .map(|k| format!("({k}, {})", k * 7))
                .collect();
            let sql = format!("INSERT INTO kv VALUES {}", rows.join(", "));
            attempted_rows += 5;
            match db.execute(&sql) {
                Ok(_) => acked_rows += 5,
                Err(e) => assert!(
                    e.is_fault(),
                    "seed {seed}: statement {i} failed non-typed: {e:?} ({})",
                    e.kind()
                ),
            }
        }
        injector.set_enabled(false);
        assert!(
            injector.report().total() > 0 || db.disk().snapshot().write_faults > 0,
            "seed {seed}: the storm never fired"
        );

        // Recover over the *inner* (healed) disk: everything acknowledged
        // must be there; a statement that failed only at its commit fence
        // may additionally have ridden into a later successful commit.
        let inner = injector.inner().clone();
        drop(db);
        let (db, _info) = Database::recover(
            inner,
            DatabaseConfig {
                buffer_pages: 32,
                durability: Durability::Wal,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("seed {seed}: recovery after a transient storm failed: {e}"));
        let rows = db.query("SELECT COUNT(*) FROM kv").unwrap();
        let count = match &rows[0].values()[0] {
            evopt::Value::Int(n) => *n as u64,
            other => panic!("COUNT(*) returned {other:?}"),
        };
        assert!(
            (acked_rows..=attempted_rows).contains(&count),
            "seed {seed}: recovered {count} rows, acknowledged {acked_rows}, attempted {attempted_rows}"
        );
    }
}

/// `IoSnapshot::since` called with a misordered pair (the classic bug: an
/// "earlier" snapshot taken *before* a `reset_stats`) has defined behavior
/// in both profiles: debug builds assert, release builds saturate to zero
/// instead of underflowing into garbage deltas.
#[test]
fn io_snapshot_since_misuse_is_defined() {
    let db = Database::new(DatabaseConfig {
        buffer_pages: 16,
        ..Default::default()
    });
    db.execute("CREATE TABLE t (x INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.pool().evict_all().unwrap();
    let busy = db.disk().snapshot();
    assert!(busy.writes > 0, "setup produced no physical writes");
    db.disk().reset_stats();
    let idle = db.disk().snapshot();

    #[cfg(debug_assertions)]
    {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| idle.since(&busy)));
        std::panic::set_hook(prev);
        assert!(
            result.is_err(),
            "debug builds must assert on a misordered since()"
        );
    }
    #[cfg(not(debug_assertions))]
    {
        assert_eq!(
            idle.since(&busy),
            evopt::IoSnapshot::default(),
            "release builds must saturate a misordered since() to zero"
        );
    }
    // Correct ordering keeps working after the reset.
    db.execute("INSERT INTO t VALUES (4)").unwrap();
    db.pool().evict_all().unwrap();
    let after = db.disk().snapshot();
    let delta = after.since(&idle);
    assert!(delta.writes > 0);
}

/// Pool frames for the automatic-checkpoint scenarios: the log bound is
/// `AUTO_POOL × PAGE_SIZE` bytes.
const AUTO_POOL: usize = 16;

fn auto_cfg(faults: Option<FaultConfig>) -> DatabaseConfig {
    DatabaseConfig {
        buffer_pages: AUTO_POOL,
        durability: Durability::Wal,
        faults,
        ..Default::default()
    }
}

/// Rows `lo..hi` of `kv`, one statement.
fn insert_range(db: &Database, lo: i64, hi: i64) -> evopt::common::Result<evopt::QueryResult> {
    let rows: Vec<String> = (lo..hi)
        .map(|k| format!("({k}, '{}')", "x".repeat(200)))
        .collect();
    db.execute(&format!("INSERT INTO kv VALUES {}", rows.join(", ")))
}

/// Create `kv` and commit single-row statements until the next 200-row
/// statement (over 40 KiB of page images) must cross the log bound, while
/// this one stays under it.
fn fill_log_to_near_bound(db: &Database) {
    db.execute("CREATE TABLE kv (k INT NOT NULL, pad STRING NOT NULL)")
        .unwrap();
    let wal = db.wal().expect("durable database");
    let bound = (AUTO_POOL * evopt::storage::PAGE_SIZE) as u64;
    let mut k = 0;
    while wal.log_bytes() + 40 * 1024 < bound {
        insert_range(db, k, k + 1).unwrap();
        k += 1;
    }
    assert_eq!(wal.stats().checkpoints, 0, "the setup itself checkpointed");
}

/// Recover `disk` and count the rows of the triggering statement.
fn recovered_trigger_rows(disk: Arc<dyn DiskBackend>) -> i64 {
    let (db, _) = Database::recover(disk, auto_cfg(None)).expect("recovery");
    let rows = db
        .query("SELECT COUNT(*) FROM kv WHERE k >= 10000")
        .unwrap();
    rows[0].values()[0]
        .as_i64()
        .expect("COUNT(*) is an integer")
}

/// The statement that pushes the log over its bound triggers a checkpoint
/// after its own commit is durable. Sync faults injected while that
/// checkpoint runs never turn the acknowledged statement into an error,
/// and its rows survive recovery.
#[test]
fn sync_faults_during_an_automatic_checkpoint_keep_the_statement_acknowledged() {
    for seed in chaos_seeds() {
        let base: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        let faults = FaultConfig {
            seed,
            sync_error: 1.0,
            ..FaultConfig::default()
        };
        let db = Database::create_on(Arc::clone(&base), auto_cfg(Some(faults))).unwrap();
        let injector = db.fault_injector().expect("built with faults").clone();
        injector.set_enabled(false);
        fill_log_to_near_bound(&db);

        injector.set_enabled(true);
        let result = insert_range(&db, 10_000, 10_200);
        injector.set_enabled(false);
        assert!(
            result.is_ok(),
            "seed {seed}: triggering statement failed: {result:?}"
        );
        let stats = db.wal().expect("durable database").stats();
        assert_eq!(
            stats.checkpoints + stats.checkpoint_failures,
            1,
            "seed {seed}: {stats:?}"
        );
        assert!(
            injector.report().sync_failures >= 2,
            "seed {seed}: the commit and the checkpoint must both meet a sync fault"
        );
        drop(db);
        assert_eq!(recovered_trigger_rows(base), 200, "seed {seed}");
    }
}

/// A disk whose syncs fail for good once armed, after letting a set
/// number through: a fault no retry heals.
struct FailingSyncs {
    inner: DiskManager,
    /// Syncs still allowed once armed; negative = not armed.
    passes: AtomicI64,
}

impl DiskBackend for FailingSyncs {
    fn allocate_page(&self) -> PageId {
        self.inner.allocate_page()
    }
    fn deallocate_page(&self, id: PageId) -> evopt::common::Result<()> {
        self.inner.deallocate_page(id)
    }
    fn read_page(&self, id: PageId, buf: &mut PageData) -> evopt::common::Result<()> {
        self.inner.read_page(id, buf)
    }
    fn write_page(&self, id: PageId, buf: &PageData) -> evopt::common::Result<()> {
        self.inner.write_page(id, buf)
    }
    fn sync(&self) -> evopt::common::Result<()> {
        match self.passes.load(Ordering::SeqCst) {
            0 => return Err(evopt::common::EvoptError::Io("sync refused".into())),
            n if n > 0 => self.passes.store(n - 1, Ordering::SeqCst),
            _ => {}
        }
        self.inner.sync()
    }
    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }
    fn snapshot(&self) -> evopt::IoSnapshot {
        self.inner.snapshot()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// When the automatic checkpoint fails outright (here: every sync after
/// the statement's own commit), the statement still succeeds, the failure
/// is counted, the next statement's trigger retries, and recovery keeps
/// the rows.
#[test]
fn a_failed_automatic_checkpoint_is_counted_and_retried() {
    let disk = Arc::new(FailingSyncs {
        inner: DiskManager::new(),
        passes: AtomicI64::new(-1),
    });
    let db =
        Database::create_on(Arc::clone(&disk) as Arc<dyn DiskBackend>, auto_cfg(None)).unwrap();
    fill_log_to_near_bound(&db);

    disk.passes.store(1, Ordering::SeqCst); // the commit's own sync
    insert_range(&db, 10_000, 10_200).expect("a durable statement is acknowledged");
    disk.passes.store(-1, Ordering::SeqCst);
    let wal = db.wal().expect("durable database");
    let stats = wal.stats();
    assert_eq!((stats.checkpoints, stats.checkpoint_failures), (0, 1));
    assert_eq!(db.metrics_snapshot().checkpoint_failures, 1);

    // The log is still over its bound: the next commit checkpoints.
    insert_range(&db, 20_000, 20_001).unwrap();
    assert_eq!(wal.stats().checkpoints, 1);
    assert!(wal.log_bytes() < (AUTO_POOL * evopt::storage::PAGE_SIZE) as u64);
    drop(db);
    assert_eq!(recovered_trigger_rows(disk), 201);
}

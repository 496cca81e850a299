//! The `Database` facade.

use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use evopt_catalog::{compute_stats, AnalyzeConfig, Catalog, TableInfo};
use evopt_common::{
    lockorder, Column, DataType, EvoptError, Expr, Result, Schema, Tuple, Value, DEFAULT_BATCH_ROWS,
};
use evopt_core::access_path::PathKind;
use evopt_core::optimizer::cheapest_access_path;
use evopt_core::physical::PhysicalPlan;
use evopt_core::verify::{self, VerifyPhase};
use evopt_core::{CostModel, Optimizer, OptimizerConfig, Strategy};
use evopt_exec::{
    run_collect, run_collect_governed, run_collect_instrumented, CancellationToken, ExecEnv,
    GovernorConfig, QueryMetrics,
};
use evopt_obs::{
    EngineMetrics, MetricsSnapshot, Phase, PhaseSpan, QueryLog, QueryLogEntry, SearchTrace,
    StatementSpan, TraceSink, DEFAULT_QUERY_LOG_CAP, DEFAULT_SLOW_QUERY_US, DEFAULT_TRACE_EVENTS,
};
use evopt_plan::LogicalPlan;
use evopt_sql::ast::{AstExpr, Statement};
use evopt_sql::{bind_select, parse};
use evopt_storage::{
    BufferPool, CatalogImage, ColumnImage, DiskBackend, DiskManager, FaultConfig, FaultInjector,
    FlushGate, IndexImage, IoSnapshot, Lsn, PolicyKind, PoolSnapshot, RecoveryInfo, Rid,
    TableImage, Wal, PAGE_SIZE,
};
// Non-poisoning mutex (the vendored stand-in recovers poisoned state via
// `into_inner`): a panicking config writer can't brick later queries, and
// the config copy held under the lock is plain data — no invariants to
// corrupt halfway.
use parking_lot::Mutex;

/// Crash-durability mode.
///
/// `Off` (the default) is the historical behaviour: the simulated disk
/// holds whatever the buffer pool flushed, and a crash loses everything
/// else. `Wal` adds a redo-only write-ahead log: every successful DML/DDL
/// statement commits durably (page images + commit record, synced), the
/// pool refuses to flush uncommitted pages (no-steal), and
/// [`Database::recover`] rebuilds exactly the committed prefix after a
/// crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    #[default]
    Off,
    Wal,
}

/// Construction-time knobs.
#[derive(Debug, Clone, Copy)]
pub struct DatabaseConfig {
    pub buffer_pages: usize,
    pub policy: PolicyKind,
    pub optimizer: OptimizerConfig,
    pub analyze: AnalyzeConfig,
    /// Fault-injection schedule for the underlying disk. `None` (the
    /// default) runs on a plain in-memory disk; `Some` wraps it in a
    /// deterministic [`FaultInjector`] — the chaos suite's entry point.
    pub faults: Option<FaultConfig>,
    /// Session-default resource limits applied to every SELECT run through
    /// [`Database::execute`]. Unlimited by default.
    pub governor: GovernorConfig,
    /// Executor batch size: tuples moved per `next_batch()` call. Defaults
    /// to [`DEFAULT_BATCH_ROWS`]; 1 degenerates to tuple-at-a-time Volcano.
    pub batch_rows: usize,
    /// Engine metrics: counters, optimize/execute histograms, and the query
    /// log. On (the default) costs a handful of relaxed atomic increments
    /// per query; off removes even those.
    pub metrics: bool,
    /// Ring-buffer capacity of the query log (entries; clamped to ≥ 1).
    pub query_log_cap: usize,
    /// Queries whose optimize+execute wall time meets this threshold are
    /// flagged slow in the query log and counted in `slow_queries`.
    pub slow_query_us: u64,
    /// Run the static plan verifier (`evopt_core::verify`) after binding
    /// and after every optimizer phase. Debug builds verify
    /// unconditionally; this opts release builds in. A violation surfaces
    /// as a structured plan error, never a panic.
    pub verify_plans: bool,
    /// Use the columnar operators (typed filter kernels, typed join key
    /// maps, typed aggregation) where available — the default. Off forces
    /// the original row-at-a-time operators everywhere, kept as the
    /// differential baseline for the columnar port.
    pub columnar: bool,
    /// Record per-statement phase spans (parse → bind → optimize → verify
    /// → execute → commit): rendered by `EXPLAIN ANALYZE` as a phase
    /// table and attached to query-log entries. On by default; costs a
    /// few clock reads and one small `Vec` per statement. Purely
    /// observational — the span differential suite proves plans and rows
    /// are identical either way.
    pub spans: bool,
    /// Crash durability: [`Durability::Wal`] turns on write-ahead logging
    /// with statement-granularity commits. Off by default — the
    /// optimizer-validation experiments measure query I/O, not commit
    /// overhead (EXPERIMENTS.md W1 measures the overhead itself).
    pub durability: Durability,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            buffer_pages: 256,
            policy: PolicyKind::Lru,
            optimizer: OptimizerConfig::default(),
            analyze: AnalyzeConfig::default(),
            faults: None,
            governor: GovernorConfig::default(),
            batch_rows: DEFAULT_BATCH_ROWS,
            metrics: true,
            query_log_cap: DEFAULT_QUERY_LOG_CAP,
            slow_query_us: DEFAULT_SLOW_QUERY_US,
            verify_plans: false,
            columnar: true,
            spans: true,
            durability: Durability::Off,
        }
    }
}

/// Per-session execution knobs: everything a [`Session`] may retune without
/// affecting any other session. [`DatabaseConfig`] carries the instance-wide
/// defaults; a new session starts from a copy of whatever the defaults are
/// at creation time, and every statement snapshots its session's config
/// once at entry — a knob flipped mid-statement never changes a statement
/// already running.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    pub optimizer: OptimizerConfig,
    pub analyze: AnalyzeConfig,
    pub governor: GovernorConfig,
    pub batch_rows: usize,
    pub verify_plans: bool,
    pub columnar: bool,
    /// Per-statement phase-span recording (see [`DatabaseConfig::spans`]).
    pub spans: bool,
}

impl DatabaseConfig {
    /// The per-session slice of this configuration.
    pub fn session(&self) -> SessionConfig {
        SessionConfig {
            optimizer: self.optimizer,
            analyze: self.analyze,
            governor: self.governor,
            batch_rows: self.batch_rows,
            verify_plans: self.verify_plans,
            columnar: self.columnar,
            spans: self.spans,
        }
    }
}

/// Everything one statement needs, captured once at statement start: the
/// session's config (no mid-statement config reads) and a frozen catalog
/// snapshot, so DDL committed by another session mid-statement never
/// changes what this statement sees.
struct StatementCtx {
    cfg: SessionConfig,
    catalog: Arc<Catalog>,
    /// The session that issued the statement (0 = the database-level
    /// implicit default session) — stamped into spans and log entries.
    session_id: u64,
    /// The session's own metrics registry, when the statement runs through
    /// a [`Session`] on a metrics-enabled instance.
    session_metrics: Option<Arc<EngineMetrics>>,
}

impl StatementCtx {
    fn verifying(&self) -> bool {
        cfg!(debug_assertions) || self.cfg.verify_plans
    }
}

/// Span assembly for one statement: the enclosing clock (stamped before
/// parse, so every phase is a sub-interval) plus the span being built.
/// Exists only while `cfg.spans` is on.
struct SpanState {
    started: Instant,
    span: StatementSpan,
}

impl SpanState {
    fn new(session_id: u64) -> SpanState {
        SpanState {
            started: Instant::now(),
            span: StatementSpan::new(session_id),
        }
    }

    fn push(&mut self, phase: PhaseSpan) {
        self.span.push(phase);
    }

    /// Stamp the statement's total wall time (call after the last phase).
    fn finish(&mut self) {
        self.span.total_us = self.started.elapsed().as_micros() as u64;
    }
}

/// The result of [`Database::execute`].
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// A SELECT's output. `metrics` is populated when the statement ran
    /// through an instrumented path (`EXPLAIN ANALYZE`,
    /// [`Database::query_with_metrics`]).
    Rows {
        schema: Schema,
        rows: Vec<Tuple>,
        metrics: Option<Box<QueryMetrics>>,
    },
    /// Rows affected by DML.
    Affected(usize),
    /// EXPLAIN text.
    Explained(String),
    /// DDL success.
    Ok,
}

/// Equality ignores `metrics`: two runs of the same query are the "same
/// result" even though wall-clock and pool state differ.
impl PartialEq for QueryResult {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                QueryResult::Rows {
                    schema: s1,
                    rows: r1,
                    ..
                },
                QueryResult::Rows {
                    schema: s2,
                    rows: r2,
                    ..
                },
            ) => s1 == s2 && r1 == r2,
            (QueryResult::Affected(a), QueryResult::Affected(b)) => a == b,
            (QueryResult::Explained(a), QueryResult::Explained(b)) => a == b,
            (QueryResult::Ok, QueryResult::Ok) => true,
            _ => false,
        }
    }
}

impl QueryResult {
    /// The rows of a `Rows` result (empty otherwise).
    pub fn rows(self) -> Vec<Tuple> {
        match self {
            QueryResult::Rows { rows, .. } => rows,
            _ => Vec::new(),
        }
    }

    /// The runtime metrics of an instrumented `Rows` result.
    pub fn metrics(&self) -> Option<&QueryMetrics> {
        match self {
            QueryResult::Rows { metrics, .. } => metrics.as_deref(),
            _ => None,
        }
    }
}

/// A SELECT run with the optimizer's search trace attached
/// ([`Database::query_traced`] — the programmatic `EXPLAIN TRACE`).
#[derive(Debug)]
pub struct TracedQuery {
    pub rows: Vec<Tuple>,
    pub plan: PhysicalPlan,
    pub trace: SearchTrace,
}

/// A complete single-node database instance.
pub struct Database {
    disk: Arc<dyn DiskBackend>,
    /// Present when the database was built with `config.faults`: the same
    /// object as `disk`, retyped for fault-schedule control.
    injector: Option<Arc<FaultInjector>>,
    pool: Arc<BufferPool>,
    catalog: Arc<Catalog>,
    /// Present when `config.durability` is [`Durability::Wal`]; also
    /// registered as the pool's flush gate (no-steal).
    wal: Option<Arc<Wal>>,
    /// Instance-wide session defaults: copied into every new [`Session`]
    /// and used directly by the [`Database`]-level convenience API (which
    /// behaves as an implicit default session). Rank
    /// [`lockorder::CONFIG`].
    defaults: Mutex<SessionConfig>,
    /// Serializes write statements end-to-end (apply + WAL append). Rank
    /// [`lockorder::COMMIT`], the outermost lock in the hierarchy. The WAL
    /// *sync* happens after this lock is released, so adjacent sessions'
    /// commits coalesce into shared fsyncs (group commit).
    commit_lock: Mutex<()>,
    /// Cached frozen catalog snapshot keyed by catalog version: statements
    /// re-snapshot only after DDL/ANALYZE actually changed something. Rank
    /// [`lockorder::SNAPSHOT_CACHE`].
    snapshot_cache: Mutex<Option<(u64, Arc<Catalog>)>>,
    /// Claimed by the one session running an automatic checkpoint.
    checkpointing: AtomicBool,
    next_session_id: AtomicU64,
    /// Per-instance metrics registry; `None` when `config.metrics` is off.
    /// Engine-site recordings are mirrored into [`evopt_obs::global`] so
    /// process-wide tooling (bench reports) sees every instance.
    metrics: Option<Arc<EngineMetrics>>,
    query_log: QueryLog,
}

impl Database {
    /// The shared buffer pool (pool-level hit/miss stats for experiments).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

impl Database {
    pub fn new(config: DatabaseConfig) -> Database {
        let base: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        // Bootstrap on a fresh in-memory disk cannot fail unless the
        // machine is out of memory — keep the historical infallible
        // signature rather than making every caller unwrap.
        Database::create_on(base, config)
            .unwrap_or_else(|e| panic!("database bootstrap failed on a fresh disk: {e}"))
    }

    /// Build a database over a caller-supplied backend (a fresh disk —
    /// with [`Durability::Wal`] the WAL claims page 0). This is the
    /// fallible constructor the crash tests use with
    /// [`evopt_storage::CrashingBackend`].
    pub fn create_on(base: Arc<dyn DiskBackend>, config: DatabaseConfig) -> Result<Database> {
        let (disk, injector) = Self::wire_faults(base, &config);
        let pool = BufferPool::new(Arc::clone(&disk), config.buffer_pages, config.policy);
        let catalog = Arc::new(Catalog::new(Arc::clone(&pool)));
        let wal = match config.durability {
            Durability::Off => None,
            Durability::Wal => Some(Self::bootstrap(&injector, || {
                Wal::create(Arc::clone(&disk))
            })?),
        };
        Ok(Self::assemble(disk, injector, pool, catalog, wal, config))
    }

    /// Reopen a database over a disk that already holds a WAL: run crash
    /// recovery (scan, truncate the torn tail, replay the committed
    /// prefix), rebuild the catalog from the recovered image, and return
    /// what recovery found. Requires `config.durability == Wal`.
    ///
    /// Statistics are not durable — run `ANALYZE` after recovery before
    /// trusting the optimizer's cost estimates.
    pub fn open_on(
        base: Arc<dyn DiskBackend>,
        config: DatabaseConfig,
    ) -> Result<(Database, RecoveryInfo)> {
        if config.durability != Durability::Wal {
            return Err(EvoptError::Internal(
                "open_on requires DatabaseConfig.durability = Wal".into(),
            ));
        }
        let (disk, injector) = Self::wire_faults(base, &config);
        let (wal, info) = Self::bootstrap(&injector, || Wal::open(Arc::clone(&disk)))?;
        let pool = BufferPool::new(Arc::clone(&disk), config.buffer_pages, config.policy);
        let catalog = Arc::new(Catalog::new(Arc::clone(&pool)));
        for t in &info.catalog.tables {
            let cols: Vec<Column> = t
                .columns
                .iter()
                .map(|c| {
                    let col = Column::new(c.name.clone(), c.dtype);
                    if c.nullable {
                        col
                    } else {
                        col.not_null()
                    }
                })
                .collect();
            catalog.restore_table(&t.name, Schema::new(cols), t.first_page)?;
            for i in &t.indexes {
                catalog.restore_index(
                    &i.name,
                    &t.name,
                    i.column as usize,
                    i.unique,
                    i.clustered,
                    i.meta_page,
                )?;
            }
        }
        let db = Self::assemble(disk, injector, pool, catalog, Some(wal), config);
        Ok((db, info))
    }

    /// Alias for [`Database::open_on`]: recover a crashed database.
    pub fn recover(
        base: Arc<dyn DiskBackend>,
        config: DatabaseConfig,
    ) -> Result<(Database, RecoveryInfo)> {
        Database::open_on(base, config)
    }

    fn wire_faults(
        base: Arc<dyn DiskBackend>,
        config: &DatabaseConfig,
    ) -> (Arc<dyn DiskBackend>, Option<Arc<FaultInjector>>) {
        match config.faults {
            Some(faults) => {
                let inj = Arc::new(FaultInjector::new(base, faults));
                (Arc::clone(&inj) as Arc<dyn DiskBackend>, Some(inj))
            }
            None => (base, None),
        }
    }

    /// Run a WAL bootstrap step with fault injection suspended: the chaos
    /// schedule targets steady-state operation, not construction (a fault
    /// while formatting a fresh log tests nothing interesting). The
    /// injector's previous state is restored afterwards.
    fn bootstrap<T>(
        injector: &Option<Arc<FaultInjector>>,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let was = injector.as_ref().map(|i| {
            let on = i.is_enabled();
            i.set_enabled(false);
            on
        });
        let result = f();
        if let (Some(inj), Some(on)) = (injector, was) {
            inj.set_enabled(on);
        }
        result
    }

    fn assemble(
        disk: Arc<dyn DiskBackend>,
        injector: Option<Arc<FaultInjector>>,
        pool: Arc<BufferPool>,
        catalog: Arc<Catalog>,
        wal: Option<Arc<Wal>>,
        config: DatabaseConfig,
    ) -> Database {
        if let Some(w) = &wal {
            pool.set_flush_gate(Arc::clone(w) as Arc<dyn FlushGate>);
        }
        Database {
            disk,
            injector,
            pool,
            catalog,
            wal,
            metrics: config.metrics.then(|| Arc::new(EngineMetrics::default())),
            query_log: QueryLog::new(config.query_log_cap, config.slow_query_us),
            defaults: Mutex::new(config.session()),
            commit_lock: Mutex::new(()),
            snapshot_cache: Mutex::new(None),
            checkpointing: AtomicBool::new(false),
            next_session_id: AtomicU64::new(1),
        }
    }

    /// 256-page LRU pool, System R optimizer, equi-depth ANALYZE.
    pub fn with_defaults() -> Database {
        Database::new(DatabaseConfig::default())
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn disk(&self) -> &Arc<dyn DiskBackend> {
        &self.disk
    }

    /// The fault injector, when the database was built with
    /// `config.faults`. Use it to toggle the schedule (e.g. load clean,
    /// then unleash faults) and to read the [`FaultReport`].
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// The write-ahead log, when the database runs with
    /// [`Durability::Wal`].
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Take a fuzzy checkpoint: flush all committed pages, write a
    /// checkpoint record with the full catalog image, and switch the log
    /// to a fresh chain — bounding the work the next recovery must do.
    /// A no-op when durability is off.
    pub fn checkpoint(&self) -> Result<()> {
        match &self.wal {
            Some(wal) => {
                // Hold the commit lock so the catalog image and the set of
                // committed pages are a consistent cut of the log.
                let (_c, _guard) = self.lock_commit(None);
                wal.checkpoint(&self.pool, &self.catalog_image())
            }
            None => Ok(()),
        }
    }

    /// Stage the current statement's WAL commit while the commit lock is
    /// held: append the dirty page images plus the commit record, but defer
    /// the sync. Returns the LSN the caller must sync through after
    /// releasing the lock (`None`: durability off, or nothing pending).
    fn wal_commit_locked(&self) -> Result<Option<Lsn>> {
        match &self.wal {
            Some(wal) => wal.commit_grouped(&self.pool),
            None => Ok(None),
        }
    }

    /// Make a staged commit durable, off the commit lock. Concurrent
    /// committers coalesce: whichever session syncs first covers every
    /// commit appended before it, and the rest return without touching the
    /// disk (`WalStats::coalesced_syncs`). Once durable, the statement may
    /// trigger an automatic checkpoint.
    fn wal_sync(&self, pending: Option<Lsn>) -> Result<()> {
        match (&self.wal, pending) {
            (Some(wal), Some(lsn)) => {
                wal.sync_through(lsn)?;
                self.auto_checkpoint(wal);
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Checkpoint once the log holds one buffer pool's worth of bytes
    /// (`capacity × PAGE_SIZE`). Recovery then never scans more log than
    /// the pool can hold, and the log never outgrows the pages it covers.
    /// Runs with no lock held; one session wins the claim and the others
    /// carry on. The caller's commit is already durable, so a failed
    /// checkpoint is not the statement's error: the WAL counts it
    /// (`WalStats::checkpoint_failures`) and the next trigger retries.
    fn auto_checkpoint(&self, wal: &Wal) {
        let bound = (self.pool.capacity() * PAGE_SIZE) as u64;
        if wal.log_bytes() < bound
            || self
                .checkpointing
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
        {
            return;
        }
        // A sibling may have cut the log between the size check and the
        // claim.
        if wal.log_bytes() >= bound {
            let _ = self.checkpoint();
        }
        self.checkpointing.store(false, Ordering::SeqCst);
    }

    /// Snapshot the live catalog as the WAL's logical image.
    fn catalog_image(&self) -> CatalogImage {
        CatalogImage {
            tables: self
                .catalog
                .tables()
                .iter()
                .map(|t| Self::table_image(t))
                .collect(),
        }
    }

    fn table_image(info: &TableInfo) -> TableImage {
        TableImage {
            name: info.name.clone(),
            columns: info
                .schema
                .columns()
                .iter()
                .map(|c| ColumnImage {
                    name: c.name.clone(),
                    dtype: c.dtype,
                    nullable: c.nullable,
                })
                .collect(),
            first_page: info.heap.first_page(),
            indexes: info
                .indexes()
                .iter()
                .map(|i| Self::index_image(i))
                .collect(),
        }
    }

    fn index_image(info: &evopt_catalog::IndexInfo) -> IndexImage {
        IndexImage {
            name: info.name.clone(),
            column: info.column as u32,
            unique: info.unique,
            clustered: info.clustered,
            meta_page: info.btree.meta_page(),
        }
    }

    /// Open a new session over this database. Sessions are cheap handles:
    /// each owns a copy of the instance defaults (taken now) and may retune
    /// its knobs without affecting any other session. Any number of
    /// sessions execute concurrently.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    /// Copy of the current instance defaults (what a new session starts
    /// from, and what the [`Database`]-level convenience API runs with).
    pub fn session_defaults(&self) -> SessionConfig {
        let _r = lockorder::acquire(lockorder::CONFIG);
        *self.defaults.lock()
    }

    fn update_defaults(&self, f: impl FnOnce(&mut SessionConfig)) {
        let _r = lockorder::acquire(lockorder::CONFIG);
        f(&mut self.defaults.lock());
    }

    /// Replace the session-default governor limits for subsequent
    /// [`Database::execute`] calls.
    pub fn set_governor(&self, governor: GovernorConfig) {
        self.update_defaults(|c| c.governor = governor);
    }

    /// Change the executor batch size for subsequent queries (batch-size
    /// sweeps; 1 degenerates to tuple-at-a-time).
    pub fn set_batch_rows(&self, batch_rows: usize) {
        self.update_defaults(|c| c.batch_rows = batch_rows.max(1));
    }

    /// Current optimizer config (copy).
    pub fn optimizer_config(&self) -> OptimizerConfig {
        self.session_defaults().optimizer
    }

    /// Swap the join-enumeration strategy (T1/F1/F2 sweeps).
    pub fn set_strategy(&self, strategy: Strategy) {
        self.update_defaults(|c| c.optimizer.strategy = strategy);
    }

    /// Swap the cost model (ablations, F4 buffer sweeps).
    pub fn set_cost_model(&self, model: CostModel) {
        self.update_defaults(|c| c.optimizer.cost_model = model);
    }

    /// Toggle interesting-order tracking (F3 ablation).
    pub fn set_track_orders(&self, on: bool) {
        self.update_defaults(|c| c.optimizer.track_interesting_orders = on);
    }

    /// Toggle the algebraic rewrites (pushdown/folding ablation).
    pub fn set_rewrites(&self, on: bool) {
        self.update_defaults(|c| c.optimizer.enable_rewrites = on);
    }

    /// Swap the ANALYZE configuration (T3 sweeps).
    pub fn set_analyze_config(&self, cfg: AnalyzeConfig) {
        self.update_defaults(|c| c.analyze = cfg);
    }

    /// Toggle runtime plan verification for subsequent queries (debug
    /// builds always verify; this opts release builds in).
    pub fn set_verify_plans(&self, on: bool) {
        self.update_defaults(|c| c.verify_plans = on);
    }

    /// Toggle columnar execution for subsequent queries (row-vs-columnar
    /// differential testing; on by default).
    pub fn set_columnar(&self, on: bool) {
        self.update_defaults(|c| c.columnar = on);
    }

    /// Toggle statement-span recording for subsequent statements (the
    /// span differential suite's knob; on by default).
    pub fn set_spans(&self, on: bool) {
        self.update_defaults(|c| c.spans = on);
    }

    /// A frozen catalog snapshot for read statements, cached by catalog
    /// version so steady-state reads don't re-clone the namespace maps.
    /// Acquisition latency (cache hit or rebuild) lands in the
    /// `snapshot_acquire_us` histogram when metrics are on.
    fn read_snapshot(&self) -> Arc<Catalog> {
        match &self.metrics {
            Some(m) => {
                let started = Instant::now();
                let snap = self.read_snapshot_inner();
                let us = started.elapsed().as_micros() as u64;
                m.snapshot_acquire_us.observe(us);
                evopt_obs::global().snapshot_acquire_us.observe(us);
                snap
            }
            None => self.read_snapshot_inner(),
        }
    }

    fn read_snapshot_inner(&self) -> Arc<Catalog> {
        let version = self.catalog.version();
        let _r = lockorder::acquire(lockorder::SNAPSHOT_CACHE);
        let mut cache = self.snapshot_cache.lock();
        match cache.as_ref() {
            Some((v, snap)) if *v == version => Arc::clone(snap),
            _ => {
                let snap = self.catalog.snapshot();
                *cache = Some((snap.version(), Arc::clone(&snap)));
                snap
            }
        }
    }

    /// Acquire the commit lock through the timed wrapper: rank witness,
    /// timed wait, histogram stamp. Every commit site goes through here —
    /// no call site can take the lock without recording its wait.
    fn lock_commit(
        &self,
        ctx: Option<&StatementCtx>,
    ) -> (lockorder::RankGuard, parking_lot::MutexGuard<'_, ()>) {
        let rank = lockorder::acquire(lockorder::COMMIT);
        match &self.metrics {
            Some(m) => {
                let started = Instant::now();
                let guard = self.commit_lock.lock();
                let us = started.elapsed().as_micros() as u64;
                m.commit_lock_wait_us.observe(us);
                evopt_obs::global().commit_lock_wait_us.observe(us);
                if let Some(s) = ctx.and_then(|c| c.session_metrics.as_ref()) {
                    s.commit_lock_wait_us.observe(us);
                }
                (rank, guard)
            }
            None => (rank, self.commit_lock.lock()),
        }
    }

    /// The statement context the [`Database`]-level API runs with: current
    /// instance defaults, no per-session metrics, session id 0.
    fn default_ctx(&self) -> StatementCtx {
        StatementCtx {
            cfg: self.session_defaults(),
            catalog: self.read_snapshot(),
            session_id: 0,
            session_metrics: None,
        }
    }

    /// Bind a SELECT against the statement's catalog snapshot and, when
    /// verification is active, run the post-bind verifier pass over the
    /// freshly bound logical plan. With a span, the bind and verify
    /// phases are timed separately.
    fn bind_checked(
        &self,
        ctx: &StatementCtx,
        sel: &evopt_sql::ast::SelectStmt,
        mut span: Option<&mut SpanState>,
    ) -> Result<LogicalPlan> {
        let catalog = Arc::clone(&ctx.catalog);
        let provider =
            move |table: &str| -> Result<Schema> { Ok(catalog.table(table)?.schema.clone()) };
        let bind_started = Instant::now();
        let logical = bind_select(sel, &provider)?;
        if let Some(s) = span.as_mut() {
            s.push(PhaseSpan::new(
                Phase::Bind,
                bind_started.elapsed().as_micros() as u64,
            ));
        }
        if ctx.verifying() {
            let verify_started = Instant::now();
            let verdict = verify::verify_logical(&logical, VerifyPhase::PostBind).into_result();
            if let Some(s) = span.as_mut() {
                s.push(PhaseSpan::new(
                    Phase::Verify,
                    verify_started.elapsed().as_micros() as u64,
                ));
            }
            if let Err(e) = verdict {
                self.record_ctx(ctx, |m| m.verify_failures.inc());
                return Err(e);
            }
        }
        Ok(logical)
    }

    /// Execute any statement.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let ctx = self.default_ctx();
        self.execute_sql_ctx(&ctx, sql)
    }

    /// Parse and execute under `ctx`, assembling the statement span
    /// (parse phase included) when spans are on, and counting the
    /// statement and its outcome.
    fn execute_sql_ctx(&self, ctx: &StatementCtx, sql: &str) -> Result<QueryResult> {
        // Stamped before parse so every phase is a sub-interval of the
        // statement total.
        let mut state = ctx.cfg.spans.then(|| SpanState::new(ctx.session_id));
        let parse_started = Instant::now();
        let parsed = parse(sql);
        if let Some(s) = &mut state {
            s.push(PhaseSpan::new(
                Phase::Parse,
                parse_started.elapsed().as_micros() as u64,
            ));
        }
        let result = match parsed {
            Ok(stmt) => self.execute_with_ctx(ctx, &stmt, sql, state.as_mut()),
            Err(e) => Err(e),
        };
        self.record_ctx(ctx, |m| {
            m.statements.inc();
            if result.is_err() {
                m.statement_errors.inc();
            }
        });
        result
    }

    /// Run a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Tuple>> {
        match self.execute(sql)? {
            QueryResult::Rows { rows, .. } => Ok(rows),
            other => Err(EvoptError::Execution(format!(
                "expected a SELECT, statement returned {other:?}"
            ))),
        }
    }

    /// Run a SELECT instrumented: rows plus per-operator
    /// estimate-vs-actual [`QueryMetrics`].
    pub fn query_with_metrics(&self, sql: &str) -> Result<(Vec<Tuple>, QueryMetrics)> {
        let ctx = self.default_ctx();
        let (_, physical) = self.plan_sql_ctx(&ctx, sql)?;
        run_collect_instrumented(&physical, &self.exec_env(&ctx))
    }

    /// Run a SELECT under explicit resource governance.
    ///
    /// The rows (or the typed kill error — `Canceled`,
    /// `ResourceExhausted`, `Io`, `Corruption`) come back alongside the
    /// metrics the query accumulated up to that point, so a killed query
    /// still reports what it did. Metrics are `None` only when the
    /// statement failed before execution (parse/bind/optimize).
    pub fn query_governed(
        &self,
        sql: &str,
        governor: GovernorConfig,
        token: CancellationToken,
    ) -> (Result<Vec<Tuple>>, Option<QueryMetrics>) {
        let ctx = self.default_ctx();
        self.query_governed_ctx(&ctx, sql, governor, token)
    }

    fn query_governed_ctx(
        &self,
        ctx: &StatementCtx,
        sql: &str,
        governor: GovernorConfig,
        token: CancellationToken,
    ) -> (Result<Vec<Tuple>>, Option<QueryMetrics>) {
        let physical = match self.plan_sql_ctx(ctx, sql) {
            Ok((_, physical)) => physical,
            Err(e) => return (Err(e), None),
        };
        let (rows, metrics) = run_collect_governed(&physical, &self.exec_env(ctx), governor, token);
        if matches!(
            &rows,
            Err(EvoptError::Canceled(_) | EvoptError::ResourceExhausted(_))
        ) {
            self.record_ctx(ctx, |m| m.governor_kills.inc());
        }
        (rows, Some(metrics))
    }

    /// Run a SELECT instrumented and return the full [`QueryResult::Rows`]
    /// with its `metrics` field populated (the programmatic counterpart of
    /// `EXPLAIN ANALYZE`).
    pub fn execute_analyzed(&self, sql: &str) -> Result<QueryResult> {
        let ctx = self.default_ctx();
        let (_, physical) = self.plan_sql_ctx(&ctx, sql)?;
        let (rows, metrics) = run_collect_instrumented(&physical, &self.exec_env(&ctx))?;
        Ok(QueryResult::Rows {
            schema: physical.schema.clone(),
            rows,
            metrics: Some(Box::new(metrics)),
        })
    }

    /// EXPLAIN text for a SELECT (logical and physical plans).
    pub fn explain(&self, sql: &str) -> Result<String> {
        let ctx = self.default_ctx();
        let (logical, physical) = self.plan_sql_ctx(&ctx, sql)?;
        Ok(format!(
            "== logical ==\n{}== physical ({}) ==\n{}",
            logical.display_indent(),
            ctx.cfg.optimizer.strategy.name(),
            physical.display_indent()
        ))
    }

    /// `EXPLAIN ANALYZE` text for a SELECT: the physical plan annotated
    /// with per-operator estimated vs. actual rows, q-error, elapsed time,
    /// and pool/disk counters. Executes the query.
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        match self.execute(&format!("EXPLAIN ANALYZE {sql}"))? {
            QueryResult::Explained(text) => Ok(text),
            other => Err(EvoptError::Execution(format!(
                "EXPLAIN ANALYZE returned {other:?}"
            ))),
        }
    }

    /// Parse + bind + optimize a SELECT, returning both plans.
    pub fn plan_sql(&self, sql: &str) -> Result<(LogicalPlan, PhysicalPlan)> {
        let ctx = self.default_ctx();
        self.plan_sql_ctx(&ctx, sql)
    }

    fn plan_sql_ctx(&self, ctx: &StatementCtx, sql: &str) -> Result<(LogicalPlan, PhysicalPlan)> {
        match parse(sql)? {
            Statement::Select(sel) => {
                let logical = self.bind_checked(ctx, &sel, None)?;
                let physical = self.optimize_full(ctx, &logical, false)?.0;
                Ok((logical, physical))
            }
            other => Err(EvoptError::Plan(format!(
                "plan_sql expects a SELECT, got {other:?}"
            ))),
        }
    }

    /// Optimize a bound logical plan with the current configuration.
    pub fn optimize(&self, logical: &LogicalPlan) -> Result<PhysicalPlan> {
        let ctx = self.default_ctx();
        Ok(self.optimize_full(&ctx, logical, false)?.0)
    }

    /// Apply `f` to the per-instance registry, the process-global one, and
    /// — when the statement runs through a [`Session`] — that session's
    /// own registry. A no-op when metrics are disabled.
    fn record_ctx(&self, ctx: &StatementCtx, f: impl Fn(&EngineMetrics)) {
        if let Some(m) = &self.metrics {
            f(m);
            f(evopt_obs::global());
            if let Some(s) = &ctx.session_metrics {
                f(s);
            }
        }
    }

    /// Optimize, recording optimizer metrics and (optionally) the full
    /// search journal. Returns the plan, the trace (always present when
    /// `want_trace` or metrics are on), and the optimize wall time in µs.
    ///
    /// When only metrics are on the sink is counts-only: exact
    /// considered/pruned totals, zero event storage.
    fn optimize_full(
        &self,
        ctx: &StatementCtx,
        logical: &LogicalPlan,
        want_trace: bool,
    ) -> Result<(PhysicalPlan, Option<SearchTrace>, u64)> {
        let mut cfg = ctx.cfg.optimizer;
        cfg.verify = cfg.verify || ctx.cfg.verify_plans;
        let verifying = cfg.verify || cfg!(debug_assertions);
        let mut optimizer = Optimizer::new(cfg);
        if want_trace {
            optimizer = optimizer.with_trace(TraceSink::bounded(DEFAULT_TRACE_EVENTS));
        } else if self.metrics.is_some() {
            optimizer = optimizer.with_trace(TraceSink::counts_only());
        }
        let started = Instant::now();
        let physical = match optimizer.optimize(logical, &ctx.catalog) {
            Ok(p) => {
                if verifying {
                    self.record_ctx(ctx, |m| m.plans_verified.inc());
                }
                p
            }
            Err(e) => {
                if verifying && e.message().contains("plan verification failed") {
                    self.record_ctx(ctx, |m| m.verify_failures.inc());
                }
                return Err(e);
            }
        };
        let optimize_us = started.elapsed().as_micros() as u64;
        let trace = optimizer.take_trace().map(TraceSink::into_trace);
        if let Some(t) = &trace {
            self.record_ctx(ctx, |m| {
                m.optimize_calls.inc();
                m.plans_considered.add(t.considered);
                m.plans_pruned.add(t.pruned);
                m.optimize_time_us.observe(optimize_us);
            });
        }
        Ok((physical, trace, optimize_us))
    }

    /// Post-execution bookkeeping for a successful SELECT: query counters,
    /// execute-time histogram, slow-query flagging, and the query-log
    /// entry.
    #[allow(clippy::too_many_arguments)]
    fn finish_select(
        &self,
        ctx: &StatementCtx,
        sql: &str,
        physical: &PhysicalPlan,
        actual_rows: u64,
        optimize_us: u64,
        execute_us: u64,
        io: &IoSnapshot,
        span: Option<StatementSpan>,
    ) {
        if self.metrics.is_none() {
            return;
        }
        let slow = optimize_us + execute_us >= self.query_log.slow_threshold_us();
        self.record_ctx(ctx, |m| {
            m.queries.inc();
            m.execute_time_us.observe(execute_us);
            if slow {
                m.slow_queries.inc();
            }
        });
        let _r = lockorder::acquire(lockorder::OBS);
        self.query_log.record(QueryLogEntry {
            sql: sql.to_string(),
            session_id: ctx.session_id,
            plan_digest: physical.digest_hex(),
            est_rows: physical.est_rows,
            actual_rows,
            optimize_us,
            execute_us,
            pages_read: io.reads,
            pages_written: io.writes,
            slow: false, // stamped by QueryLog::record against its threshold
            span,
        });
    }

    /// Point-in-time metrics for this instance. Storage counters come from
    /// the live pool/disk/injector (authoritative lifetime totals, DDL and
    /// loads included); optimizer/executor/engine counters from the query
    /// path. All zeros when `config.metrics` is off.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = match &self.metrics {
            Some(m) => m.snapshot(),
            None => EngineMetrics::default().snapshot(),
        };
        let pool = self.pool.stats();
        snap.pool_hits = pool.hits;
        snap.pool_misses = pool.misses;
        snap.pool_evictions = pool.evictions;
        snap.pool_retries = pool.retries;
        snap.pool_corruptions = pool.corruptions;
        snap.pool_miss_io_us = self.pool.miss_io_histogram();
        snap.pool_load_wait_us = self.pool.load_wait_histogram();
        let io = self.disk.snapshot();
        snap.disk_reads = io.reads;
        snap.disk_writes = io.writes;
        if let Some(inj) = &self.injector {
            let report = inj.report();
            snap.faults_injected = report.total();
            snap.silent_corruptions = report.silent_corruptions();
        }
        if let Some(wal) = &self.wal {
            let w = wal.stats();
            snap.wal_records_written = w.records_written;
            snap.wal_bytes = w.bytes_written;
            snap.checkpoints = w.checkpoints;
            snap.checkpoint_failures = w.checkpoint_failures;
            snap.recoveries = w.recoveries;
            snap.recovery_replayed_records = w.replayed_records;
            snap.wal_coalesced_syncs = w.coalesced_syncs;
            snap.wal_sync_wait_us = wal.sync_wait_histogram();
        }
        snap
    }

    /// Prometheus text exposition of [`Database::metrics_snapshot`].
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// The ring buffer of recent queries (`SHOW QUERY LOG`).
    pub fn query_log(&self) -> &QueryLog {
        &self.query_log
    }

    /// Change the slow-query threshold for subsequent queries.
    pub fn set_slow_query_threshold_us(&self, us: u64) {
        self.query_log.set_slow_threshold_us(us);
    }

    /// Run a SELECT with the optimizer's full search journal attached.
    /// The programmatic counterpart of `EXPLAIN TRACE`: same plan, same
    /// rows as [`Database::query`] — tracing only observes.
    pub fn query_traced(&self, sql: &str) -> Result<TracedQuery> {
        let ctx = self.default_ctx();
        match parse(sql)? {
            Statement::Select(sel) => {
                let logical = self.bind_checked(&ctx, &sel, None)?;
                let (plan, trace, _) = self.optimize_full(&ctx, &logical, true)?;
                let trace = trace
                    .ok_or_else(|| EvoptError::Internal("trace requested but absent".into()))?;
                let rows = run_collect(&plan, &self.exec_env(&ctx))?;
                Ok(TracedQuery { rows, plan, trace })
            }
            other => Err(EvoptError::Plan(format!(
                "query_traced expects a SELECT, got {other:?}"
            ))),
        }
    }

    /// Execute a physical plan.
    pub fn run_plan(&self, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
        run_collect(plan, &self.exec_env(&self.default_ctx()))
    }

    /// Execute a physical plan with per-operator instrumentation.
    pub fn run_plan_instrumented(&self, plan: &PhysicalPlan) -> Result<(Vec<Tuple>, QueryMetrics)> {
        run_collect_instrumented(plan, &self.exec_env(&self.default_ctx()))
    }

    fn exec_env(&self, ctx: &StatementCtx) -> ExecEnv {
        let buffer_pages = ctx.cfg.optimizer.cost_model.buffer_pages;
        let env = ExecEnv::new(Arc::clone(&ctx.catalog), buffer_pages)
            .with_batch_rows(ctx.cfg.batch_rows)
            .with_columnar(ctx.cfg.columnar);
        match &self.metrics {
            Some(m) => env.with_metrics(Arc::clone(m)),
            None => env,
        }
    }

    /// Run a statement and report the physical I/O it performed.
    pub fn measured(&self, sql: &str) -> Result<(QueryResult, IoSnapshot)> {
        let before = self.disk.snapshot();
        let result = self.execute(sql)?;
        let after = self.disk.snapshot();
        Ok((result, after.since(&before)))
    }

    /// Run a statement and report the buffer-pool traffic it caused.
    pub fn measured_pool(&self, sql: &str) -> Result<(QueryResult, PoolSnapshot)> {
        let before = self.pool.stats();
        let result = self.execute(sql)?;
        let after = self.pool.stats();
        Ok((result, after.since(&before)))
    }

    /// Bulk-insert pre-built tuples (index-maintaining). One commit for
    /// the whole batch, serialized with other writers like any statement.
    pub fn insert_tuples(&self, table: &str, tuples: &[Tuple]) -> Result<usize> {
        let pending = {
            let (_c, _guard) = self.lock_commit(None);
            let info = self.catalog.table(table)?;
            for t in tuples {
                self.insert_one(&info, t)?;
            }
            self.wal_commit_locked()?
        };
        self.wal_sync(pending)?;
        Ok(tuples.len())
    }

    fn insert_one(&self, info: &Arc<TableInfo>, tuple: &Tuple) -> Result<()> {
        if tuple.len() != info.schema.len() {
            return Err(EvoptError::Execution(format!(
                "insert arity {} does not match table '{}' ({} columns)",
                tuple.len(),
                info.name,
                info.schema.len()
            )));
        }
        for (v, col) in tuple.values().iter().zip(info.schema.columns()) {
            match v.data_type() {
                None => {
                    if !col.nullable {
                        return Err(EvoptError::Execution(format!(
                            "NULL in NOT NULL column '{}'",
                            col.name
                        )));
                    }
                }
                Some(dt) => {
                    if dt.unify(col.dtype) != Some(col.dtype) {
                        return Err(EvoptError::Execution(format!(
                            "type mismatch for column '{}': expected {}, got {}",
                            col.name, col.dtype, dt
                        )));
                    }
                }
            }
        }
        let rid = info.heap.insert(tuple)?;
        for idx in info.indexes() {
            let key = tuple.value(idx.column)?;
            if !key.is_null() {
                idx.btree.insert(key, rid)?;
            }
        }
        Ok(())
    }

    /// The rows an UPDATE or DELETE acts on, with their rids, found along
    /// the cheapest access path the predicate allows — the choice a
    /// single-table SELECT with the same WHERE clause gets. An index path
    /// only narrows the candidates: every fetched row is still tested
    /// against the whole predicate, so the victims are exactly the rows a
    /// sequential scan would match. Without a sargable conjunct (or
    /// without a predicate) the heap is scanned.
    fn dml_victims(
        ctx: &StatementCtx,
        info: &Arc<TableInfo>,
        predicate: Option<&AstExpr>,
    ) -> Result<Vec<(Rid, Tuple)>> {
        let predicate = match predicate {
            Some(p) => Some(bind_row_expr(p, &info.schema)?),
            None => None,
        };
        let path = match &predicate {
            Some(p) => {
                cheapest_access_path(info, &p.split_conjuncts(), &ctx.cfg.optimizer.cost_model)?
            }
            None => PathKind::SeqScan { filter: None },
        };
        let hit = |tuple: &Tuple| match &predicate {
            Some(p) => p.eval_predicate(tuple),
            None => Ok(true),
        };
        let mut victims = Vec::new();
        match path {
            PathKind::IndexScan { index, range, .. }
                if !matches!(
                    (&range.low, &range.high),
                    (Bound::Unbounded, Bound::Unbounded)
                ) =>
            {
                let idx = info
                    .indexes()
                    .into_iter()
                    .find(|i| i.name == index)
                    .ok_or_else(|| EvoptError::Internal(format!("index '{index}' vanished")))?;
                for item in idx.btree.range(range.low.as_ref(), range.high.as_ref())? {
                    let (_, rid) = item?;
                    if let Some(tuple) = info.heap.get(rid)? {
                        if hit(&tuple)? {
                            victims.push((rid, tuple));
                        }
                    }
                }
            }
            _ => {
                for item in info.heap.scan() {
                    let (rid, tuple) = item?;
                    if hit(&tuple)? {
                        victims.push((rid, tuple));
                    }
                }
            }
        }
        Ok(victims)
    }

    /// Whether a statement mutates the database (and therefore must hold
    /// the commit lock). Everything else runs lock-free on snapshots.
    fn is_write(stmt: &Statement) -> bool {
        matches!(
            stmt,
            Statement::CreateTable { .. }
                | Statement::CreateIndex { .. }
                | Statement::Insert { .. }
                | Statement::Delete { .. }
                | Statement::Update { .. }
                | Statement::DropTable { .. }
                | Statement::Analyze { .. }
        )
    }

    /// Execute one parsed statement under a statement context.
    ///
    /// Writes serialize through the commit lock for apply + WAL append,
    /// then sync *after* releasing it: a session syncing the log covers
    /// every commit appended before it, so back-to-back writers share
    /// fsyncs (group commit). Reads never take the commit lock.
    fn execute_with_ctx(
        &self,
        ctx: &StatementCtx,
        stmt: &Statement,
        sql: &str,
        mut span: Option<&mut SpanState>,
    ) -> Result<QueryResult> {
        if Self::is_write(stmt) {
            let commit_started = Instant::now();
            let wal_before = self.wal.as_ref().map(|w| w.stats());
            let (result, pending) = {
                let (_c, _guard) = self.lock_commit(Some(ctx));
                let result = self.apply_write(ctx, stmt)?;
                let pending = self.wal_commit_locked()?;
                (result, pending)
            };
            self.wal_sync(pending)?;
            if let Some(s) = span.as_deref_mut() {
                let mut phase =
                    PhaseSpan::new(Phase::Commit, commit_started.elapsed().as_micros() as u64);
                if let (Some(before), Some(wal)) = (wal_before, self.wal.as_ref()) {
                    // Deltas are approximate under concurrency (the WAL
                    // counters are instance-wide), exact when this writer
                    // is alone.
                    let after = wal.stats();
                    phase = phase
                        .counter(
                            "wal_records",
                            after.records_written.saturating_sub(before.records_written),
                        )
                        .counter(
                            "wal_bytes",
                            after.bytes_written.saturating_sub(before.bytes_written),
                        );
                }
                s.push(phase);
                s.finish();
            }
            return Ok(result);
        }
        match stmt {
            Statement::Select(sel) => {
                let logical = self.bind_checked(ctx, sel, span.as_deref_mut())?;
                let (physical, search_trace, optimize_us) =
                    self.optimize_full(ctx, &logical, false)?;
                if let Some(s) = span.as_deref_mut() {
                    let mut phase = PhaseSpan::new(Phase::Optimize, optimize_us);
                    if let Some(t) = &search_trace {
                        phase = phase
                            .counter("considered", t.considered)
                            .counter("pruned", t.pruned);
                    }
                    s.push(phase);
                }
                let governor = ctx.cfg.governor;
                let pool_before = self.pool.stats();
                let io_before = self.disk.snapshot();
                let started = Instant::now();
                let outcome = if governor.is_unlimited() {
                    run_collect(&physical, &self.exec_env(ctx)).map(|rows| (rows, None))
                } else {
                    // Session-governed SELECT: run under the limits; the
                    // instrumented metrics ride along on success.
                    let (rows, metrics) = run_collect_governed(
                        &physical,
                        &self.exec_env(ctx),
                        governor,
                        CancellationToken::new(),
                    );
                    if matches!(
                        &rows,
                        Err(EvoptError::Canceled(_) | EvoptError::ResourceExhausted(_))
                    ) {
                        self.record_ctx(ctx, |m| m.governor_kills.inc());
                    }
                    rows.map(|rows| (rows, Some(Box::new(metrics))))
                };
                let execute_us = started.elapsed().as_micros() as u64;
                let (rows, metrics) = outcome?;
                let pool_delta = self.pool.stats().since(&pool_before);
                let io_delta = self.disk.snapshot().since(&io_before);
                let finished_span = span.as_deref_mut().map(|s| {
                    s.push(
                        PhaseSpan::new(Phase::Execute, execute_us)
                            .counter("rows", rows.len() as u64)
                            .counter("pool_hits", pool_delta.hits)
                            .counter("pool_misses", pool_delta.misses)
                            .counter("pages_read", io_delta.reads)
                            .counter("pages_written", io_delta.writes),
                    );
                    s.finish();
                    s.span.clone()
                });
                self.finish_select(
                    ctx,
                    sql,
                    &physical,
                    rows.len() as u64,
                    optimize_us,
                    execute_us,
                    &io_delta,
                    finished_span,
                );
                self.record_ctx(ctx, |m| {
                    m.pool_hits.add(pool_delta.hits);
                    m.pool_misses.add(pool_delta.misses);
                    m.pool_evictions.add(pool_delta.evictions);
                    m.pool_retries.add(pool_delta.retries);
                    m.pool_corruptions.add(pool_delta.corruptions);
                    m.disk_reads.add(io_delta.reads);
                    m.disk_writes.add(io_delta.writes);
                });
                Ok(QueryResult::Rows {
                    schema: physical.schema.clone(),
                    rows,
                    metrics,
                })
            }
            Statement::Explain {
                analyze,
                trace,
                verify,
                inner,
            } => match &**inner {
                Statement::Select(sel) => {
                    let logical = self.bind_checked(ctx, sel, span.as_deref_mut())?;
                    let (physical, search_trace, optimize_us) =
                        self.optimize_full(ctx, &logical, *trace)?;
                    if let Some(s) = span.as_deref_mut() {
                        let mut phase = PhaseSpan::new(Phase::Optimize, optimize_us);
                        if let Some(t) = &search_trace {
                            phase = phase
                                .counter("considered", t.considered)
                                .counter("pruned", t.pruned);
                        }
                        s.push(phase);
                    }
                    let mut text = format!(
                        "== logical ==\n{}== physical ({}) ==\n{}",
                        logical.display_indent(),
                        ctx.cfg.optimizer.strategy.name(),
                        physical.display_indent()
                    );
                    if *trace {
                        if let Some(t) = &search_trace {
                            text.push_str(&format!("== trace ({}) ==\n{}", t.strategy, t.render()));
                        }
                    }
                    if *verify {
                        text.push_str(&self.render_verify(ctx, &logical, &physical));
                    }
                    if *analyze {
                        let exec_started = Instant::now();
                        let (rows, metrics) =
                            run_collect_instrumented(&physical, &self.exec_env(ctx))?;
                        let execute_us = exec_started.elapsed().as_micros() as u64;
                        text.push_str(&format!(
                            "== measured ==\n{}rows: {}\npage reads: {}\npage writes: {}\n\
                             plan digest: {}\noptimize time: {optimize_us}µs\n",
                            metrics.render(),
                            rows.len(),
                            metrics.disk_reads,
                            metrics.disk_writes,
                            physical.digest_hex()
                        ));
                        if let Some(s) = span {
                            let batches =
                                metrics.operators.first().map(|o| o.next_calls).unwrap_or(0);
                            s.push(
                                PhaseSpan::new(Phase::Execute, execute_us)
                                    .counter("rows", rows.len() as u64)
                                    .counter("batches", batches)
                                    .counter("pool_hits", metrics.pool_hits)
                                    .counter("pool_misses", metrics.pool_misses),
                            );
                            s.finish();
                            text.push_str(&format!("== phases ==\n{}", s.span.render_table()));
                        }
                    }
                    Ok(QueryResult::Explained(text))
                }
                other => Err(EvoptError::Plan(format!(
                    "EXPLAIN supports SELECT only, got {other:?}"
                ))),
            },
            Statement::ShowQueryLog => Ok(self.render_query_log()),
            other => Err(EvoptError::Internal(format!(
                "write statement {other:?} escaped the commit path"
            ))),
        }
    }

    /// Apply one mutating statement against the *live* catalog. Caller
    /// holds the commit lock and stages the WAL commit afterwards.
    fn apply_write(&self, ctx: &StatementCtx, stmt: &Statement) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let cols: Vec<Column> = columns
                    .iter()
                    .map(|c| {
                        let col = Column::new(c.name.clone(), c.dtype);
                        if c.nullable {
                            col
                        } else {
                            col.not_null()
                        }
                    })
                    .collect();
                let info = self.catalog.create_table(name, Schema::new(cols))?;
                if let Some(wal) = &self.wal {
                    wal.log_create_table(&Self::table_image(&info))?;
                }
                Ok(QueryResult::Ok)
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                unique,
                clustered,
            } => {
                if *clustered {
                    self.verify_heap_sorted(table, column)?;
                }
                let info = self
                    .catalog
                    .create_index(name, table, column, *unique, *clustered)?;
                if let Some(wal) = &self.wal {
                    wal.log_create_index(&info.table, &Self::index_image(&info))?;
                }
                Ok(QueryResult::Ok)
            }
            Statement::Insert { table, rows } => {
                let info = self.catalog.table(table)?;
                let empty = Schema::empty();
                let blank = Tuple::new(vec![]);
                let mut n = 0;
                for row in rows {
                    let mut values = Vec::with_capacity(row.len());
                    for e in row {
                        let bound = bind_const(e, &empty)?;
                        values.push(bound.eval(&blank)?);
                    }
                    self.insert_one(&info, &Tuple::new(values))?;
                    n += 1;
                }
                Ok(QueryResult::Affected(n))
            }
            Statement::Delete { table, predicate } => {
                let info = self.catalog.table(table)?;
                let victims = Self::dml_victims(ctx, &info, predicate.as_ref())?;
                for (rid, tuple) in &victims {
                    info.heap.delete(*rid)?;
                    for idx in info.indexes() {
                        let key = tuple.value(idx.column)?;
                        if !key.is_null() {
                            idx.btree.delete(key, *rid)?;
                        }
                    }
                }
                Ok(QueryResult::Affected(victims.len()))
            }
            Statement::Update {
                table,
                sets,
                predicate,
            } => {
                let info = self.catalog.table(table)?;
                let mut assignments = Vec::with_capacity(sets.len());
                for (col, value) in sets {
                    let ordinal = info.schema.resolve(None, col)?;
                    assignments.push((ordinal, bind_row_expr(value, &info.schema)?));
                }
                // Two phases: collect matches first, then rewrite — so the
                // new rows are never re-visited by the same scan.
                let victims = Self::dml_victims(ctx, &info, predicate.as_ref())?;
                for (rid, old) in &victims {
                    let mut values = old.values().to_vec();
                    for (ordinal, expr) in &assignments {
                        values[*ordinal] = expr.eval(old)?;
                    }
                    let new = Tuple::new(values);
                    // Delete + reinsert keeps heap and indexes consistent
                    // without in-place size games.
                    info.heap.delete(*rid)?;
                    for idx in info.indexes() {
                        let key = old.value(idx.column)?;
                        if !key.is_null() {
                            idx.btree.delete(key, *rid)?;
                        }
                    }
                    self.insert_one(&info, &new)?;
                }
                Ok(QueryResult::Affected(victims.len()))
            }
            Statement::Analyze { table } => {
                // Statistics install copy-on-write: readers planning
                // against a snapshot keep the estimates they started with.
                let cfg = ctx.cfg.analyze;
                match table {
                    Some(t) => {
                        let info = self.catalog.table(t)?;
                        let stats = compute_stats(&info, &cfg)?;
                        self.catalog.install_stats(&info.name, stats)?;
                    }
                    None => {
                        for t in self.catalog.tables() {
                            let stats = compute_stats(&t, &cfg)?;
                            self.catalog.install_stats(&t.name, stats)?;
                        }
                    }
                }
                Ok(QueryResult::Ok)
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(name)?;
                if let Some(wal) = &self.wal {
                    wal.log_drop_table(&name.to_ascii_lowercase())?;
                }
                Ok(QueryResult::Ok)
            }
            other => Err(EvoptError::Internal(format!(
                "read statement {other:?} routed to the write path"
            ))),
        }
    }

    /// `EXPLAIN VERIFY`: run the verifier over both plans plus the SQL
    /// lints, reporting rather than erroring, and count the outcomes in
    /// the metrics registry.
    fn render_verify(
        &self,
        ctx: &StatementCtx,
        logical: &LogicalPlan,
        physical: &PhysicalPlan,
    ) -> String {
        let post_bind = verify::verify_logical(logical, VerifyPhase::PostBind);
        let post_phys =
            verify::verify_physical(physical, Some(&ctx.catalog), VerifyPhase::PostPhysical);
        let lints = verify::lint_logical(logical);
        let mut text = String::from("== verify ==\n");
        text.push_str(&post_bind.render());
        text.push_str(&post_phys.render());
        if lints.is_empty() {
            text.push_str("lints: none\n");
        } else {
            text.push_str(&format!("lints ({}):\n", lints.len()));
            for l in &lints {
                text.push_str(&format!("  {l}\n"));
            }
        }
        let failures = (post_bind.issues.len() + post_phys.issues.len()) as u64;
        let lint_count = lints.len() as u64;
        self.record_ctx(ctx, |m| {
            m.plans_verified.inc();
            m.verify_failures.add(failures);
            m.lints_flagged.add(lint_count);
        });
        text
    }

    /// `SHOW QUERY LOG`: recent queries, newest first, as a rows result.
    /// `session_id` attributes each entry to the session that ran it
    /// (0 = the database-level implicit session); `phases` is the
    /// statement span's compact rendering, empty when spans were off.
    fn render_query_log(&self) -> QueryResult {
        let schema = Schema::new(vec![
            Column::new("session_id", DataType::Int),
            Column::new("sql", DataType::Str),
            Column::new("plan_digest", DataType::Str),
            Column::new("est_rows", DataType::Float),
            Column::new("actual_rows", DataType::Int),
            Column::new("q_error", DataType::Float),
            Column::new("optimize_us", DataType::Int),
            Column::new("execute_us", DataType::Int),
            Column::new("pages_read", DataType::Int),
            Column::new("pages_written", DataType::Int),
            Column::new("slow", DataType::Bool),
            Column::new("phases", DataType::Str),
        ]);
        let _r = lockorder::acquire(lockorder::OBS);
        let rows = self
            .query_log
            .entries()
            .into_iter()
            .map(|e| {
                Tuple::new(vec![
                    Value::Int(e.session_id as i64),
                    Value::Str(e.sql.clone()),
                    Value::Str(e.plan_digest.clone()),
                    Value::Float(e.est_rows),
                    Value::Int(e.actual_rows as i64),
                    Value::Float(e.q_error()),
                    Value::Int(e.optimize_us as i64),
                    Value::Int(e.execute_us as i64),
                    Value::Int(e.pages_read as i64),
                    Value::Int(e.pages_written as i64),
                    Value::Bool(e.slow),
                    Value::Str(e.span.as_ref().map(|s| s.compact()).unwrap_or_default()),
                ])
            })
            .collect();
        QueryResult::Rows {
            schema,
            rows,
            metrics: None,
        }
    }

    /// CLUSTERED index invariant: the heap must already be physically
    /// sorted on the key column (load sorted, then create the index).
    fn verify_heap_sorted(&self, table: &str, column: &str) -> Result<()> {
        let info = self.catalog.table(table)?;
        let col = info
            .schema
            .resolve(None, column)
            .map_err(|_| EvoptError::Catalog(format!("unknown column '{column}' on '{table}'")))?;
        let mut last: Option<Value> = None;
        for item in info.heap.scan() {
            let (_, t) = item?;
            let v = t.value(col)?.clone();
            if let Some(prev) = &last {
                if v < *prev {
                    return Err(EvoptError::Catalog(format!(
                        "cannot create CLUSTERED index: heap of '{table}' is not \
                         sorted on '{column}' (load the data in key order first)"
                    )));
                }
            }
            last = Some(v);
        }
        Ok(())
    }
}

/// A client session: a cheap handle over a shared [`Database`] with its own
/// copy of the execution knobs and its own metrics registry. Create with
/// [`Database::session`]; hand each connection (or thread) one.
///
/// Any number of sessions execute concurrently. Each statement pins a
/// frozen catalog snapshot and a config copy at entry; reads run entirely
/// on the snapshot, writes serialize through the engine commit lock and
/// group-commit their WAL syncs with adjacent sessions. Knob changes on
/// one session never affect another — the [`Database`]-level setters only
/// change the *defaults* future sessions start from.
pub struct Session {
    db: Arc<Database>,
    id: u64,
    config: Mutex<SessionConfig>,
    /// Per-session metrics registry (present when the instance records
    /// metrics): same schema as the engine-wide registry, scoped to this
    /// session's statements.
    metrics: Option<Arc<EngineMetrics>>,
}

impl Session {
    fn new(db: Arc<Database>) -> Session {
        let id = db.next_session_id.fetch_add(1, Ordering::Relaxed);
        let config = db.session_defaults();
        let metrics = db
            .metrics
            .is_some()
            .then(|| Arc::new(EngineMetrics::default()));
        Session {
            db,
            id,
            config: Mutex::new(config),
            metrics,
        }
    }

    /// This session's id (unique within its database, starting at 1).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The shared database this session runs against.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Copy of this session's current config.
    pub fn config(&self) -> SessionConfig {
        let _r = lockorder::acquire(lockorder::CONFIG);
        *self.config.lock()
    }

    fn update(&self, f: impl FnOnce(&mut SessionConfig)) {
        let _r = lockorder::acquire(lockorder::CONFIG);
        f(&mut self.config.lock());
    }

    /// Resource limits for this session's SELECTs.
    pub fn set_governor(&self, governor: GovernorConfig) {
        self.update(|c| c.governor = governor);
    }

    /// Executor batch size for this session (1 = tuple-at-a-time).
    pub fn set_batch_rows(&self, batch_rows: usize) {
        self.update(|c| c.batch_rows = batch_rows.max(1));
    }

    /// Join-enumeration strategy for this session.
    pub fn set_strategy(&self, strategy: Strategy) {
        self.update(|c| c.optimizer.strategy = strategy);
    }

    /// Cost model for this session.
    pub fn set_cost_model(&self, model: CostModel) {
        self.update(|c| c.optimizer.cost_model = model);
    }

    /// ANALYZE configuration for this session.
    pub fn set_analyze_config(&self, cfg: AnalyzeConfig) {
        self.update(|c| c.analyze = cfg);
    }

    /// Opt this session's release-build queries into plan verification.
    pub fn set_verify_plans(&self, on: bool) {
        self.update(|c| c.verify_plans = on);
    }

    /// Toggle columnar execution for this session.
    pub fn set_columnar(&self, on: bool) {
        self.update(|c| c.columnar = on);
    }

    /// Toggle statement-span recording for this session.
    pub fn set_spans(&self, on: bool) {
        self.update(|c| c.spans = on);
    }

    fn ctx(&self) -> StatementCtx {
        StatementCtx {
            cfg: self.config(),
            catalog: self.db.read_snapshot(),
            session_id: self.id,
            session_metrics: self.metrics.clone(),
        }
    }

    /// Execute any statement in this session.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let ctx = self.ctx();
        self.db.execute_sql_ctx(&ctx, sql)
    }

    /// Run a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> Result<Vec<Tuple>> {
        match self.execute(sql)? {
            QueryResult::Rows { rows, .. } => Ok(rows),
            other => Err(EvoptError::Execution(format!(
                "expected a SELECT, statement returned {other:?}"
            ))),
        }
    }

    /// Run a SELECT under this session's governor with an external
    /// cancellation token (kill-from-another-thread).
    pub fn query_governed(
        &self,
        sql: &str,
        token: CancellationToken,
    ) -> (Result<Vec<Tuple>>, Option<QueryMetrics>) {
        let ctx = self.ctx();
        let governor = ctx.cfg.governor;
        self.db.query_governed_ctx(&ctx, sql, governor, token)
    }

    /// Point-in-time snapshot of this session's own counters (all zeros
    /// when the instance runs with metrics off). Storage-level counters
    /// (pool, disk, WAL) are instance-wide — read them from
    /// [`Database::metrics_snapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.metrics {
            Some(m) => m.snapshot(),
            None => EngineMetrics::default().snapshot(),
        }
    }

    /// Prometheus text exposition for a scrape arriving through this
    /// session: the instance-wide families from
    /// [`Database::metrics_text`] followed by this session's own
    /// counters rendered with a `session="<id>"` label, so a server
    /// scrape can attribute per-client work.
    pub fn metrics_text(&self) -> String {
        let mut out = self.db.metrics_text();
        out.push_str(
            &self
                .metrics_snapshot()
                .to_prometheus_labeled(&format!("session=\"{}\"", self.id)),
        );
        out
    }
}

/// Bind an expression over one table's row schema (DELETE predicates and
/// UPDATE assignments — no aggregates, no other tables).
fn bind_row_expr(e: &AstExpr, schema: &Schema) -> Result<Expr> {
    match e {
        AstExpr::Ident { table, name } => Ok(Expr::Column(schema.resolve(table.as_deref(), name)?)),
        AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(bind_row_expr(left, schema)?),
            right: Box::new(bind_row_expr(right, schema)?),
        }),
        AstExpr::Unary { op, input } => Ok(Expr::Unary {
            op: *op,
            input: Box::new(bind_row_expr(input, schema)?),
        }),
        AstExpr::Like {
            input,
            pattern,
            negated,
        } => Ok(Expr::Like {
            input: Box::new(bind_row_expr(input, schema)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        AstExpr::InList {
            input,
            list,
            negated,
        } => Ok(Expr::InList {
            input: Box::new(bind_row_expr(input, schema)?),
            list: list.clone(),
            negated: *negated,
        }),
        AstExpr::Between {
            input,
            low,
            high,
            negated,
        } => Ok(Expr::Between {
            input: Box::new(bind_row_expr(input, schema)?),
            low: Box::new(bind_row_expr(low, schema)?),
            high: Box::new(bind_row_expr(high, schema)?),
            negated: *negated,
        }),
        AstExpr::AggCall { func, .. } => Err(EvoptError::Bind(format!(
            "aggregate {func} is not allowed in DML"
        ))),
    }
}

/// Bind an INSERT value expression (constants and arithmetic only).
#[allow(clippy::only_used_in_recursion)]
fn bind_const(e: &AstExpr, empty: &Schema) -> Result<Expr> {
    match e {
        AstExpr::Ident { name, .. } => Err(EvoptError::Bind(format!(
            "INSERT values must be constants, found identifier '{name}'"
        ))),
        AstExpr::Literal(v) => Ok(Expr::Literal(v.clone())),
        AstExpr::Unary { op, input } => Ok(Expr::Unary {
            op: *op,
            input: Box::new(bind_const(input, empty)?),
        }),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(bind_const(left, empty)?),
            right: Box::new(bind_const(right, empty)?),
        }),
        other => Err(EvoptError::Bind(format!(
            "unsupported INSERT value expression: {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> Database {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE dept (id INT NOT NULL, name STRING)")
            .unwrap();
        db.execute("CREATE TABLE emp (id INT NOT NULL, dept_id INT, salary INT)")
            .unwrap();
        db.execute("INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'hr')")
            .unwrap();
        let rows: Vec<Tuple> = (0..300)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(i % 3 + 1),
                    Value::Int(1000 + i * 10),
                ])
            })
            .collect();
        db.insert_tuples("emp", &rows).unwrap();
        db.execute("CREATE INDEX emp_id ON emp (id)").unwrap();
        db.execute("ANALYZE").unwrap();
        db
    }

    #[test]
    fn end_to_end_select() {
        let db = seeded();
        let rows = db.query("SELECT name FROM dept WHERE id = 2").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value(0).unwrap(), &Value::Str("sales".into()));
    }

    #[test]
    fn join_query_counts() {
        let db = seeded();
        let rows = db
            .query(
                "SELECT d.name, COUNT(*) AS n FROM emp e JOIN dept d \
                 ON e.dept_id = d.id GROUP BY d.name ORDER BY n DESC, d.name",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].value(1).unwrap(), &Value::Int(100));
    }

    #[test]
    fn index_is_maintained_by_inserts() {
        let db = seeded();
        db.execute("INSERT INTO emp VALUES (999, 1, 5)").unwrap();
        // Point query should find the new row via the index.
        let (_, physical) = db
            .plan_sql("SELECT salary FROM emp WHERE id = 999")
            .unwrap();
        fn has_index_scan(p: &PhysicalPlan) -> bool {
            p.op_name() == "IndexScan" || p.children().iter().any(|c| has_index_scan(c))
        }
        assert!(has_index_scan(&physical), "{physical}");
        let rows = db.query("SELECT salary FROM emp WHERE id = 999").unwrap();
        assert_eq!(rows, vec![Tuple::new(vec![Value::Int(5)])]);
    }

    #[test]
    fn insert_type_and_null_enforcement() {
        let db = seeded();
        let e = db
            .execute("INSERT INTO dept VALUES (NULL, 'x')")
            .unwrap_err();
        assert!(e.message().contains("NOT NULL"));
        let e = db
            .execute("INSERT INTO dept VALUES ('str', 'x')")
            .unwrap_err();
        assert!(e.message().contains("type mismatch"));
        let e = db.execute("INSERT INTO dept VALUES (1)").unwrap_err();
        assert!(e.message().contains("arity"));
    }

    #[test]
    fn explain_outputs_both_plans() {
        let db = seeded();
        let text = db.explain("SELECT * FROM emp WHERE id < 10").unwrap();
        assert!(text.contains("== logical =="));
        assert!(text.contains("== physical"));
        assert!(text.contains("system-r"));
    }

    #[test]
    fn explain_analyze_reports_io() {
        let db = seeded();
        match db
            .execute("EXPLAIN ANALYZE SELECT * FROM emp WHERE id = 5")
            .unwrap()
        {
            QueryResult::Explained(text) => {
                assert!(text.contains("rows: 1"), "{text}");
                assert!(text.contains("page reads:"), "{text}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn strategies_agree_on_results() {
        let db = seeded();
        let sql = "SELECT e.id, d.name FROM emp e JOIN dept d ON e.dept_id = d.id \
                   WHERE e.salary > 2500 ORDER BY e.id";
        let baseline = db.query(sql).unwrap();
        assert!(!baseline.is_empty());
        for strategy in [
            Strategy::BushyDp,
            Strategy::Greedy,
            Strategy::Goo,
            Strategy::QuickPick {
                samples: 4,
                seed: 9,
            },
            Strategy::Syntactic,
        ] {
            db.set_strategy(strategy);
            assert_eq!(
                db.query(sql).unwrap(),
                baseline,
                "strategy {} changed results",
                strategy.name()
            );
        }
    }

    #[test]
    fn clustered_index_requires_sorted_heap() {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE s (k INT)").unwrap();
        db.execute("INSERT INTO s VALUES (3), (1), (2)").unwrap();
        let e = db
            .execute("CREATE CLUSTERED INDEX s_k ON s (k)")
            .unwrap_err();
        assert!(e.message().contains("not"), "{e}");
        // Sorted data is accepted.
        db.execute("CREATE TABLE s2 (k INT)").unwrap();
        db.execute("INSERT INTO s2 VALUES (1), (2), (3)").unwrap();
        db.execute("CREATE CLUSTERED INDEX s2_k ON s2 (k)").unwrap();
    }

    #[test]
    fn measured_io_nonzero_for_cold_scan() {
        let db = Database::new(DatabaseConfig {
            buffer_pages: 8,
            ..Default::default()
        });
        db.execute("CREATE TABLE big (x INT, pad STRING)").unwrap();
        let rows: Vec<Tuple> = (0..5000)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::Str(format!("pad-{i:06}"))]))
            .collect();
        db.insert_tuples("big", &rows).unwrap();
        db.execute("ANALYZE").unwrap();
        let (result, io) = db.measured("SELECT COUNT(*) FROM big").unwrap();
        assert_eq!(result.rows()[0].value(0).unwrap(), &Value::Int(5000));
        let pages = db.catalog().table("big").unwrap().heap.page_count();
        assert!(
            io.reads >= pages,
            "scan read {} pages, table has {pages}",
            io.reads
        );
    }

    #[test]
    fn drop_table_then_queries_fail() {
        let db = seeded();
        db.execute("DROP TABLE dept").unwrap();
        assert!(db.query("SELECT * FROM dept").is_err());
    }

    #[test]
    fn delete_with_predicate_updates_heap_and_indexes() {
        let db = seeded();
        match db.execute("DELETE FROM emp WHERE salary < 1500").unwrap() {
            QueryResult::Affected(n) => assert_eq!(n, 50),
            other => panic!("{other:?}"),
        }
        let n = db.query("SELECT COUNT(*) FROM emp").unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(n, 250);
        // Index no longer returns deleted rows.
        assert!(db
            .query("SELECT * FROM emp WHERE id = 10")
            .unwrap()
            .is_empty());
        assert_eq!(
            db.query("SELECT * FROM emp WHERE id = 100").unwrap().len(),
            1
        );
        // DELETE without predicate empties the table.
        db.execute("DELETE FROM emp").unwrap();
        assert!(db.query("SELECT * FROM emp").unwrap().is_empty());
    }

    #[test]
    fn update_rewrites_rows_and_indexes() {
        let db = seeded();
        match db
            .execute("UPDATE emp SET salary = salary + 10000, id = id + 1000 WHERE id < 3")
            .unwrap()
        {
            QueryResult::Affected(n) => assert_eq!(n, 3),
            other => panic!("{other:?}"),
        }
        // Old ids are gone from the index path; new ids are findable.
        assert!(db
            .query("SELECT * FROM emp WHERE id = 1")
            .unwrap()
            .is_empty());
        let rows = db.query("SELECT salary FROM emp WHERE id = 1001").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value(0).unwrap(), &Value::Int(1000 + 10 + 10000));
        // Row count unchanged.
        let n = db.query("SELECT COUNT(*) FROM emp").unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(n, 300);
        // Constraint enforcement still applies through UPDATE.
        assert!(db
            .execute("UPDATE emp SET id = NULL WHERE id = 1001")
            .is_err());
    }

    #[test]
    fn select_distinct_end_to_end() {
        let db = seeded();
        let rows = db
            .query("SELECT DISTINCT dept_id FROM emp ORDER BY dept_id")
            .unwrap();
        let got: Vec<i64> = rows
            .iter()
            .map(|t| t.value(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn durable_database_survives_losing_the_buffer_pool() {
        let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        let cfg = DatabaseConfig {
            durability: Durability::Wal,
            ..Default::default()
        };
        let db = Database::create_on(Arc::clone(&disk), cfg).unwrap();
        db.execute("CREATE TABLE t (id INT NOT NULL, name STRING)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        db.execute("CREATE INDEX t_id ON t (id)").unwrap();
        db.execute("DELETE FROM t WHERE id = 2").unwrap();
        let expect = db.query("SELECT id, name FROM t ORDER BY id").unwrap();
        // Crash: drop the database (pool and all) without ever flushing.
        drop(db);
        let (db2, info) = Database::recover(disk, cfg).unwrap();
        assert!(info.replayed_records > 0);
        assert_eq!(info.catalog.tables.len(), 1);
        assert_eq!(
            db2.query("SELECT id, name FROM t ORDER BY id").unwrap(),
            expect
        );
        // The recovered index answers point queries.
        assert_eq!(
            db2.query("SELECT name FROM t WHERE id = 3").unwrap().len(),
            1
        );
        assert!(db2
            .query("SELECT name FROM t WHERE id = 2")
            .unwrap()
            .is_empty());
        // And the recovered database keeps working durably.
        db2.execute("INSERT INTO t VALUES (4, 'd')").unwrap();
        let snap = db2.metrics_snapshot();
        assert_eq!(snap.recoveries, 1);
        assert!(snap.wal_records_written > 0);
        assert!(snap.wal_bytes > 0);
    }

    #[test]
    fn checkpoint_is_durable_and_counted() {
        let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        let cfg = DatabaseConfig {
            durability: Durability::Wal,
            ..Default::default()
        };
        let db = Database::create_on(Arc::clone(&disk), cfg).unwrap();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        db.checkpoint().unwrap();
        db.execute("INSERT INTO t VALUES (3)").unwrap();
        drop(db);
        let (db2, info) = Database::recover(disk, cfg).unwrap();
        // The pre-checkpoint commits are out of the log: recovery scans
        // only the checkpoint record and the one commit after it.
        assert!(info.scanned_records <= 3, "{info:?}");
        let n = db2.query("SELECT COUNT(*) FROM t").unwrap()[0]
            .value(0)
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(db2.metrics_snapshot().recoveries, 1);
    }

    #[test]
    fn durability_off_behaves_as_before() {
        let db = Database::with_defaults();
        assert!(db.wal().is_none());
        db.execute("CREATE TABLE t (x INT)").unwrap();
        db.checkpoint().unwrap(); // no-op, not an error
        let snap = db.metrics_snapshot();
        assert_eq!(snap.wal_records_written, 0);
        assert_eq!(snap.recoveries, 0);
        // open_on over a non-durable config is a typed error.
        let disk: Arc<dyn DiskBackend> = Arc::new(DiskManager::new());
        assert!(Database::open_on(disk, DatabaseConfig::default()).is_err());
    }

    #[test]
    fn arithmetic_in_insert_values() {
        let db = Database::with_defaults();
        db.execute("CREATE TABLE c (x INT, y FLOAT)").unwrap();
        db.execute("INSERT INTO c VALUES (2 + 3 * 4, -1.5)")
            .unwrap();
        let rows = db.query("SELECT x, y FROM c").unwrap();
        assert_eq!(rows[0].value(0).unwrap(), &Value::Int(14));
        assert_eq!(rows[0].value(1).unwrap(), &Value::Float(-1.5));
    }

    #[test]
    fn select_constant_expressions_over_table() {
        let db = seeded();
        let rows = db
            .query("SELECT id * 2 AS twice FROM emp WHERE id BETWEEN 1 AND 3 ORDER BY twice")
            .unwrap();
        let vals: Vec<i64> = rows
            .iter()
            .map(|t| t.value(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(vals, vec![2, 4, 6]);
    }
}

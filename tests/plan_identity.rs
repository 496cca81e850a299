//! Plan-identity golden test: every enumeration strategy, on the join
//! graphs the `join_optimize` benchmark runs plus a larger chain where
//! index nested loops and index orders win (each with and without indexes),
//! must keep producing the same EXPLAIN text, the same estimated costs to
//! the bit, the same physical plan down to every residual and schema (a
//! digest of its `Debug` form, since EXPLAIN omits join residuals), and
//! the same search — the same candidates admitted in the same order, with
//! the same trace events and counts.
//!
//! The expected file is `tests/golden/plan_identity.txt`. To re-record it
//! after a deliberate plan change, run
//! `EVOPT_BLESS=1 cargo test --test plan_identity` and review the diff.

use std::fmt::Write as _;

use evopt::obs::TraceSink;
use evopt::workload::{JoinWorkload, Topology};
use evopt::{Database, Optimizer, Strategy};

const GOLDEN: &str = "tests/golden/plan_identity.txt";

/// chain-8, star-8, cycle-8, clique-6 (the `join_optimize` graphs), then
/// chain-4 at 500-32,000 rows.
fn workloads() -> Vec<JoinWorkload> {
    let mut ws: Vec<JoinWorkload> = [
        (Topology::Chain, 8),
        (Topology::Star, 8),
        (Topology::Cycle, 8),
        (Topology::Clique, 6),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (topology, n))| {
        let mut w = JoinWorkload::new(topology, n, 10, 1 + i as u64);
        w.growth = 1.3;
        w
    })
    .collect();
    let mut big = JoinWorkload::new(Topology::Chain, 4, 500, 5);
    big.growth = 4.0;
    ws.push(big);
    ws
}

fn strategies() -> [Strategy; 7] {
    [
        Strategy::SystemR,
        Strategy::BushyDp,
        Strategy::DpCcp,
        Strategy::Greedy,
        Strategy::Goo,
        Strategy::QuickPick {
            samples: 16,
            seed: 7,
        },
        Strategy::Syntactic,
    ]
}

/// The battery: every small graph's COUNT(*) join, the filtered chain, two
/// chain-prefix joins whose ORDER BY / GROUP BY sits on a join column (the
/// required-order and order-hint paths), and on the large chain a
/// selective join (index nested loops), the same with a filter on a probed
/// inner (an index-NL residual), and an ORDER BY on a range-filtered,
/// indexed join column (index order).
fn queries(ws: &[JoinWorkload]) -> Vec<(String, String)> {
    let (small, big) = ws.split_at(ws.len() - 1);
    let mut out: Vec<(String, String)> = small
        .iter()
        .map(|w| (w.prefix.clone(), w.count_query()))
        .collect();
    let chain = &ws[0];
    out.push((
        format!("{}_filtered", chain.prefix),
        chain.filtered_query(100),
    ));
    let (r0, r1, r2) = (chain.table(0), chain.table(1), chain.table(2));
    let from = format!("FROM {r0}, {r1}, {r2} WHERE {r0}.fk = {r1}.pk AND {r1}.fk = {r2}.pk");
    out.push((
        format!("{}_order_by", chain.prefix),
        format!("SELECT {r1}.pk, {r2}.payload {from} ORDER BY {r1}.pk"),
    ));
    out.push((
        format!("{}_group_by", chain.prefix),
        format!("SELECT {r1}.pk, COUNT(*) {from} GROUP BY {r1}.pk"),
    ));
    let big = &big[0];
    let (b0, b1, b2) = (big.table(0), big.table(1), big.table(2));
    out.push((
        format!("{}_selective", big.prefix),
        format!("{} AND {b0}.payload < 10", big.count_query()),
    ));
    out.push((
        format!("{}_inner_filter", big.prefix),
        format!(
            "{} AND {b0}.payload < 10 AND {b2}.payload < 500",
            big.count_query()
        ),
    ));
    out.push((
        format!("{}_order_by", big.prefix),
        format!(
            "SELECT {b2}.pk, {b1}.payload FROM {b1}, {b2} \
             WHERE {b1}.fk = {b2}.pk AND {b2}.pk < 40 ORDER BY {b2}.pk"
        ),
    ));
    out
}

/// FNV-1a: a stable digest of the plan's `Debug` form and of the full
/// trace journal, independent of the standard library's hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One golden entry: EXPLAIN text, the bits of every node's estimates, the
/// plan digest, and the search trace's counts, level sizes and event
/// digest.
fn record(db: &Database, name: &str, sql: &str, strategy: Strategy, out: &mut String) {
    db.set_strategy(strategy);
    let explain = db.explain(sql).unwrap();
    let (logical, _) = db.plan_sql(sql).unwrap();
    let mut optimizer =
        Optimizer::new(db.optimizer_config()).with_trace(TraceSink::bounded(usize::MAX));
    let plan = optimizer.optimize(&logical, db.catalog()).unwrap();
    let trace = optimizer.take_trace().unwrap().into_trace();
    assert_eq!(
        trace.dropped,
        0,
        "{name}/{}: journal truncated",
        strategy.name()
    );

    writeln!(out, "### {name} / {}", strategy.name()).unwrap();
    out.push_str(&explain);
    for (depth, node) in plan.pre_order() {
        writeln!(
            out,
            "est {depth} {}: io={:016x} cpu={:016x} rows={:016x}",
            node.op_name(),
            node.est_cost.io.to_bits(),
            node.est_cost.cpu.to_bits(),
            node.est_rows.to_bits()
        )
        .unwrap();
    }
    writeln!(out, "plan {:016x}", fnv1a(format!("{plan:?}").as_bytes())).unwrap();
    let journal: String = trace.events.iter().map(|e| format!("{e:?}\n")).collect();
    let levels: Vec<String> = trace
        .levels
        .iter()
        .map(|l| format!("{}:{}", l.level, l.table_entries))
        .collect();
    writeln!(
        out,
        "trace considered={} pruned={} memo_entries={} levels=[{}] events={} journal={:016x}\n",
        trace.considered,
        trace.pruned,
        trace.memo_entries,
        levels.join(" "),
        trace.events.len(),
        fnv1a(journal.as_bytes())
    )
    .unwrap();
}

#[test]
fn every_strategy_keeps_its_plans_and_search() {
    let ws = workloads();
    let battery = queries(&ws);
    let mut actual = String::new();
    for with_indexes in [false, true] {
        let db = Database::with_defaults();
        for w in &ws {
            w.load(&db, with_indexes).unwrap();
        }
        writeln!(actual, "## indexes={with_indexes}\n").unwrap();
        for (name, sql) in &battery {
            for strategy in strategies() {
                record(&db, name, sql, strategy, &mut actual);
            }
        }
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("EVOPT_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap();
    if expected != actual {
        let first = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a);
        match first {
            Some((i, (e, a))) => {
                panic!(
                    "{GOLDEN} differs at line {}:\n  expected: {e}\n  actual:   {a}",
                    i + 1
                )
            }
            None => panic!(
                "{GOLDEN} differs in length: expected {} lines, got {}",
                expected.lines().count(),
                actual.lines().count()
            ),
        }
    }
}

//! UPDATE and DELETE find their rows through access-path selection.
//!
//! Two properties: a keyed write reads only the pages its key leads to
//! (not the heap), and the rows it changes are exactly the rows its WHERE
//! clause matches — checked against a row model kept in this file.

use std::ops::Bound;

use evopt::engine::QueryResult;
use evopt::{Database, DatabaseConfig, Tuple, Value};

const ROWS: i64 = 1_500;
const PAD: usize = 100;
/// Buffer-pool frames for table `t`, about a third of its heap: a heap
/// scan cannot avoid missing on most of the heap.
const POOL: usize = 16;

/// The model of table `t`: `(k, v, pad)` per row. Every 100th row has a
/// NULL key.
type Row = (Option<i64>, i64, String);

fn model_rows() -> Vec<Row> {
    (0..ROWS)
        .map(|i| {
            let k = (i % 100 != 99).then_some(i);
            (k, (i % 10) * 10, "p".repeat(PAD))
        })
        .collect()
}

fn tuple(row: &Row) -> Tuple {
    let k = row.0.map_or(Value::Null, Value::Int);
    Tuple::new(vec![k, Value::Int(row.1), Value::Str(row.2.clone())])
}

/// `t (k, v, pad)` with a B+-tree on `k` and fresh statistics: large
/// enough (~50 heap pages) that a narrow key range is cheaper through the
/// index than through the heap.
fn loaded() -> Database {
    let db = Database::new(DatabaseConfig {
        buffer_pages: POOL,
        ..DatabaseConfig::default()
    });
    db.execute("CREATE TABLE t (k INT, v INT NOT NULL, pad STRING NOT NULL)")
        .unwrap();
    db.execute("CREATE INDEX t_k ON t (k)").unwrap();
    let rows: Vec<Tuple> = model_rows().iter().map(tuple).collect();
    db.insert_tuples("t", &rows).unwrap();
    db.execute("ANALYZE t").unwrap();
    db
}

fn affected(result: QueryResult) -> usize {
    match result {
        QueryResult::Affected(n) => n,
        other => panic!("expected a row count, got {other:?}"),
    }
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The table's rows read through a heap scan, and the index checked
/// against them: every non-NULL key has exactly one entry, pointing at
/// its row, and there are no other entries.
fn stored_rows(db: &Database) -> Vec<Row> {
    let info = db.catalog().table("t").unwrap();
    let mut rows = Vec::new();
    let mut keyed = Vec::new();
    for item in info.heap.scan() {
        let (rid, t) = item.unwrap();
        let k = match t.value(0).unwrap() {
            Value::Null => None,
            v => Some(v.as_i64().unwrap()),
        };
        let v = t.value(1).unwrap().as_i64().unwrap();
        let pad = match t.value(2).unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("pad is {other:?}"),
        };
        if let Some(k) = k {
            keyed.push((k, rid));
        }
        rows.push((k, v, pad));
    }
    let index = &info.indexes()[0];
    let mut entries: Vec<_> = index
        .btree
        .range(Bound::Unbounded, Bound::Unbounded)
        .unwrap()
        .map(|e| {
            let (key, rid) = e.unwrap();
            (key.as_i64().unwrap(), rid)
        })
        .collect();
    keyed.sort();
    entries.sort();
    assert_eq!(entries, keyed, "index entries diverge from the heap");
    sorted(rows)
}

struct Case {
    sql: &'static str,
    /// Rows the WHERE clause matches (changed or not).
    affected: usize,
    /// Whether the WHERE clause has a conjunct the key index can answer.
    sargable: bool,
    /// The same change applied to the model: `Some(new row)` to keep or
    /// rewrite a row, `None` to delete it.
    apply: fn(&Row) -> Option<Row>,
}

fn battery() -> Vec<Case> {
    fn keep(r: &Row) -> Option<Row> {
        Some(r.clone())
    }
    vec![
        Case {
            sql: "DELETE FROM t WHERE k = 700",
            affected: 1,
            sargable: true,
            apply: |r| (r.0 != Some(700)).then(|| r.clone()),
        },
        Case {
            sql: "UPDATE t SET v = v + 1 WHERE k > 1490",
            affected: 8,
            sargable: true,
            apply: |r| match r.0 {
                Some(k) if k > 1490 => Some((r.0, r.1 + 1, r.2.clone())),
                _ => keep(r),
            },
        },
        Case {
            sql: "DELETE FROM t WHERE k BETWEEN 200 AND 220",
            affected: 21,
            sargable: true,
            apply: |r| match r.0 {
                Some(k) if (200..=220).contains(&k) => None,
                _ => keep(r),
            },
        },
        Case {
            sql: "UPDATE t SET v = 7 WHERE k >= 100 AND k < 160 AND v = 30",
            affected: 6,
            sargable: true,
            apply: |r| match r.0 {
                Some(k) if (100..160).contains(&k) && r.1 == 30 => Some((r.0, 7, r.2.clone())),
                _ => keep(r),
            },
        },
        Case {
            sql: "DELETE FROM t WHERE k = NULL",
            affected: 0,
            sargable: false,
            apply: keep,
        },
        Case {
            sql: "UPDATE t SET v = 5 WHERE k = 42.0",
            affected: 1,
            sargable: true,
            apply: |r| match r.0 {
                Some(42) => Some((r.0, 5, r.2.clone())),
                _ => keep(r),
            },
        },
        Case {
            sql: "DELETE FROM t WHERE k < 10.5",
            affected: 11,
            sargable: true,
            apply: |r| match r.0 {
                Some(k) if k <= 10 => None,
                _ => keep(r),
            },
        },
        Case {
            sql: "DELETE FROM t WHERE v = 70",
            affected: 150,
            sargable: false,
            apply: |r| (r.1 != 70).then(|| r.clone()),
        },
        Case {
            sql: "UPDATE t SET v = 0",
            affected: 1500,
            sargable: false,
            apply: |r| Some((r.0, 0, r.2.clone())),
        },
        Case {
            sql: "UPDATE t SET k = 5000 WHERE k = 600",
            affected: 1,
            sargable: true,
            apply: |r| match r.0 {
                Some(600) => Some((Some(5000), r.1, r.2.clone())),
                _ => keep(r),
            },
        },
        Case {
            sql: "UPDATE t SET k = NULL WHERE k = 10",
            affected: 1,
            sargable: true,
            apply: |r| match r.0 {
                Some(10) => Some((None, r.1, r.2.clone())),
                _ => keep(r),
            },
        },
    ]
}

#[test]
fn dml_changes_exactly_the_rows_its_predicate_matches() {
    for case in battery() {
        let db = loaded();
        let heap_pages = db.catalog().table("t").unwrap().heap.page_count();
        let before = model_rows();
        let expected: Vec<Row> = before.iter().filter_map(case.apply).collect();

        let (result, pool) = db.measured_pool(case.sql).unwrap();
        assert_eq!(affected(result), case.affected, "{}", case.sql);
        assert_eq!(stored_rows(&db), sorted(expected), "{}", case.sql);
        // A heap scan misses on at least the part of the heap the pool
        // cannot hold; the index path touches a handful of pages.
        let scan_misses = heap_pages - POOL as u64;
        if case.sargable {
            assert!(
                pool.misses < scan_misses,
                "{}: {} misses on a {heap_pages}-page heap",
                case.sql,
                pool.misses
            );
        } else {
            assert!(
                pool.misses >= scan_misses,
                "{}: {} misses",
                case.sql,
                pool.misses
            );
        }
    }
}

#[test]
fn an_updated_key_is_found_under_its_new_value_only() {
    let db = loaded();
    db.execute("UPDATE t SET k = 5000 WHERE k = 600").unwrap();
    let found = db.query("SELECT v FROM t WHERE k = 5000").unwrap();
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].value(0).unwrap(), &Value::Int(0));
    assert!(db
        .query("SELECT v FROM t WHERE k = 600")
        .unwrap()
        .is_empty());
    // And the moved row answers a later keyed write.
    let n = affected(db.execute("DELETE FROM t WHERE k = 5000").unwrap());
    assert_eq!(n, 1);
    assert!(db
        .query("SELECT v FROM t WHERE k = 5000")
        .unwrap()
        .is_empty());
}

/// A keyed UPDATE or DELETE on a table four times the pool reads only the
/// index path and the row's heap page. The pool is emptied of the table
/// before each statement (a scan of another table at least as large as
/// the pool), so each page the statement touches is one miss: the misses
/// count the distinct pages. A DELETE touches at most the B+-tree meta
/// page, the root-to-leaf path, one neighbouring leaf when the key sits on
/// a leaf's edge, and the row's heap page: height + 3. An UPDATE also
/// appends the new version to the heap's tail page: height + 4.
#[test]
fn keyed_writes_read_only_their_index_path_and_row_page() {
    const POOL: usize = 32;
    let db = Database::new(DatabaseConfig {
        buffer_pages: POOL,
        ..DatabaseConfig::default()
    });
    db.execute("CREATE TABLE w (k INT NOT NULL, pad STRING NOT NULL)")
        .unwrap();
    db.execute("CREATE TABLE flush (x INT NOT NULL, pad STRING NOT NULL)")
        .unwrap();
    db.execute("CREATE UNIQUE INDEX w_k ON w (k)").unwrap();
    let pad = Value::Str("w".repeat(200));
    let rows: Vec<Tuple> = (0..3_000)
        .map(|k| Tuple::new(vec![Value::Int(k), pad.clone()]))
        .collect();
    db.insert_tuples("w", &rows).unwrap();
    db.insert_tuples("flush", &rows[..1_000]).unwrap();
    db.execute("ANALYZE").unwrap();

    let w = db.catalog().table("w").unwrap();
    let heap_pages = w.heap.page_count();
    let flush_pages = db.catalog().table("flush").unwrap().heap.page_count();
    let height = w.indexes()[0].btree.height().unwrap() as u64;
    assert!(heap_pages >= 4 * POOL as u64, "{heap_pages} heap pages");
    assert!(flush_pages > POOL as u64, "{flush_pages} flush pages");

    let cold = |sql: &str| {
        db.query("SELECT COUNT(*) FROM flush").unwrap();
        let (_, pool) = db.measured_pool(sql).unwrap();
        pool.misses
    };
    for k in (0..3_000).step_by(97).chain([2_999]) {
        let update = format!("UPDATE w SET pad = 'v' WHERE k = {k}");
        let misses = cold(&update);
        assert!(
            misses <= height + 4,
            "{misses} misses for k = {k} (height {height})"
        );
        let misses = cold(&format!("DELETE FROM w WHERE k = {k}"));
        assert!(
            misses <= height + 3,
            "{misses} misses for k = {k} (height {height})"
        );
    }
    // Without a sargable conjunct the same table costs a heap scan.
    let misses = cold("DELETE FROM w WHERE pad = 'none'");
    assert!(misses >= heap_pages - POOL as u64, "{misses} misses");
}

//! The `oltp_wire` model against a scripted sequence of writes and reads.

use evbench::model::{initial_rows, key_range, rendered_rows, row, ConnModel, Expect, Op};
use evopt_common::{Schema, Tuple, Value};
use evopt_engine::QueryResult;
use evopt_server::Response;

/// Rows 0..8 (keys 0, 2, …, 14); the model owns keys [4, 12).
fn model() -> ConnModel {
    ConnModel::new(4, 12, &initial_rows(8, 1), 1)
}

fn rendered(row: &[Value]) -> Response {
    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
    Response::Result(format!(
        "| wisc.unique1 | wisc.unique2 | … |\n| {} |\n1 row(s)",
        cells.join(" | ")
    ))
}

#[test]
fn model_keeps_only_its_own_range() {
    let m = model();
    let keys: Vec<i64> = m.rows().keys().copied().collect();
    assert_eq!(keys, vec![4, 6, 8, 10]);
    assert_eq!(key_range(0, 2, 8), (0, 8));
    assert_eq!(key_range(1, 2, 8), (8, 16));
    assert_eq!(
        key_range(2, 3, 10),
        (12, 20),
        "the last range takes the rest"
    );
}

#[test]
fn scripted_writes_and_reads() {
    let mut m = model();
    let r6 = m.rows()[&6].clone();

    // A point read sees the loaded row; a missing key sees none.
    assert_eq!(m.expect(&Op::Point(6)), Expect::Row(Some(r6.clone())));
    assert_eq!(m.expect(&Op::Point(7)), Expect::Row(None));
    assert_eq!(m.expect(&Op::Range(4)), Expect::Count(4));

    // Update key 6, then read it back.
    let up = Op::Update(6, 3);
    assert_eq!(m.expect(&up), Expect::Affected(1));
    m.apply(&up);
    let mut want = r6.clone();
    want[3] = Value::Int(3);
    assert_eq!(m.expect(&Op::Point(6)), Expect::Row(Some(want.clone())));

    // Updating a key that is not there affects nothing and changes nothing.
    let missing = Op::Update(7, 1);
    assert_eq!(m.expect(&missing), Expect::Affected(0));
    m.apply(&missing);
    assert_eq!(m.expect(&Op::Point(7)), Expect::Row(None));

    // Insert odd key 7: the range count and the point read see it.
    let ins = Op::Insert(42, 7);
    assert_eq!(m.expect(&ins), Expect::Affected(1));
    m.apply(&ins);
    assert_eq!(m.expect(&Op::Point(7)), Expect::Row(Some(row(42, 7))));
    assert_eq!(m.expect(&Op::Range(4)), Expect::Count(5));
    assert_eq!(m.rows().len(), 5);

    // An unacknowledged write is never applied, so the model is unchanged
    // by what the engine refused.
    assert_eq!(m.expect(&Op::Point(6)), Expect::Row(Some(want)));
}

#[test]
fn wire_answers_are_checked_against_the_model() {
    let m = model();
    let r6 = m.rows()[&6].clone();
    let point = m.expect(&Op::Point(6));
    assert!(point.check_wire(&rendered(&r6)).is_ok());
    let mut wrong = r6.clone();
    wrong[3] = Value::Int(99);
    assert!(point.check_wire(&rendered(&wrong)).is_err());
    assert!(point.check_wire(&Response::Error("boom".into())).is_err());
    assert!(m
        .expect(&Op::Point(7))
        .check_wire(&Response::Result("| wisc.unique1 |\n0 row(s)".into()))
        .is_ok());

    let count = m.expect(&Op::Range(4));
    assert!(count
        .check_wire(&Response::Result("| count |\n| 4 |\n1 row(s)".into()))
        .is_ok());
    assert!(count
        .check_wire(&Response::Result("| count |\n| 5 |\n1 row(s)".into()))
        .is_err());

    let up = m.expect(&Op::Update(6, 1));
    assert!(up
        .check_wire(&Response::Result("1 row(s) affected".into()))
        .is_ok());
    assert!(up
        .check_wire(&Response::Result("0 row(s) affected".into()))
        .is_err());
}

#[test]
fn local_answers_are_checked_against_the_model() {
    let m = model();
    let r6 = m.rows()[&6].clone();
    let rows = |vals: Vec<Vec<Value>>| QueryResult::Rows {
        schema: Schema::new(Vec::new()),
        rows: vals.into_iter().map(Tuple::new).collect(),
        metrics: None,
    };
    assert!(m.expect(&Op::Point(6)).check_local(&rows(vec![r6])).is_ok());
    assert!(m.expect(&Op::Point(6)).check_local(&rows(vec![])).is_err());
    assert!(m
        .expect(&Op::Range(4))
        .check_local(&rows(vec![vec![Value::Int(4)]]))
        .is_ok());
    assert!(m
        .expect(&Op::Update(6, 1))
        .check_local(&QueryResult::Affected(1))
        .is_ok());
    assert!(m
        .expect(&Op::Update(6, 1))
        .check_local(&QueryResult::Affected(0))
        .is_err());
}

#[test]
fn rendered_rows_split_cells() {
    let text = "| a | b |\n| 1 | 'x' |\n| 2 | 'y' |\n2 row(s)";
    assert_eq!(
        rendered_rows(text).unwrap(),
        vec![vec!["1", "'x'"], vec!["2", "'y'"]]
    );
    assert!(rendered_rows("2 row(s) affected").is_err());
}

#[test]
fn stream_is_seeded_and_stays_in_range() {
    let loaded = initial_rows(1000, 3);
    let draw = |seed| {
        let mut m = ConnModel::new(0, 1000, &loaded, seed);
        (0..500)
            .map(|_| {
                let op = m.next_op();
                m.apply(&op);
                op
            })
            .collect::<Vec<_>>()
    };
    let ops = draw(5);
    assert_eq!(ops, draw(5));
    assert_ne!(ops, draw(6));
    for op in &ops {
        let k = match op {
            Op::Point(k) | Op::Update(k, _) | Op::Insert(_, k) => *k,
            Op::Range(lo) => *lo,
        };
        assert!((0..1000).contains(&k), "{op:?}");
    }
    let share = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 500.0;
    assert!((share(|o| matches!(o, Op::Point(_))) - 0.70).abs() < 0.08);
    assert!((share(|o| matches!(o, Op::Update(..))) - 0.15).abs() < 0.06);
    // Inserts use fresh odd keys only.
    let inserts: Vec<i64> = ops
        .iter()
        .filter_map(|o| match o {
            Op::Insert(_, k) => Some(*k),
            _ => None,
        })
        .collect();
    assert!(!inserts.is_empty());
    assert!(inserts.iter().all(|k| k % 2 == 1));
    let mut unique = inserts.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), inserts.len());
}

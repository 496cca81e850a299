//! The reference evaluator against hand-computed answers on a tiny
//! dataset.

use std::collections::HashMap;

use evbench::reference::joins::{count, parse_count_query};
use evbench::reference::tpch::{self, Data};
use evbench::reference::{check, Expected, Order, Row, Table};
use evopt_common::Value;

fn i(v: i64) -> Value {
    Value::Int(v)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

/// The TPC-H-lite tables and their columns, as `load_tpch_lite` creates
/// them.
const TABLES: [(&str, &[&str]); 5] = [
    ("region", &["r_key", "r_name"]),
    ("nation", &["n_key", "n_region", "n_name"]),
    ("customer", &["c_key", "c_nation", "c_name", "c_balance"]),
    ("orders", &["o_key", "o_customer", "o_status", "o_total"]),
    (
        "lineitem",
        &["l_order", "l_line", "l_quantity", "l_price", "l_flag"],
    ),
];

fn table(name: &str, rows: Vec<Row>) -> Table {
    let cols = TABLES
        .iter()
        .find(|(t, _)| *t == name)
        .map(|(_, c)| *c)
        .unwrap();
    Table::new(name, cols, rows)
}

/// Two regions, three nations (one in a missing region), three customers,
/// four orders, six lineitems.
fn tiny() -> Data {
    let tables = [
        table("region", vec![vec![i(0), s("r0")], vec![i(1), s("r1")]]),
        table(
            "nation",
            vec![
                vec![i(0), i(0), s("n0")],
                vec![i(1), i(1), s("n1")],
                vec![i(2), i(9), s("n2")], // region 9 does not exist
            ],
        ),
        table(
            "customer",
            vec![
                vec![i(7), i(0), s("c7"), i(6000)],
                vec![i(8), i(1), s("c8"), i(100)],
                vec![i(9), i(2), s("c9"), i(9000)],
            ],
        ),
        table(
            "orders",
            vec![
                vec![i(100), i(7), s("shipped"), i(50)],
                vec![i(101), i(7), s("open"), i(70)],
                vec![i(102), i(8), s("open"), i(20)],
                vec![i(103), i(9), s("done"), i(90)],
            ],
        ),
        table(
            "lineitem",
            vec![
                vec![i(100), i(0), i(5), i(1000), s("R")],
                vec![i(100), i(1), i(20), i(2000), s("N")],
                vec![i(101), i(2), i(3), i(300), s("R")],
                vec![i(102), i(3), i(8), i(400), s("R")],
                vec![i(103), i(4), i(1), i(500), s("N")],
                vec![i(103), i(5), i(2), i(500), s("R")],
            ],
        ),
    ];
    tables.into_iter().map(|t| (t.name.clone(), t)).collect()
}

fn reference(name: &str) -> Expected {
    let (_, _, f) = tpch::BATTERY.iter().find(|b| b.0 == name).unwrap();
    f(&tiny()).unwrap()
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn revenue_per_nation_drops_lines_outside_known_regions() {
    let e = reference("revenue_per_nation");
    // n0: orders 100, 101 (customer 7) = 1000 + 2000 + 300; n1: order 102
    // (customer 8) = 400; n2 sits in no region, so order 103 drops out.
    assert_eq!(
        sorted(e.rows),
        vec![vec![s("n0"), i(3300)], vec![s("n1"), i(400)]]
    );
    assert_eq!(e.order, Some(Order { col: 1, desc: true }));
}

#[test]
fn customer_orders_joins_customer_sevens_lines() {
    let e = reference("customer_orders");
    assert_eq!(
        sorted(e.rows),
        vec![
            vec![i(100), i(1000)],
            vec![i(100), i(2000)],
            vec![i(101), i(300)]
        ]
    );
}

#[test]
fn shipped_big_orders_filters_both_sides() {
    // Only order 100 is shipped, and its customer's balance is 6000.
    assert_eq!(
        reference("shipped_big_orders").rows,
        vec![vec![i(100), s("c7")]]
    );
}

#[test]
fn lineitem_summary_groups_by_flag_and_line() {
    let e = reference("lineitem_summary");
    assert_eq!(e.rows.len(), 6, "every (flag, line) pair is distinct here");
    assert!(e.rows.contains(&vec![s("R"), i(0), i(1), i(5), i(1000)]));
}

#[test]
fn open_orders_by_nation_counts_and_sums() {
    let e = reference("open_orders_by_nation");
    assert_eq!(
        sorted(e.rows),
        vec![vec![i(0), i(1), i(70)], vec![i(1), i(1), i(20)]]
    );
}

#[test]
fn filtered_lines_is_an_ungrouped_aggregate() {
    // quantity < 10 and flag R: lines of 100 (5), 101 (3), 102 (8), 103 (2).
    assert_eq!(
        reference("filtered_lines").rows,
        vec![vec![i(4), i(1000 + 300 + 400 + 500)]]
    );
}

#[test]
fn top_done_lines_keeps_every_candidate_row() {
    let e = reference("top_done_lines");
    // Only order 103 is done: both its lines, tied on price 500.
    assert_eq!(e.rows.len(), 2);
    assert_eq!(e.limit, Some(10));
}

#[test]
fn check_compares_multisets_without_order() {
    let e = Expected::unordered(vec![vec![i(1)], vec![i(2)], vec![i(2)]]);
    assert!(check(&[vec![i(2)], vec![i(1)], vec![i(2)]], &e).is_ok());
    assert!(check(&[vec![i(2)], vec![i(1)], vec![i(1)]], &e).is_err());
    assert!(check(&[vec![i(2)], vec![i(1)]], &e).is_err());
}

#[test]
fn check_enforces_order_and_judges_ties_at_the_limit() {
    let rows = vec![
        vec![s("a"), i(5)],
        vec![s("b"), i(9)],
        vec![s("c"), i(5)],
        vec![s("d"), i(1)],
    ];
    let e = Expected {
        rows: rows.clone(),
        order: Some(Order { col: 1, desc: true }),
        limit: Some(2),
    };
    // Either tied row may fill the second slot.
    assert!(check(&[rows[1].clone(), rows[0].clone()], &e).is_ok());
    assert!(check(&[rows[1].clone(), rows[2].clone()], &e).is_ok());
    // Wrong order, a wrong row, or a row that is not in the reference.
    assert!(check(&[rows[0].clone(), rows[1].clone()], &e).is_err());
    assert!(check(&[rows[1].clone(), rows[3].clone()], &e).is_err());
    assert!(check(&[rows[1].clone(), vec![s("z"), i(5)]], &e).is_err());
    assert!(check(&[rows[1].clone()], &e).is_err());
}

fn join_data() -> HashMap<String, Table> {
    let t = |name: &str, rows: &[(i64, i64, i64)]| {
        Table::new(
            name,
            &["pk", "fk", "payload"],
            rows.iter()
                .map(|&(a, b, c)| vec![i(a), i(b), i(c)])
                .collect(),
        )
    };
    [
        t("a", &[(0, 1, 10), (1, 1, 500), (2, 0, 20)]),
        t("b", &[(0, 0, 0), (1, 2, 0)]),
        t("c", &[(0, 0, 0), (1, 1, 0), (2, 1, 0)]),
    ]
    .into_iter()
    .map(|t| (t.name.clone(), t))
    .collect()
}

#[test]
fn join_count_query_is_parsed() {
    let q = parse_count_query(
        "SELECT COUNT(*) FROM a, b, c WHERE a.fk = b.pk AND b.fk = c.pk AND c.payload < 7",
    )
    .unwrap();
    assert_eq!(q.tables, vec!["a", "b", "c"]);
    assert_eq!(q.preds.len(), 2);
    assert_eq!(q.preds[1], ((1, "fk".to_string()), (2, "pk".to_string())));
    assert_eq!(q.filters, vec![((2, "payload".to_string()), 7)]);
    assert!(parse_count_query("SELECT * FROM a").is_err());
    assert!(parse_count_query("SELECT COUNT(*) FROM a, b WHERE a.pk > b.fk").is_err());
}

#[test]
fn join_counts_match_hand_computed_answers() {
    let data = join_data();
    let n = |sql: &str| count(&parse_count_query(sql).unwrap(), &data).unwrap();
    // a.fk = b.pk: a0→b1, a1→b1, a2→b0.
    assert_eq!(n("SELECT COUNT(*) FROM a, b WHERE a.fk = b.pk"), 3);
    // … and b.fk = c.pk: b1.fk = 2 → c2, b0.fk = 0 → c0: all three survive.
    assert_eq!(
        n("SELECT COUNT(*) FROM a, b, c WHERE a.fk = b.pk AND b.fk = c.pk"),
        3
    );
    // A cycle edge c.fk = a.pk: c2.fk = 1 keeps a1 (not a0); c0.fk = 0
    // would need a0, but a2 reached c0.
    assert_eq!(
        n("SELECT COUNT(*) FROM a, b, c WHERE a.fk = b.pk AND b.fk = c.pk AND c.fk = a.pk"),
        1
    );
    // A filter on a: payload < 100 drops a1.
    assert_eq!(
        n("SELECT COUNT(*) FROM a, b WHERE a.fk = b.pk AND a.payload < 100"),
        2
    );
    // No predicate: the cross product.
    assert_eq!(n("SELECT COUNT(*) FROM a, c"), 9);
}

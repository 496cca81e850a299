//! The reference evaluator: expected answers computed in plain Rust from
//! full-table dumps, with hash maps and loops only — no engine join,
//! aggregate or sort is involved, so a wrong engine answer cannot also be
//! the expected one.

use std::collections::HashMap;

use evopt_common::Value;

/// One result row.
pub type Row = Vec<Value>;

/// A dumped table: its name, column names and rows.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl Table {
    pub fn new(name: &str, columns: &[&str], rows: Vec<Row>) -> Table {
        Table {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        }
    }

    /// Position of column `name`.
    pub fn col(&self, name: &str) -> Result<usize, String> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| format!("table {} has no column {name}", self.name))
    }
}

/// How a query orders its output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Order {
    /// Output column the ORDER BY sorts on.
    pub col: usize,
    pub desc: bool,
}

/// The expected answer to one query. For an ORDER BY … LIMIT query `rows`
/// holds every row before the limit, so ties at the cut are judged
/// correctly.
#[derive(Debug, Clone)]
pub struct Expected {
    pub rows: Vec<Row>,
    pub order: Option<Order>,
    pub limit: Option<usize>,
}

impl Expected {
    pub fn unordered(rows: Vec<Row>) -> Expected {
        Expected {
            rows,
            order: None,
            limit: None,
        }
    }
}

/// Compare an engine answer with the expected one.
///
/// Without ORDER BY the two must be equal as multisets. With ORDER BY the
/// answer must also be sorted on the order column. With LIMIT its order
/// column must equal the expected top-k values and each of its rows must
/// be a distinct expected row.
pub fn check(actual: &[Row], expected: &Expected) -> Result<(), String> {
    if let Some(order) = expected.order {
        let key = |r: &Row| r.get(order.col).cloned().unwrap_or(Value::Null);
        for w in actual.windows(2) {
            let (a, b) = (key(&w[0]), key(&w[1]));
            let in_order = if order.desc { a >= b } else { a <= b };
            if !in_order {
                return Err(format!("rows out of order: {a} before {b}"));
            }
        }
        if let Some(limit) = expected.limit {
            let want = limit.min(expected.rows.len());
            if actual.len() != want {
                return Err(format!("{} rows, expected {want}", actual.len()));
            }
            let mut keys: Vec<Value> = expected.rows.iter().map(key).collect();
            keys.sort();
            if order.desc {
                keys.reverse();
            }
            keys.truncate(want);
            let got: Vec<Value> = actual.iter().map(key).collect();
            if got != keys {
                return Err("top-k sort keys differ from the reference".into());
            }
            let mut pool = counts(&expected.rows);
            for r in actual {
                match pool.get_mut(r) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => return Err(format!("row {} is not a reference row", show(r))),
                }
            }
            return Ok(());
        }
    }
    if actual.len() != expected.rows.len() {
        return Err(format!(
            "{} rows, expected {}",
            actual.len(),
            expected.rows.len()
        ));
    }
    if counts(actual) != counts(&expected.rows) {
        return Err("rows differ from the reference".into());
    }
    Ok(())
}

fn counts(rows: &[Row]) -> HashMap<&Row, usize> {
    let mut m = HashMap::new();
    for r in rows {
        *m.entry(r).or_insert(0) += 1;
    }
    m
}

fn show(r: &Row) -> String {
    let cells: Vec<String> = r.iter().map(|v| v.to_string()).collect();
    format!("({})", cells.join(", "))
}

fn int(v: &Value) -> Result<i64, String> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(format!("expected an INT, found {other}")),
    }
}

/// Hash index of `table` on the INT column `col`: key → row positions.
fn hash_index(table: &Table, col: usize) -> Result<HashMap<i64, Vec<usize>>, String> {
    let mut m: HashMap<i64, Vec<usize>> = HashMap::new();
    for (i, r) in table.rows.iter().enumerate() {
        m.entry(int(&r[col])?).or_default().push(i);
    }
    Ok(m)
}

/// The TPC-H-lite battery and its reference answers.
pub mod tpch {
    use super::*;
    use evopt_workload::tpch_lite::queries;

    /// Grouped aggregate over `lineitem`.
    pub const LINEITEM_SUMMARY: &str = "SELECT l_flag, l_line, COUNT(*) AS n, \
         SUM(l_quantity) AS qty, SUM(l_price) AS revenue \
         FROM lineitem GROUP BY l_flag, l_line";

    /// Filtered join with GROUP BY.
    pub const OPEN_ORDERS_BY_NATION: &str = "SELECT c.c_nation, COUNT(*) AS n, \
         SUM(o.o_total) AS total \
         FROM orders o JOIN customer c ON o.o_customer = c.c_key \
         WHERE o.o_status = 'open' GROUP BY c.c_nation";

    /// Filtered scan with an ungrouped aggregate.
    pub const FILTERED_LINES: &str = "SELECT COUNT(*) AS n, SUM(l_price) AS revenue \
         FROM lineitem WHERE l_quantity < 10 AND l_flag = 'R'";

    /// ORDER BY … LIMIT over a join.
    pub const TOP_DONE_LINES: &str = "SELECT l.l_order, l.l_price, o.o_total \
         FROM lineitem l JOIN orders o ON l.l_order = o.o_key \
         WHERE o.o_status = 'done' ORDER BY l.l_price DESC LIMIT 10";

    /// The dumped schema, keyed by table name.
    pub type Data = HashMap<String, Table>;

    type Reference = fn(&Data) -> Result<Expected, String>;

    /// Every battery query with its reference evaluator.
    pub const BATTERY: [(&str, &str, Reference); 7] = [
        (
            "revenue_per_nation",
            queries::REVENUE_PER_NATION,
            revenue_per_nation,
        ),
        ("customer_orders", queries::CUSTOMER_ORDERS, customer_orders),
        (
            "shipped_big_orders",
            queries::SHIPPED_BIG_ORDERS,
            shipped_big_orders,
        ),
        ("lineitem_summary", LINEITEM_SUMMARY, lineitem_summary),
        (
            "open_orders_by_nation",
            OPEN_ORDERS_BY_NATION,
            open_orders_by_nation,
        ),
        ("filtered_lines", FILTERED_LINES, filtered_lines),
        ("top_done_lines", TOP_DONE_LINES, top_done_lines),
    ];

    fn table<'a>(d: &'a Data, name: &str) -> Result<&'a Table, String> {
        d.get(name).ok_or_else(|| format!("no dump of {name}"))
    }

    /// Columns of one table as positions, in the order asked.
    fn cols<const N: usize>(t: &Table, names: [&str; N]) -> Result<[usize; N], String> {
        let mut out = [0usize; N];
        for (o, n) in out.iter_mut().zip(names) {
            *o = t.col(n)?;
        }
        Ok(out)
    }

    fn revenue_per_nation(d: &Data) -> Result<Expected, String> {
        let (l, o, c, n, r) = (
            table(d, "lineitem")?,
            table(d, "orders")?,
            table(d, "customer")?,
            table(d, "nation")?,
            table(d, "region")?,
        );
        let [l_order, l_price] = cols(l, ["l_order", "l_price"])?;
        let [o_key, o_customer] = cols(o, ["o_key", "o_customer"])?;
        let [c_key, c_nation] = cols(c, ["c_key", "c_nation"])?;
        let [n_key, n_region, n_name] = cols(n, ["n_key", "n_region", "n_name"])?;
        let [r_key] = cols(r, ["r_key"])?;
        let (oi, ci, ni, ri) = (
            hash_index(o, o_key)?,
            hash_index(c, c_key)?,
            hash_index(n, n_key)?,
            hash_index(r, r_key)?,
        );
        let mut revenue: HashMap<Value, i64> = HashMap::new();
        for lr in &l.rows {
            for &oi_ in oi.get(&int(&lr[l_order])?).into_iter().flatten() {
                let orow = &o.rows[oi_];
                for &ci_ in ci.get(&int(&orow[o_customer])?).into_iter().flatten() {
                    let crow = &c.rows[ci_];
                    for &ni_ in ni.get(&int(&crow[c_nation])?).into_iter().flatten() {
                        let nrow = &n.rows[ni_];
                        for _ in ri.get(&int(&nrow[n_region])?).into_iter().flatten() {
                            *revenue.entry(nrow[n_name].clone()).or_insert(0) += int(&lr[l_price])?;
                        }
                    }
                }
            }
        }
        Ok(Expected {
            rows: revenue
                .into_iter()
                .map(|(name, sum)| vec![name, Value::Int(sum)])
                .collect(),
            order: Some(Order { col: 1, desc: true }),
            limit: None,
        })
    }

    fn customer_orders(d: &Data) -> Result<Expected, String> {
        let (o, l) = (table(d, "orders")?, table(d, "lineitem")?);
        let [o_key, o_customer] = cols(o, ["o_key", "o_customer"])?;
        let [l_order, l_price] = cols(l, ["l_order", "l_price"])?;
        let li = hash_index(l, l_order)?;
        let mut rows = Vec::new();
        for orow in o.rows.iter().filter(|r| r[o_customer] == Value::Int(7)) {
            for &i in li.get(&int(&orow[o_key])?).into_iter().flatten() {
                rows.push(vec![orow[o_key].clone(), l.rows[i][l_price].clone()]);
            }
        }
        Ok(Expected::unordered(rows))
    }

    fn shipped_big_orders(d: &Data) -> Result<Expected, String> {
        let (o, c) = (table(d, "orders")?, table(d, "customer")?);
        let [o_key, o_customer, o_status] = cols(o, ["o_key", "o_customer", "o_status"])?;
        let [c_key, c_name, c_balance] = cols(c, ["c_key", "c_name", "c_balance"])?;
        let ci = hash_index(c, c_key)?;
        let shipped = Value::Str("shipped".into());
        let mut rows = Vec::new();
        for orow in o.rows.iter().filter(|r| r[o_status] == shipped) {
            for &i in ci.get(&int(&orow[o_customer])?).into_iter().flatten() {
                let crow = &c.rows[i];
                if int(&crow[c_balance])? > 5000 {
                    rows.push(vec![orow[o_key].clone(), crow[c_name].clone()]);
                }
            }
        }
        Ok(Expected::unordered(rows))
    }

    fn lineitem_summary(d: &Data) -> Result<Expected, String> {
        let l = table(d, "lineitem")?;
        let [flag, line, qty, price] = cols(l, ["l_flag", "l_line", "l_quantity", "l_price"])?;
        let mut groups: HashMap<(Value, Value), (i64, i64, i64)> = HashMap::new();
        for r in &l.rows {
            let g = groups
                .entry((r[flag].clone(), r[line].clone()))
                .or_insert((0, 0, 0));
            g.0 += 1;
            g.1 += int(&r[qty])?;
            g.2 += int(&r[price])?;
        }
        Ok(Expected::unordered(
            groups
                .into_iter()
                .map(|((f, ln), (n, q, p))| {
                    vec![f, ln, Value::Int(n), Value::Int(q), Value::Int(p)]
                })
                .collect(),
        ))
    }

    fn open_orders_by_nation(d: &Data) -> Result<Expected, String> {
        let (o, c) = (table(d, "orders")?, table(d, "customer")?);
        let [o_customer, o_status, o_total] = cols(o, ["o_customer", "o_status", "o_total"])?;
        let [c_key, c_nation] = cols(c, ["c_key", "c_nation"])?;
        let ci = hash_index(c, c_key)?;
        let open = Value::Str("open".into());
        let mut groups: HashMap<Value, (i64, i64)> = HashMap::new();
        for orow in o.rows.iter().filter(|r| r[o_status] == open) {
            for &i in ci.get(&int(&orow[o_customer])?).into_iter().flatten() {
                let g = groups.entry(c.rows[i][c_nation].clone()).or_insert((0, 0));
                g.0 += 1;
                g.1 += int(&orow[o_total])?;
            }
        }
        Ok(Expected::unordered(
            groups
                .into_iter()
                .map(|(nation, (n, t))| vec![nation, Value::Int(n), Value::Int(t)])
                .collect(),
        ))
    }

    fn filtered_lines(d: &Data) -> Result<Expected, String> {
        let l = table(d, "lineitem")?;
        let [qty, flag, price] = cols(l, ["l_quantity", "l_flag", "l_price"])?;
        let r = Value::Str("R".into());
        let (mut n, mut sum) = (0i64, 0i64);
        for row in &l.rows {
            if int(&row[qty])? < 10 && row[flag] == r {
                n += 1;
                sum += int(&row[price])?;
            }
        }
        Ok(Expected::unordered(vec![vec![
            Value::Int(n),
            Value::Int(sum),
        ]]))
    }

    fn top_done_lines(d: &Data) -> Result<Expected, String> {
        let (l, o) = (table(d, "lineitem")?, table(d, "orders")?);
        let [l_order, l_price] = cols(l, ["l_order", "l_price"])?;
        let [o_key, o_status, o_total] = cols(o, ["o_key", "o_status", "o_total"])?;
        let oi = hash_index(o, o_key)?;
        let done = Value::Str("done".into());
        let mut rows = Vec::new();
        for lr in &l.rows {
            for &i in oi.get(&int(&lr[l_order])?).into_iter().flatten() {
                let orow = &o.rows[i];
                if orow[o_status] == done {
                    rows.push(vec![
                        lr[l_order].clone(),
                        lr[l_price].clone(),
                        orow[o_total].clone(),
                    ]);
                }
            }
        }
        Ok(Expected {
            rows,
            order: Some(Order { col: 1, desc: true }),
            limit: Some(10),
        })
    }
}

/// `SELECT COUNT(*)` over equi-join graphs.
pub mod joins {
    use super::*;

    /// A column of the FROM list: (table position, column name).
    pub type ColRef = (usize, String);

    /// The shape of a generated count query: its FROM list, its `a.x = b.y`
    /// join predicates and its `a.x < n` filters.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CountQuery {
        pub tables: Vec<String>,
        pub preds: Vec<(ColRef, ColRef)>,
        pub filters: Vec<(ColRef, i64)>,
    }

    /// Read `SELECT COUNT(*) FROM t0, t1, … [WHERE p AND …]` where each `p`
    /// is `a.x = b.y` or `a.x < n`.
    pub fn parse_count_query(sql: &str) -> Result<CountQuery, String> {
        let rest = sql
            .trim()
            .strip_prefix("SELECT COUNT(*) FROM ")
            .ok_or_else(|| format!("not a count query: {sql}"))?;
        let (from, preds) = match rest.split_once(" WHERE ") {
            Some((f, w)) => (f, Some(w)),
            None => (rest, None),
        };
        let tables: Vec<String> = from.split(',').map(|t| t.trim().to_string()).collect();
        let side = |s: &str| -> Result<ColRef, String> {
            let (t, c) = s
                .trim()
                .split_once('.')
                .ok_or_else(|| format!("unqualified column {s}"))?;
            let pos = tables
                .iter()
                .position(|x| x == t)
                .ok_or_else(|| format!("unknown table {t}"))?;
            Ok((pos, c.to_string()))
        };
        let mut q = CountQuery {
            tables: tables.clone(),
            preds: Vec::new(),
            filters: Vec::new(),
        };
        for p in preds.into_iter().flat_map(|w| w.split(" AND ")) {
            if let Some((a, b)) = p.split_once(" = ") {
                q.preds.push((side(a)?, side(b)?));
            } else if let Some((a, n)) = p.split_once(" < ") {
                let n = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("not an INT bound: {p}"))?;
                q.filters.push((side(a)?, n));
            } else {
                return Err(format!("unsupported predicate: {p}"));
            }
        }
        Ok(q)
    }

    /// Partial join rows the evaluator may visit before giving up.
    const MAX_STEPS: u64 = 50_000_000;

    /// COUNT(*) of the query over `data` (tables by name), by
    /// backtracking through the FROM list in order: each next table is
    /// probed through a hash index on one predicate linking it to the
    /// tables already bound, and its other predicates and filters are
    /// checked row by row.
    pub fn count(q: &CountQuery, data: &HashMap<String, Table>) -> Result<u64, String> {
        let tables: Vec<&Table> = q
            .tables
            .iter()
            .map(|t| data.get(t).ok_or_else(|| format!("no dump of {t}")))
            .collect::<Result<_, _>>()?;
        let n = tables.len();
        // For each table i: (my column, earlier table j, its column).
        let mut links: Vec<Vec<(usize, usize, usize)>> = vec![Vec::new(); n];
        for ((ta, ca), (tb, cb)) in &q.preds {
            let (ca, cb) = (tables[*ta].col(ca)?, tables[*tb].col(cb)?);
            if ta == tb {
                return Err("self-predicates are not supported".into());
            }
            let (later, lc, earlier, ec) = if ta > tb {
                (*ta, ca, *tb, cb)
            } else {
                (*tb, cb, *ta, ca)
            };
            links[later].push((lc, earlier, ec));
        }
        let mut filters: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
        for ((t, c), bound) in &q.filters {
            filters[*t].push((tables[*t].col(c)?, *bound));
        }
        let probes = tables
            .iter()
            .zip(&links)
            .map(|(t, l)| l.first().map(|(c, _, _)| hash_index(t, *c)).transpose())
            .collect::<Result<_, _>>()?;
        let mut eval = Eval {
            tables,
            links,
            filters,
            probes,
            bound: vec![0; n],
            steps: 0,
        };
        eval.extend(0)
    }

    struct Eval<'a> {
        tables: Vec<&'a Table>,
        links: Vec<Vec<(usize, usize, usize)>>,
        filters: Vec<Vec<(usize, i64)>>,
        probes: Vec<Option<HashMap<i64, Vec<usize>>>>,
        /// The row chosen for each table bound so far.
        bound: Vec<usize>,
        steps: u64,
    }

    impl Eval<'_> {
        fn value(&self, t: usize, row: usize, col: usize) -> Result<i64, String> {
            int(&self.tables[t].rows[row][col])
        }

        /// Whether `row` of table `i` passes its filters and every
        /// predicate to the tables bound before it.
        fn fits(&self, i: usize, row: usize) -> Result<bool, String> {
            for &(c, bound) in &self.filters[i] {
                if self.value(i, row, c)? >= bound {
                    return Ok(false);
                }
            }
            for &(c, j, jc) in &self.links[i] {
                if self.value(i, row, c)? != self.value(j, self.bound[j], jc)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }

        fn extend(&mut self, i: usize) -> Result<u64, String> {
            if i == self.tables.len() {
                return Ok(1);
            }
            let candidates: Vec<usize> = match (&self.probes[i], self.links[i].first()) {
                (Some(index), Some(&(_, j, jc))) => index
                    .get(&self.value(j, self.bound[j], jc)?)
                    .cloned()
                    .unwrap_or_default(),
                _ => (0..self.tables[i].rows.len()).collect(),
            };
            let mut total = 0u64;
            for row in candidates {
                self.steps += 1;
                if self.steps > MAX_STEPS {
                    return Err("reference join exceeded its step budget".into());
                }
                if self.fits(i, row)? {
                    self.bound[i] = row;
                    total += self.extend(i + 1)?;
                }
            }
            Ok(total)
        }
    }
}

//! The `oltp_wire` statement stream and the per-connection model that
//! predicts every answer.
//!
//! Keys live in `unique2`. The load holds the even keys `0, 2, …`; each
//! connection owns one contiguous key range and inserts fresh odd keys
//! only inside it, so no two connections ever touch the same row and each
//! connection's model is exact without coordination.

use std::collections::BTreeMap;

use evopt_common::{Tuple, Value};
use evopt_engine::QueryResult;
use evopt_server::Response;
use evopt_workload::dist::permutation;
use evopt_workload::ZipfSampler;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The benchmark table.
pub const TABLE: &str = "wisc";

/// Keys a range COUNT spans.
pub const RANGE_KEYS: i64 = 100;

pub const CREATE_TABLE: &str = "CREATE TABLE wisc (unique1 INT NOT NULL, unique2 INT NOT NULL, \
     one_pct INT NOT NULL, ten_pct INT NOT NULL, twenty_pct INT NOT NULL, odd INT NOT NULL, \
     stringu1 STRING NOT NULL)";

pub const CREATE_INDEX: &str = "CREATE UNIQUE INDEX wisc_key ON wisc (unique2)";

/// The Wisconsin-style row for `key` with the scattered value `u1`.
pub fn row(u1: i64, key: i64) -> Vec<Value> {
    vec![
        Value::Int(u1),
        Value::Int(key),
        Value::Int(u1 % 100),
        Value::Int(u1 % 10),
        Value::Int(u1 % 5),
        Value::Int(u1 % 2),
        Value::Str(format!("val-{u1:08}")),
    ]
}

/// The loaded table for `rows` rows: row `i` has key `2i` and a seeded
/// permutation value in `unique1`. Sorted by key.
pub fn initial_rows(rows: usize, seed: u64) -> Vec<Vec<Value>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let u1 = permutation(rows, &mut rng);
    (0..rows).map(|i| row(u1[i], 2 * i as i64)).collect()
}

/// The key range `[lo, hi)` connection `conn` of `conns` owns.
pub fn key_range(conn: usize, conns: usize, rows: usize) -> (i64, i64) {
    let span = 2 * (rows / conns) as i64;
    let lo = conn as i64 * span;
    let hi = if conn + 1 == conns {
        2 * rows as i64
    } else {
        lo + span
    };
    (lo, hi)
}

/// One statement of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `SELECT *` of one key.
    Point(i64),
    /// `COUNT(*)` of keys in `[lo, lo + RANGE_KEYS)`.
    Range(i64),
    /// Set `ten_pct` of one key.
    Update(i64, i64),
    /// Insert a fresh row.
    Insert(i64, i64),
}

impl Op {
    pub fn sql(&self) -> String {
        match self {
            Op::Point(k) => format!("SELECT * FROM {TABLE} WHERE unique2 = {k}"),
            Op::Range(lo) => format!(
                "SELECT COUNT(*) FROM {TABLE} WHERE unique2 >= {lo} AND unique2 < {}",
                lo + RANGE_KEYS
            ),
            Op::Update(k, v) => format!("UPDATE {TABLE} SET ten_pct = {v} WHERE unique2 = {k}"),
            Op::Insert(u1, k) => {
                let cells: Vec<String> = row(*u1, *k).iter().map(|v| v.to_string()).collect();
                format!("INSERT INTO {TABLE} VALUES ({})", cells.join(", "))
            }
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Update(..) | Op::Insert(..))
    }

    /// Bytes of user data the statement writes (0 for reads).
    pub fn user_bytes(&self) -> usize {
        match self {
            Op::Point(_) | Op::Range(_) => 0,
            // The new value of one INT column.
            Op::Update(..) => 8,
            Op::Insert(u1, k) => Tuple::new(row(*u1, *k)).encoded_len(),
        }
    }
}

/// What the model says a statement must return.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A point read: the row, or no row.
    Row(Option<Vec<Value>>),
    /// A range COUNT.
    Count(i64),
    /// Rows a write affected.
    Affected(usize),
}

impl Expect {
    /// Check an over-the-wire response (rendered text).
    pub fn check_wire(&self, resp: &Response) -> Result<(), String> {
        let text = match resp {
            Response::Result(t) => t,
            other => return Err(format!("error reply: {other:?}")),
        };
        match self {
            Expect::Affected(n) => {
                let want = format!("{n} row(s) affected");
                if text.trim() == want {
                    Ok(())
                } else {
                    Err(format!("got {text:?}, expected {want:?}"))
                }
            }
            Expect::Row(want) => {
                let want: Vec<Vec<String>> = want
                    .iter()
                    .map(|r| r.iter().map(|v| v.to_string()).collect())
                    .collect();
                same(&rendered_rows(text)?, &want)
            }
            Expect::Count(n) => same(&rendered_rows(text)?, &[vec![n.to_string()]]),
        }
    }

    /// Check an in-process result.
    pub fn check_local(&self, result: &QueryResult) -> Result<(), String> {
        match (self, result) {
            (Expect::Affected(n), QueryResult::Affected(m)) => eq(m, n),
            (Expect::Row(_) | Expect::Count(_), QueryResult::Rows { rows, .. }) => {
                self.check_rows(rows)
            }
            (_, other) => Err(format!("unexpected result {other:?}")),
        }
    }

    /// Check the rows of a SELECT.
    pub fn check_rows(&self, rows: &[Tuple]) -> Result<(), String> {
        let got: Vec<Vec<Value>> = rows.iter().map(|t| t.values().to_vec()).collect();
        match self {
            Expect::Row(want) => same(&got, &want.iter().cloned().collect::<Vec<_>>()),
            Expect::Count(n) => same(&got, &[vec![Value::Int(*n)]]),
            Expect::Affected(_) => Err("a write returned rows".into()),
        }
    }
}

fn eq<T: PartialEq + std::fmt::Debug>(got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("got {got:?}, expected {want:?}"))
    }
}

fn same<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T]) -> Result<(), String> {
    eq(&got, &want)
}

/// The data rows of a rendered result table: every `| a | b |` line after
/// the header, split into cells.
pub fn rendered_rows(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h.starts_with('|') => {}
        _ => return Err(format!("no result header in {text:?}")),
    }
    Ok(lines
        .filter(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split(" | ")
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect())
}

/// Statement mix in percent: point reads, range counts, updates; the rest
/// (5%) are inserts.
pub const MIX_PCT: [u32; 3] = [70, 10, 15];

/// Zipf skew of key choice.
pub const THETA: f64 = 0.9;

/// One connection's model of its key range, plus the seeded generator of
/// its statement stream.
#[derive(Debug, Clone)]
pub struct ConnModel {
    lo: i64,
    hi: i64,
    rows: BTreeMap<i64, Vec<Value>>,
    /// Loaded keys, hottest first.
    hot: Vec<i64>,
    zipf: ZipfSampler,
    rng: StdRng,
    next_u1: i64,
}

impl ConnModel {
    /// The model of `[lo, hi)` over the loaded `rows` (every loaded row;
    /// the model keeps those in its range).
    pub fn new(lo: i64, hi: i64, loaded: &[Vec<Value>], seed: u64) -> ConnModel {
        let rows: BTreeMap<i64, Vec<Value>> = loaded
            .iter()
            .filter_map(|r| match r[1] {
                Value::Int(k) if (lo..hi).contains(&k) => Some((k, r.clone())),
                _ => None,
            })
            .collect();
        let keys: Vec<i64> = rows.keys().copied().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let order = permutation(keys.len().max(1), &mut rng);
        let hot = order
            .iter()
            .filter_map(|&i| keys.get(i as usize).copied())
            .collect();
        ConnModel {
            lo,
            hi,
            zipf: ZipfSampler::new(keys.len().max(1), THETA),
            rows,
            hot,
            rng,
            next_u1: 1_000_000_000 + lo,
        }
    }

    pub fn rows(&self) -> &BTreeMap<i64, Vec<Value>> {
        &self.rows
    }

    fn hot_key(&mut self) -> i64 {
        let rank = self.zipf.sample(&mut self.rng);
        self.hot.get(rank).copied().unwrap_or(self.lo)
    }

    /// Draw the next statement of the mix.
    pub fn next_op(&mut self) -> Op {
        let [point, range, update] = MIX_PCT;
        let roll = self.rng.random_range(0..100u32);
        if roll < point {
            Op::Point(self.hot_key())
        } else if roll < point + range {
            let k = self.hot_key();
            Op::Range(k.min(self.hi - RANGE_KEYS).max(self.lo))
        } else if roll < point + range + update {
            let k = self.hot_key();
            Op::Update(k, self.rng.random_range(0..10i64))
        } else {
            loop {
                let k = self.rng.random_range(self.lo / 2..self.hi / 2) * 2 + 1;
                if k < self.hi && !self.rows.contains_key(&k) {
                    self.next_u1 += 1;
                    break Op::Insert(self.next_u1, k);
                }
            }
        }
    }

    /// The answer `op` must get, without applying it.
    pub fn expect(&self, op: &Op) -> Expect {
        match op {
            Op::Point(k) => Expect::Row(self.rows.get(k).cloned()),
            Op::Range(lo) => Expect::Count(self.rows.range(*lo..lo + RANGE_KEYS).count() as i64),
            Op::Update(k, _) => Expect::Affected(usize::from(self.rows.contains_key(k))),
            Op::Insert(..) => Expect::Affected(1),
        }
    }

    /// Record that `op` was acknowledged.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Update(k, v) => {
                if let Some(r) = self.rows.get_mut(k) {
                    r[3] = Value::Int(*v);
                }
            }
            Op::Insert(u1, k) => {
                self.rows.insert(*k, row(*u1, *k));
            }
            Op::Point(_) | Op::Range(_) => {}
        }
    }
}

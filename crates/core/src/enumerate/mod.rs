//! Join-order enumeration.
//!
//! All strategies share one plan space, defined here:
//!
//! * a [`SubPlan`] is a costed *descriptor* of a plan covering a subset of
//!   the join graph's relations (a [`RelMask`]): its rows, width, cost,
//!   produced order, root operator name, and the [`Step`] that combines
//!   its `Rc`-shared inputs. Nothing physical exists during the search;
//! * [`JoinContext::base_subplans`] turns access-path choices into leaf
//!   descriptors;
//! * [`JoinContext::join_candidates`] costs two descriptors joined by every
//!   applicable method (NL, block-NL, index-NL, sort-merge, hash) from
//!   their rows, pages and the split's selectivity;
//! * [`JoinContext::materialize`] builds the one [`PhysicalPlan`] of the
//!   winner: join keys, residuals, and exactly the predicates that first
//!   become evaluable at each join, remapped to its output columns.
//!
//! The strategies ([`Strategy`]) then differ only in *which* combinations
//! they explore: exhaustive left-deep DP with interesting orders (System R),
//! exhaustive bushy DP, greedy left-deep, greedy operator ordering, random
//! sampling, or the unoptimized syntactic baseline.

pub mod dp_bushy;
pub mod dp_ccp;
pub mod dp_sysr;
pub mod goo;
pub mod greedy;
pub mod quickpick;
pub mod syntactic;

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use evopt_common::{EvoptError, Expr, Result, Schema};
use evopt_obs::{PruneReason, TraceSink};
use evopt_plan::join_graph::{GraphPredicate, JoinGraph, RelMask};

use crate::access_path::{IndexMeta, PathChoice, PathKind};
use crate::cost::{Cost, CostModel};
use crate::physical::{PhysOp, PhysicalPlan};
use crate::selectivity::EstimationContext;

/// Usable bytes per page when estimating materialised sizes.
const USABLE_PAGE_BYTES: f64 = 4084.0;

/// Which enumeration algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// System R: dynamic programming over left-deep trees with interesting
    /// orders and deferred cross products. The default.
    SystemR,
    /// Dynamic programming over all bushy trees (naive partition
    /// enumeration, O(3ⁿ)).
    BushyDp,
    /// Bushy DP via connected-subgraph/complement-pair enumeration
    /// (DPccp): identical plan space and optimum, enumeration effort
    /// proportional to the number of *connected* pairs.
    DpCcp,
    /// Left-deep greedy: repeatedly join in the neighbour producing the
    /// smallest intermediate result.
    Greedy,
    /// Greedy operator ordering: repeatedly merge the *pair* of subplans
    /// with the smallest join result (produces bushy trees).
    Goo,
    /// Sample `samples` random join orders, keep the cheapest.
    QuickPick { samples: usize, seed: u64 },
    /// No optimization: syntactic order, sequential scans, block nested
    /// loops. The 1977 "unoptimized" baseline.
    Syntactic,
}

impl Strategy {
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::SystemR => "system-r",
            Strategy::BushyDp => "bushy-dp",
            Strategy::DpCcp => "dpccp",
            Strategy::Greedy => "greedy",
            Strategy::Goo => "goo",
            Strategy::QuickPick { .. } => "quickpick",
            Strategy::Syntactic => "syntactic",
        }
    }
}

/// One relation of the join graph, with everything the enumerator needs.
#[derive(Debug, Clone)]
pub struct BaseRel {
    /// Base-table name (`None` for opaque leaves like aggregates-in-FROM).
    pub table: Option<String>,
    /// Rows before local predicates.
    pub rows_raw: f64,
    /// Heap pages.
    pub pages_raw: f64,
    /// Mean tuple bytes.
    pub width: f64,
    /// Combined selectivity of the relation's local predicates.
    pub local_sel: f64,
    /// Local predicates in **global** ordinals (for index-NL residuals).
    pub local_preds_global: Vec<Expr>,
    /// Access-path candidates (table-local ordinals).
    pub paths: Vec<PathChoice>,
    /// Indexes (table-local column ordinals), for index nested loops.
    pub indexes: Vec<IndexMeta>,
    /// Pre-built physical plan for opaque leaves.
    pub opaque_plan: Option<PhysicalPlan>,
}

/// Shared state for one enumeration run.
pub struct JoinContext<'a> {
    pub graph: &'a JoinGraph,
    /// Global-ordinal statistics.
    pub est: &'a EstimationContext,
    pub model: &'a CostModel,
    pub rels: Vec<BaseRel>,
    /// Global ordinal the final output should be ordered by, if any.
    pub required_order: Option<usize>,
    /// When false, produced orders are discarded (ablation for F3).
    pub track_orders: bool,
    /// Search-trace sink; `None` disables all recording.
    pub trace: Option<&'a TraceSink>,
}

/// How a join [`SubPlan`] combines its two inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMethod {
    BlockNestedLoop,
    NestedLoop,
    Hash,
    SortMerge,
    /// Probe index `index` of the single inner relation (its position in
    /// [`BaseRel::indexes`]) once per outer row.
    IndexNestedLoop {
        index: usize,
    },
}

impl JoinMethod {
    /// The physical operator's name, as [`PhysicalPlan::op_name`] prints it.
    pub fn name(&self) -> &'static str {
        match self {
            JoinMethod::BlockNestedLoop => "BlockNestedLoopJoin",
            JoinMethod::NestedLoop => "NestedLoopJoin",
            JoinMethod::Hash => "HashJoin",
            JoinMethod::SortMerge => "SortMergeJoin",
            JoinMethod::IndexNestedLoop { .. } => "IndexNestedLoopJoin",
        }
    }
}

/// How a [`SubPlan`] is built from its inputs.
#[derive(Debug, Clone)]
pub enum Step {
    /// Access path `path` of relation `rel` ([`BaseRel::paths`]); `None` is
    /// an opaque leaf's pre-built plan.
    Scan { rel: usize, path: Option<usize> },
    /// `left ⋈ right`: the output holds left's columns, then right's.
    Join {
        method: JoinMethod,
        left: Rc<SubPlan>,
        right: Rc<SubPlan>,
    },
    /// An explicit ascending sort on global column `key`.
    Sort { input: Rc<SubPlan>, key: usize },
}

/// A costed plan covering `mask`'s relations, described but not built.
/// Its output columns are its relations' columns in leaf order (see
/// [`JoinContext::col_map`]).
#[derive(Debug, Clone)]
pub struct SubPlan {
    pub mask: RelMask,
    pub rows: f64,
    pub width: f64,
    pub cost: Cost,
    /// Global ordinal whose ascending order the output satisfies.
    pub order: Option<usize>,
    /// Name of the root operator (the trace's method label).
    pub method: &'static str,
    pub step: Step,
}

impl SubPlan {
    /// Estimated materialised size in pages.
    pub fn pages(&self) -> f64 {
        ((self.rows * self.width) / USABLE_PAGE_BYTES)
            .ceil()
            .max(1.0)
    }

    /// Call `f` with each relation whose columns make up the output, in
    /// output order.
    fn for_each_leaf(&self, f: &mut impl FnMut(usize)) {
        match &self.step {
            Step::Scan { rel, .. } => f(*rel),
            Step::Join { left, right, .. } => {
                left.for_each_leaf(f);
                right.for_each_leaf(f);
            }
            Step::Sort { input, .. } => input.for_each_leaf(f),
        }
    }
}

impl<'a> JoinContext<'a> {
    /// Total number of global columns.
    pub fn total_cols(&self) -> usize {
        self.graph.offsets.last().map_or(0, |&o| o)
            + self.graph.schemas.last().map_or(0, |s| s.len())
    }

    fn bit(r: usize) -> RelMask {
        1u64 << r
    }

    /// The relation global column `g` belongs to.
    fn rel_of(&self, g: usize) -> usize {
        self.graph
            .offsets
            .partition_point(|&o| o <= g)
            .saturating_sub(1)
    }

    /// Global ordinal → position in `sp`'s output (`None` outside its
    /// relations).
    pub fn col_map(&self, sp: &SubPlan) -> Vec<Option<usize>> {
        let mut map = vec![None; self.total_cols()];
        let mut pos = 0;
        sp.for_each_leaf(&mut |r| {
            let offset = self.graph.offsets[r];
            for slot in &mut map[offset..offset + self.graph.schemas[r].len()] {
                *slot = Some(pos);
                pos += 1;
            }
        });
        map
    }

    /// How many global columns sit at their own ordinal in `sp`'s output.
    fn fixed_points(&self, sp: &SubPlan) -> usize {
        let (mut pos, mut fixed) = (0, 0);
        sp.for_each_leaf(&mut |r| {
            let ncols = self.graph.schemas[r].len();
            if pos == self.graph.offsets[r] {
                fixed += ncols;
            }
            pos += ncols;
        });
        fixed
    }

    /// Leaf subplans for relation `r`, one per surviving access path.
    pub fn base_subplans(&self, r: usize) -> Vec<SubPlan> {
        let rel = &self.rels[r];
        let leaf = |path, rows, cost, order, method| SubPlan {
            mask: Self::bit(r),
            rows,
            width: rel.width,
            cost,
            order,
            method,
            step: Step::Scan { rel: r, path },
        };
        if let Some(plan) = &rel.opaque_plan {
            return vec![leaf(
                None,
                plan.est_rows,
                plan.est_cost,
                None,
                plan.op_name(),
            )];
        }
        // A non-opaque leaf always names a table; if that invariant ever
        // breaks, return no paths and let the caller surface the error.
        if rel.table.is_none() {
            return Vec::new();
        }
        let offset = self.graph.offsets[r];
        rel.paths
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let order = if self.track_orders {
                    p.order.map(|c| c + offset)
                } else {
                    None
                };
                let method = match p.kind {
                    PathKind::SeqScan { .. } => "SeqScan",
                    PathKind::IndexScan { .. } => "IndexScan",
                };
                leaf(Some(i), p.rows, p.cost, order, method)
            })
            .collect()
    }

    /// The cheapest leaf subplan for `r` (by total cost).
    pub fn cheapest_base(&self, r: usize) -> Result<Rc<SubPlan>> {
        self.base_subplans(r)
            .into_iter()
            .min_by(|a, b| {
                self.model
                    .total(a.cost)
                    .total_cmp(&self.model.total(b.cost))
            })
            .map(Rc::new)
            .ok_or_else(|| EvoptError::Internal(format!("relation {r} has no access path")))
    }

    /// The sequential-scan leaf for `r` (the baseline's only choice).
    pub fn seq_base(&self, r: usize) -> Result<Rc<SubPlan>> {
        self.base_subplans(r)
            .into_iter()
            .find(|sp| sp.method == "SeqScan" || self.rels[r].opaque_plan.is_some())
            .map(Rc::new)
            .ok_or_else(|| EvoptError::Internal(format!("relation {r} has no seq-scan path")))
    }

    /// The first equi-join predicate usable as a physical key for
    /// `left ⋈ right`, as (global left column, global right column).
    fn join_key(
        &self,
        preds: &[&GraphPredicate],
        left: RelMask,
        right: RelMask,
    ) -> Option<(usize, usize)> {
        let holds = |mask: RelMask, g: usize| mask & Self::bit(self.rel_of(g)) != 0;
        preds.iter().find_map(|p| {
            let (a, b) = p.as_equi_join()?;
            if holds(left, a) && holds(right, b) {
                Some((a, b))
            } else if holds(left, b) && holds(right, a) {
                Some((b, a))
            } else {
                None
            }
        })
    }

    /// Extra cost of presenting `sp` ordered on global column `g`: zero
    /// when it already is.
    fn sort_cost(&self, sp: &SubPlan, g: usize) -> Cost {
        if self.track_orders && sp.order == Some(g) {
            Cost::ZERO
        } else {
            self.model.sort(sp.rows, sp.pages())
        }
    }

    /// All join methods applicable to `left ⋈ right`, costed but not built.
    /// Empty when the pair is unconnected and `allow_cross` is false.
    pub fn join_candidates(
        &self,
        left: &Rc<SubPlan>,
        right: &Rc<SubPlan>,
        allow_cross: bool,
    ) -> Vec<SubPlan> {
        debug_assert_eq!(left.mask & right.mask, 0, "overlapping subplans");
        let preds = self.graph.join_predicates(left.mask, right.mask);
        if preds.is_empty() && !allow_cross {
            return vec![];
        }
        let sel: f64 = preds
            .iter()
            .map(|p| self.est.selectivity(&p.expr))
            .product();
        let rows = (left.rows * right.rows * sel).max(1e-6);
        let width = left.width + right.width;
        let mask = left.mask | right.mask;
        let mk = |method: JoinMethod, cost: Cost, order: Option<usize>| SubPlan {
            mask,
            rows,
            width,
            cost,
            order: if self.track_orders { order } else { None },
            method: method.name(),
            step: Step::Join {
                method,
                left: Rc::clone(left),
                right: Rc::clone(right),
            },
        };
        let mut out = Vec::new();

        // Block nested loops: always applicable. Does NOT preserve the
        // outer order (the executor loops inner-tuple-over-block).
        let bnl_cost = left.cost
            + right.cost
            + self
                .model
                .bnl_join(left.rows, left.pages(), right.rows, right.pages());
        out.push(mk(JoinMethod::BlockNestedLoop, bnl_cost, None));

        // Tuple nested loops: right side re-run per outer row; only offered
        // when the right side is a single relation (re-running a deep tree
        // is never competitive and bloats the search).
        if right.mask.count_ones() == 1 {
            let nl_cost = left.cost + self.model.nl_join(left.rows, right.cost, right.rows);
            out.push(mk(JoinMethod::NestedLoop, nl_cost, left.order));
        }

        if let Some((ga, gb)) = self.join_key(&preds, left.mask, right.mask) {
            // Hash join (build right, probe left; probe order preserved).
            let hj_cost = left.cost
                + right.cost
                + self
                    .model
                    .hash_join(left.rows, left.pages(), right.rows, right.pages());
            out.push(mk(JoinMethod::Hash, hj_cost, left.order));

            // Sort-merge join: sort whichever inputs aren't already ordered.
            let smj_cost = left.cost
                + right.cost
                + self.sort_cost(left, ga)
                + self.sort_cost(right, gb)
                + self.model.merge_join(left.rows, right.rows);
            out.push(mk(JoinMethod::SortMerge, smj_cost, Some(ga)));

            // Index nested loops: right must be one base relation with an
            // index on the join column.
            if right.mask.count_ones() == 1 {
                let r_idx = right.mask.trailing_zeros() as usize;
                let rel = &self.rels[r_idx];
                if rel.table.is_some() {
                    let local_col = gb - self.graph.offsets[r_idx];
                    for (index, idx) in rel.indexes.iter().enumerate() {
                        if idx.column != local_col {
                            continue;
                        }
                        let probe_sel = self.est.join_eq_selectivity(ga, gb);
                        let matches_per_probe = rel.rows_raw * probe_sel;
                        let inl_cost = left.cost
                            + self.model.inl_join(
                                left.rows,
                                idx.height,
                                matches_per_probe,
                                idx.clustered,
                                rel.pages_raw,
                                rel.rows_raw,
                            );
                        out.push(mk(
                            JoinMethod::IndexNestedLoop { index },
                            inl_cost,
                            left.order,
                        ));
                    }
                }
            }
        }
        out
    }

    /// Wrap `sp` in an explicit sort on global column `g`.
    pub fn enforce_order(&self, sp: &Rc<SubPlan>, g: usize) -> SubPlan {
        SubPlan {
            mask: sp.mask,
            rows: sp.rows,
            width: sp.width,
            cost: sp.cost + self.model.sort(sp.rows, sp.pages()),
            order: Some(g),
            method: "Sort",
            step: Step::Sort {
                input: Rc::clone(sp),
                key: g,
            },
        }
    }

    /// From complete candidates, pick the best given the required order:
    /// an already-ordered plan competes against cheapest-plus-sort. The
    /// comparison also charges the column-order-restoring projection that
    /// `finalize` will add for non-identity outputs, so the enumeration
    /// objective matches the cost of the plan actually returned.
    pub fn pick_final(&self, candidates: Vec<Rc<SubPlan>>) -> Result<Rc<SubPlan>> {
        let total = self.total_cols();
        let effective = |sp: &SubPlan| {
            let restore = if self.fixed_points(sp) == total {
                Cost::ZERO
            } else {
                self.model.per_tuple(sp.rows)
            };
            self.model.total(sp.cost + restore)
        };
        let mut best: Option<Rc<SubPlan>> = None;
        for sp in candidates {
            let sp = match self.required_order {
                Some(g) if sp.order != Some(g) => Rc::new(self.enforce_order(&sp, g)),
                _ => sp,
            };
            let replace = match &best {
                None => true,
                Some(b) => effective(&sp) < effective(b),
            };
            if replace {
                best = Some(sp);
            }
        }
        best.ok_or_else(|| EvoptError::Plan("enumeration produced no plan".into()))
    }

    /// Whether joining `left` to `right` is connected (has a predicate).
    pub fn is_connected(&self, left: RelMask, right: RelMask) -> bool {
        self.graph.connected(left, right)
    }

    // -- materialization ------------------------------------------------------
    //
    // The search above never builds a plan. `materialize` builds the one the
    // search picked, making the same choices `join_candidates` costed: the
    // same join key, the same residuals, the same sorts.

    /// Build the physical plan `sp` describes. Every node carries the
    /// descriptor's estimates, so the plan's costs are the search's costs.
    pub fn materialize(&self, sp: &SubPlan) -> Result<PhysicalPlan> {
        match &sp.step {
            Step::Scan { rel, path } => self.scan_plan(sp, *rel, *path),
            Step::Sort { input, key } => {
                let child = self.materialize(input)?;
                self.sort_plan(input, child, *key, sp.cost)
            }
            Step::Join {
                method,
                left,
                right,
            } => self.join_plan(sp, *method, left, right),
        }
    }

    fn scan_plan(&self, sp: &SubPlan, r: usize, path: Option<usize>) -> Result<PhysicalPlan> {
        let rel = &self.rels[r];
        let missing = || EvoptError::Internal(format!("relation {r} has no such access path"));
        let Some(path) = path else {
            return rel.opaque_plan.clone().ok_or_else(missing);
        };
        let (Some(table), Some(p)) = (&rel.table, rel.paths.get(path)) else {
            return Err(missing());
        };
        let op = match &p.kind {
            PathKind::SeqScan { filter } => PhysOp::SeqScan {
                table: table.clone(),
                filter: filter.clone(),
            },
            PathKind::IndexScan {
                index,
                range,
                residual,
                clustered,
            } => PhysOp::IndexScan {
                table: table.clone(),
                index: index.clone(),
                range: range.clone(),
                residual: residual.clone(),
                clustered: *clustered,
            },
        };
        Ok(PhysicalPlan {
            op,
            schema: self.graph.schemas[r].clone(),
            est_rows: sp.rows,
            est_cost: sp.cost,
            output_order: sp.order,
        })
    }

    /// Position of global column `g` in `sp`'s output.
    fn local_col(&self, sp: &SubPlan, g: usize) -> Result<usize> {
        self.col_map(sp).get(g).copied().flatten().ok_or_else(|| {
            EvoptError::Internal(format!("column {g} missing from the subplan's col_map"))
        })
    }

    /// `child` (the plan of `input`) sorted on global column `g`, costing
    /// `est_cost` in total.
    fn sort_plan(
        &self,
        input: &SubPlan,
        child: PhysicalPlan,
        g: usize,
        est_cost: Cost,
    ) -> Result<PhysicalPlan> {
        Ok(PhysicalPlan {
            schema: child.schema.clone(),
            est_rows: input.rows,
            est_cost,
            output_order: Some(g),
            op: PhysOp::Sort {
                keys: vec![(self.local_col(input, g)?, true)],
                input: Box::new(child),
            },
        })
    }

    /// The plan of `sp` as a merge-join input keyed on global column `g`.
    fn sorted_input(&self, sp: &SubPlan, g: usize) -> Result<PhysicalPlan> {
        let plan = self.materialize(sp)?;
        if self.track_orders && sp.order == Some(g) {
            return Ok(plan);
        }
        let est_cost = sp.cost + self.model.sort(sp.rows, sp.pages());
        self.sort_plan(sp, plan, g, est_cost)
    }

    /// The conjunction of `exprs` in `col_map`-local ordinals, if any.
    fn conjunction(&self, exprs: Vec<Expr>, col_map: &[Option<usize>]) -> Result<Option<Expr>> {
        if exprs.is_empty() {
            return Ok(None);
        }
        let e = Expr::conjunction(exprs);
        e.try_remap_columns(&|g| col_map.get(g).copied().flatten())
            .map(Some)
            .map_err(|_| {
                EvoptError::Plan(format!(
                    "predicate {e} references a column outside the joined subset"
                ))
            })
    }

    /// Output schema of `sp`: its leaves' columns in output order.
    fn schema(&self, sp: &SubPlan) -> Schema {
        let mut columns = Vec::new();
        sp.for_each_leaf(&mut |r| {
            let leaf = match &self.rels[r].opaque_plan {
                Some(plan) => &plan.schema,
                None => &self.graph.schemas[r],
            };
            columns.extend_from_slice(leaf.columns());
        });
        Schema::new(columns)
    }

    /// The physical key of `left ⋈ right` and the predicates left over.
    fn keyed(&self, preds: &[&GraphPredicate], left: &SubPlan, right: &SubPlan) -> Result<Keyed> {
        let (ga, gb) = self
            .join_key(preds, left.mask, right.mask)
            .ok_or_else(|| EvoptError::Internal("keyed join without an equi-join key".into()))?;
        let residual = preds
            .iter()
            .filter(|p| p.as_equi_join() != Some((ga.min(gb), ga.max(gb))))
            .map(|p| p.expr.clone())
            .collect();
        Ok(Keyed {
            global: (ga, gb),
            local: (self.local_col(left, ga)?, self.local_col(right, gb)?),
            residual,
        })
    }

    fn join_plan(
        &self,
        sp: &SubPlan,
        method: JoinMethod,
        left: &SubPlan,
        right: &SubPlan,
    ) -> Result<PhysicalPlan> {
        let preds = self.graph.join_predicates(left.mask, right.mask);
        let col_map = self.col_map(sp);
        let all_preds =
            || self.conjunction(preds.iter().map(|p| p.expr.clone()).collect(), &col_map);
        let built = |input: &SubPlan| self.materialize(input).map(Box::new);
        let op = match method {
            JoinMethod::BlockNestedLoop => PhysOp::BlockNestedLoopJoin {
                left: built(left)?,
                right: built(right)?,
                predicate: all_preds()?,
                block_pages: self.model.buffer_pages,
            },
            JoinMethod::NestedLoop => PhysOp::NestedLoopJoin {
                left: built(left)?,
                right: built(right)?,
                predicate: all_preds()?,
            },
            JoinMethod::Hash => {
                let k = self.keyed(&preds, left, right)?;
                PhysOp::HashJoin {
                    left: built(left)?,
                    right: built(right)?,
                    left_key: k.local.0,
                    right_key: k.local.1,
                    residual: self.conjunction(k.residual, &col_map)?,
                }
            }
            JoinMethod::SortMerge => {
                let k = self.keyed(&preds, left, right)?;
                PhysOp::SortMergeJoin {
                    left: Box::new(self.sorted_input(left, k.global.0)?),
                    right: Box::new(self.sorted_input(right, k.global.1)?),
                    left_key: k.local.0,
                    right_key: k.local.1,
                    residual: self.conjunction(k.residual, &col_map)?,
                }
            }
            JoinMethod::IndexNestedLoop { index } => {
                let Keyed {
                    local: (outer_key, _),
                    mut residual,
                    ..
                } = self.keyed(&preds, left, right)?;
                let r = right.mask.trailing_zeros() as usize;
                let rel = &self.rels[r];
                let (Some(table), Some(idx)) = (&rel.table, rel.indexes.get(index)) else {
                    return Err(EvoptError::Internal(format!(
                        "relation {r} has no index {index} to probe"
                    )));
                };
                // The probe bypasses access paths, so the inner's local
                // predicates join the residual.
                residual.extend(rel.local_preds_global.iter().cloned());
                PhysOp::IndexNestedLoopJoin {
                    outer: built(left)?,
                    inner_table: table.clone(),
                    index: idx.name.clone(),
                    outer_key,
                    residual: self.conjunction(residual, &col_map)?,
                }
            }
        };
        Ok(PhysicalPlan {
            op,
            schema: self.schema(sp),
            est_rows: sp.rows,
            est_cost: sp.cost,
            output_order: sp.order,
        })
    }

    // -- search-trace recording ---------------------------------------------
    //
    // The DP invariant `considered == pruned + retained` (retained = final
    // table size) holds because every candidate routed through
    // [`JoinContext::admit`] is counted considered exactly once, and leaves
    // the search exactly once: rejected on arrival (dominated), or evicted
    // later by a cheaper arrival (superseded).

    /// Admit `sp` into `table`, recording the trace events for the
    /// candidate and for whichever plan the dominance test kills.
    /// Returns whether `sp` entered the table.
    pub fn admit(&self, table: &mut PlanTable, sp: SubPlan) -> bool {
        let (mask, method, order) = (sp.mask, sp.method, sp.order);
        self.trace_consider(&sp);
        match table.admit(sp, self) {
            Admission::New => {
                if let (Some(t), Some(o)) = (self.trace, order) {
                    t.order_kept(mask, method, o);
                }
                true
            }
            Admission::Replaced(old) => {
                if let Some(t) = self.trace {
                    t.prune(old.mask, old.method, PruneReason::Superseded);
                    if let Some(o) = order {
                        t.order_kept(mask, method, o);
                    }
                }
                true
            }
            Admission::Dominated(sp) => {
                self.trace_prune(&sp, PruneReason::Dominated);
                false
            }
        }
    }

    /// Record a candidate being generated and costed.
    pub fn trace_consider(&self, sp: &SubPlan) {
        if let Some(t) = self.trace {
            t.consider(
                sp.mask,
                sp.method,
                sp.cost.io,
                sp.cost.cpu,
                sp.rows,
                sp.order,
            );
        }
    }

    /// Record a plan leaving the search.
    pub fn trace_prune(&self, sp: &SubPlan, reason: PruneReason) {
        if let Some(t) = self.trace {
            t.prune(sp.mask, sp.method, reason);
        }
    }

    /// Record one completed enumeration level.
    pub fn trace_level(&self, level: u32, table_entries: usize, started: Instant) {
        if let Some(t) = self.trace {
            t.level(level, table_entries, started.elapsed().as_micros());
        }
    }

    /// Record the final dominance-table size.
    pub fn trace_memo(&self, entries: usize) {
        if let Some(t) = self.trace {
            t.set_memo_entries(entries);
        }
    }
}

/// The physical key of a keyed join and the predicates it leaves over.
struct Keyed {
    /// Global key column of each input.
    global: (usize, usize),
    /// The key's position in each input's output.
    local: (usize, usize),
    /// Every join predicate but the key, checked on the joined row.
    residual: Vec<Expr>,
}

/// Outcome of one [`PlanTable::admit`] call.
pub enum Admission {
    /// Inserted; no incumbent existed for its (mask, order) class.
    New,
    /// Inserted; the returned incumbent was evicted.
    Replaced(Rc<SubPlan>),
    /// Rejected; the incumbent dominates. The candidate comes back so the
    /// caller can trace (or reuse) it.
    Dominated(SubPlan),
}

/// The memo: one descriptor per `(mask, order)` class, admitted only if it
/// beats the incumbent. BTreeMap (not HashMap) so iteration — and therefore
/// tie resolution between equal-cost plans — is deterministic run to run,
/// and one mask's classes are a contiguous range.
#[derive(Default)]
pub struct PlanTable {
    plans: BTreeMap<(RelMask, Option<usize>), Rc<SubPlan>>,
}

impl PlanTable {
    pub fn new() -> Self {
        PlanTable::default()
    }

    /// Insert if cheaper than the incumbent for the same (mask, order).
    /// Exact cost ties go to the plan whose column map is closer to the
    /// identity — mirror-image join trees often tie, and the identity-closer
    /// one avoids the final column-restoring projection. The column maps
    /// are walked only when costs tie.
    ///
    /// The returned [`Admission`] says which plan (if any) the dominance
    /// test killed, so callers can trace the search.
    pub fn admit(&mut self, sp: SubPlan, ctx: &JoinContext) -> Admission {
        let key = (sp.mask, sp.order);
        match self.plans.get(&key) {
            Some(cur) => {
                let (a, b) = (ctx.model.total(sp.cost), ctx.model.total(cur.cost));
                if a < b || (a == b && ctx.fixed_points(&sp) > ctx.fixed_points(cur)) {
                    match self.plans.insert(key, Rc::new(sp)) {
                        Some(old) => Admission::Replaced(old),
                        None => Admission::New,
                    }
                } else {
                    Admission::Dominated(sp)
                }
            }
            None => {
                self.plans.insert(key, Rc::new(sp));
                Admission::New
            }
        }
    }

    /// All retained plans for `mask`, in order-class order.
    pub fn plans_for(&self, mask: RelMask) -> Vec<Rc<SubPlan>> {
        self.plans
            .range((mask, None)..=(mask, Some(usize::MAX)))
            .map(|(_, p)| Rc::clone(p))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.plans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }
}

/// Run the chosen strategy; the winner is a descriptor, built by
/// [`JoinContext::materialize`].
pub fn enumerate(ctx: &JoinContext, strategy: Strategy) -> Result<Rc<SubPlan>> {
    let started = Instant::now();
    let result = match strategy {
        Strategy::SystemR => dp_sysr::run(ctx),
        Strategy::BushyDp => dp_bushy::run(ctx),
        Strategy::DpCcp => dp_ccp::run(ctx),
        Strategy::Greedy => greedy::run(ctx),
        Strategy::Goo => goo::run(ctx),
        Strategy::QuickPick { samples, seed } => quickpick::run(ctx, samples, seed),
        Strategy::Syntactic => syntactic::run(ctx),
    };
    if let Some(t) = ctx.trace {
        t.set_strategy(strategy.name());
        t.set_total_micros(started.elapsed().as_micros());
    }
    result
}

#[cfg(test)]
pub(crate) mod fixtures {
    //! Synthetic join graphs + contexts for strategy tests, built without a
    //! real catalog.

    use super::*;
    use crate::selectivity::ColumnInfo;
    use evopt_catalog::ColumnStats;
    use evopt_common::expr::col;
    use evopt_common::{Column, DataType, Schema, Value};
    use evopt_plan::LogicalPlan;

    /// Specification of one synthetic relation.
    pub struct RelSpec {
        pub name: &'static str,
        pub rows: f64,
        /// NDV of each of the relation's 2 int columns (c0 = key, c1 = fk).
        pub ndv: [u64; 2],
        pub indexed: bool,
    }

    pub struct Fixture {
        pub graph: JoinGraph,
        pub est: EstimationContext,
        pub model: CostModel,
        pub rels: Vec<BaseRel>,
    }

    impl Fixture {
        pub fn ctx(&self) -> JoinContext<'_> {
            JoinContext {
                graph: &self.graph,
                est: &self.est,
                model: &self.model,
                rels: self.rels.clone(),
                required_order: None,
                track_orders: true,
                trace: None,
            }
        }
    }

    /// Build a fixture: relations with 2 int columns each, joined by the
    /// given edges `(rel_a, col_a, rel_b, col_b)` (column 0 or 1, local).
    pub fn build(specs: &[RelSpec], edges: &[(usize, usize, usize, usize)]) -> Fixture {
        let model = CostModel::default();
        // Logical scans.
        let scans: Vec<LogicalPlan> = specs
            .iter()
            .map(|s| LogicalPlan::Scan {
                table: s.name.to_string(),
                schema: Schema::new(vec![
                    Column::new("c0", DataType::Int).with_table(s.name),
                    Column::new("c1", DataType::Int).with_table(s.name),
                ]),
            })
            .collect();
        // Fold into a left-deep cross join, then a filter with the edges.
        let mut plan = scans[0].clone();
        for s in &scans[1..] {
            plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(s.clone()),
                predicate: None,
            };
        }
        let mut conjuncts = Vec::new();
        for &(ra, ca, rb, cb) in edges {
            conjuncts.push(Expr::eq(col(ra * 2 + ca), col(rb * 2 + cb)));
        }
        if !conjuncts.is_empty() {
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: Expr::conjunction(conjuncts),
            };
        }
        let graph = JoinGraph::extract(&plan).expect("fixture is a join");

        // Stats: uniform ints, no histograms (NDV-only estimation).
        let mut cols = Vec::new();
        for s in specs {
            for c in 0..2 {
                cols.push(ColumnInfo {
                    stats: Some(ColumnStats {
                        null_count: 0,
                        ndv: s.ndv[c],
                        min: Some(Value::Int(0)),
                        max: Some(Value::Int(s.ndv[c] as i64 - 1)),
                        mcvs: vec![],
                        histogram: None,
                    }),
                    table_rows: s.rows as u64,
                });
            }
        }
        let est = EstimationContext::new(cols);

        // Base relations: 40-byte tuples, ~100/page.
        let mut rels = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let pages = (s.rows / 100.0).ceil().max(1.0);
            let indexes = if s.indexed {
                vec![IndexMeta {
                    name: format!("{}_c0", s.name),
                    column: 0,
                    height: 2.0,
                    pages: (s.rows / 300.0).ceil().max(1.0),
                    clustered: false,
                    unique: false,
                }]
            } else {
                vec![]
            };
            // Local estimation context (table-local ordinals).
            let local_est =
                EstimationContext::new((0..2).map(|c| est.columns[i * 2 + c].clone()).collect());
            let rel_meta = crate::access_path::RelMeta {
                table: s.name.to_string(),
                rows: s.rows,
                pages,
                indexes: indexes.clone(),
            };
            let paths = crate::access_path::access_paths(&rel_meta, &[], &local_est, &model);
            rels.push(BaseRel {
                table: Some(s.name.to_string()),
                rows_raw: s.rows,
                pages_raw: pages,
                width: 40.0,
                local_sel: 1.0,
                local_preds_global: vec![],
                paths,
                indexes,
                opaque_plan: None,
            });
        }
        Fixture {
            graph,
            est,
            model,
            rels,
        }
    }

    /// A 3-relation chain: t(1k) — u(10k) — v(100k), keys indexed on v.
    pub fn chain3() -> Fixture {
        build(
            &[
                RelSpec {
                    name: "t",
                    rows: 1_000.0,
                    ndv: [1_000, 100],
                    indexed: false,
                },
                RelSpec {
                    name: "u",
                    rows: 10_000.0,
                    ndv: [10_000, 1_000],
                    indexed: false,
                },
                RelSpec {
                    name: "v",
                    rows: 100_000.0,
                    ndv: [100_000, 10_000],
                    indexed: true,
                },
            ],
            // t.c0 = u.c1, u.c0 = v.c1
            &[(0, 0, 1, 1), (1, 0, 2, 1)],
        )
    }

    /// A star: fact f(100k) joined to 3 dimensions (100, 1k, 10k rows).
    pub fn star4() -> Fixture {
        build(
            &[
                RelSpec {
                    name: "f",
                    rows: 100_000.0,
                    ndv: [100_000, 100],
                    indexed: false,
                },
                RelSpec {
                    name: "d1",
                    rows: 100.0,
                    ndv: [100, 10],
                    indexed: false,
                },
                RelSpec {
                    name: "d2",
                    rows: 1_000.0,
                    ndv: [1_000, 10],
                    indexed: false,
                },
                RelSpec {
                    name: "d3",
                    rows: 10_000.0,
                    ndv: [10_000, 10],
                    indexed: true,
                },
            ],
            // f.c1 = d1.c0; f.c0 = d2.c0 (abusing c0 as another fk); f.c0 = d3.c0
            &[(0, 1, 1, 0), (0, 0, 2, 0), (0, 0, 3, 0)],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;

    #[test]
    fn base_subplans_have_global_col_maps() {
        let f = chain3();
        let ctx = f.ctx();
        assert_eq!(ctx.total_cols(), 6);
        let t = ctx.base_subplans(1);
        assert!(!t.is_empty());
        let sp = &t[0];
        assert_eq!(sp.mask, 0b010);
        let col_map = ctx.col_map(sp);
        assert_eq!(col_map[2], Some(0));
        assert_eq!(col_map[3], Some(1));
        assert_eq!(col_map[0], None);
    }

    #[test]
    fn join_candidates_produce_all_methods_with_key() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let u = ctx.cheapest_base(1).unwrap();
        let cands = ctx.join_candidates(&t, &u, false);
        let names: Vec<_> = cands.iter().map(|c| c.method).collect();
        assert!(names.contains(&"BlockNestedLoopJoin"));
        assert!(names.contains(&"NestedLoopJoin"));
        assert!(names.contains(&"HashJoin"));
        assert!(names.contains(&"SortMergeJoin"));
        // No index on u → no INL.
        assert!(!names.contains(&"IndexNestedLoopJoin"));
        // Rows: |t| × |u| / max(ndv) = 1k × 10k / 10^3... edge t.c0=u.c1
        // (ndv 1000 both) → 10k rows.
        for c in &cands {
            assert!(
                (c.rows - 10_000.0).abs() / 10_000.0 < 0.01,
                "rows {}",
                c.rows
            );
        }
    }

    #[test]
    fn materialized_candidates_carry_the_descriptor() {
        // Every method's plan is the one its descriptor costed: same root
        // operator, same estimates, same order, columns left then right.
        let s = star4();
        let ctx = s.ctx();
        let fact = ctx.cheapest_base(0).unwrap();
        let d3 = ctx.cheapest_base(3).unwrap();
        let cands = ctx.join_candidates(&fact, &d3, false);
        assert_eq!(cands.len(), 5, "every method applies to f ⋈ d3");
        for c in &cands {
            let plan = ctx.materialize(c).unwrap();
            assert_eq!(plan.op_name(), c.method);
            assert_eq!(plan.est_cost, c.cost);
            assert_eq!(plan.est_rows.to_bits(), c.rows.to_bits());
            assert_eq!(plan.output_order, c.order);
            assert_eq!(plan.schema.len(), 4);
        }
        let col_map = ctx.col_map(&cands[0]);
        assert_eq!(&col_map[0..2], &[Some(0), Some(1)]);
        assert_eq!(&col_map[6..8], &[Some(2), Some(3)]);
    }

    #[test]
    fn inl_offered_against_indexed_inner() {
        let f = chain3();
        let ctx = f.ctx();
        // u joined to v (v has index on c0; edge is u.c0 = v.c1 → the index
        // is NOT on the join column, so still no INL).
        let u = ctx.cheapest_base(1).unwrap();
        let v = ctx.cheapest_base(2).unwrap();
        let cands = ctx.join_candidates(&u, &v, false);
        assert!(!cands.iter().any(|c| c.method == "IndexNestedLoopJoin"));
        // Star fixture: f.c0 = d3.c0 and d3 has an index on c0 → INL exists.
        let s = star4();
        let sctx = s.ctx();
        let fact = sctx.cheapest_base(0).unwrap();
        let d3 = sctx.cheapest_base(3).unwrap();
        let cands = sctx.join_candidates(&fact, &d3, false);
        assert!(
            cands.iter().any(|c| c.method == "IndexNestedLoopJoin"),
            "methods: {:?}",
            cands.iter().map(|c| c.method).collect::<Vec<_>>()
        );
    }

    #[test]
    fn unconnected_pair_requires_allow_cross() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let v = ctx.cheapest_base(2).unwrap();
        assert!(ctx.join_candidates(&t, &v, false).is_empty());
        let crossed = ctx.join_candidates(&t, &v, true);
        assert!(!crossed.is_empty());
        // Cross product cardinality.
        assert!((crossed[0].rows - 1_000.0 * 100_000.0).abs() < 1.0);
    }

    #[test]
    fn smj_output_is_ordered_and_reuses_sorted_inputs() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let u = ctx.cheapest_base(1).unwrap();
        let cands = ctx.join_candidates(&t, &u, false);
        let smj = cands.iter().find(|c| c.method == "SortMergeJoin").unwrap();
        // Key is t.c0 (global 0).
        assert_eq!(smj.order, Some(0));
        // Both inputs unsorted → two Sort children.
        match &ctx.materialize(smj).unwrap().op {
            PhysOp::SortMergeJoin { left, right, .. } => {
                assert_eq!(left.op_name(), "Sort");
                assert_eq!(right.op_name(), "Sort");
            }
            _ => unreachable!(),
        }
        // An input already ordered on its key is merged without a sort.
        let sorted_t = Rc::new(ctx.enforce_order(&t, 0));
        let cands = ctx.join_candidates(&sorted_t, &u, false);
        let smj = cands.iter().find(|c| c.method == "SortMergeJoin").unwrap();
        match &ctx.materialize(smj).unwrap().op {
            PhysOp::SortMergeJoin { left, right, .. } => {
                assert_eq!(left.op_name(), "Sort");
                assert_eq!(left.output_order, Some(0));
                assert_eq!(right.op_name(), "Sort");
                assert_eq!(left.children()[0].op_name(), "SeqScan");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn plan_table_dominance() {
        let f = chain3();
        let ctx = f.ctx();
        let model = ctx.model;
        let mut table = PlanTable::new();
        let cheap = (*ctx.cheapest_base(0).unwrap()).clone();
        let mut pricey = cheap.clone();
        pricey.cost = Cost::new(cheap.cost.io + 1000.0, cheap.cost.cpu);
        table.admit(pricey.clone(), &ctx);
        table.admit(cheap.clone(), &ctx);
        table.admit(pricey, &ctx);
        let kept = table.plans_for(cheap.mask);
        assert_eq!(kept.len(), 1);
        assert_eq!(model.total(kept[0].cost), model.total(cheap.cost));
    }

    #[test]
    fn plan_table_ties_go_to_the_identity_closer_plan() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let u = ctx.cheapest_base(1).unwrap();
        let pick = |l: &Rc<SubPlan>, r: &Rc<SubPlan>| {
            let mut c = ctx
                .join_candidates(l, r, false)
                .into_iter()
                .find(|c| c.method == "HashJoin")
                .unwrap();
            c.cost = Cost::new(1.0, 1.0);
            c
        };
        let (mirrored, identity) = (pick(&u, &t), pick(&t, &u));
        let mut table = PlanTable::new();
        assert!(matches!(table.admit(mirrored, &ctx), Admission::New));
        assert!(matches!(
            table.admit(identity.clone(), &ctx),
            Admission::Replaced(_)
        ));
        assert!(matches!(
            table.admit(pick(&u, &t), &ctx),
            Admission::Dominated(_)
        ));
        assert!(matches!(
            table.admit(identity, &ctx),
            Admission::Dominated(_)
        ));
    }

    #[test]
    fn dp_trace_invariant_considered_equals_pruned_plus_memo() {
        // Every candidate routed through ctx.admit either lives in the memo
        // or was pruned exactly once — for all three DP strategies.
        for strategy in [Strategy::SystemR, Strategy::BushyDp, Strategy::DpCcp] {
            for f in [chain3(), star4()] {
                let sink = TraceSink::counts_only();
                let mut ctx = f.ctx();
                ctx.trace = Some(&sink);
                enumerate(&ctx, strategy).unwrap();
                drop(ctx);
                let trace = sink.into_trace();
                assert!(trace.memo_entries > 0, "{}", strategy.name());
                assert_eq!(
                    trace.considered,
                    trace.pruned + trace.memo_entries as u64,
                    "{}: considered {} != pruned {} + memo {}",
                    strategy.name(),
                    trace.considered,
                    trace.pruned,
                    trace.memo_entries
                );
            }
        }
    }

    #[test]
    fn dp_considers_strictly_more_plans_than_greedy() {
        let f = star4();
        let count = |strategy: Strategy| {
            let sink = TraceSink::counts_only();
            let mut ctx = f.ctx();
            ctx.trace = Some(&sink);
            enumerate(&ctx, strategy).unwrap();
            drop(ctx);
            sink.into_trace().considered
        };
        let dp = count(Strategy::SystemR);
        let greedy = count(Strategy::Greedy);
        assert!(
            dp > greedy,
            "dp_sysr considered {dp} plans, greedy {greedy} — expected strictly more"
        );
    }

    #[test]
    fn trace_is_observation_only_and_never_changes_the_plan() {
        for strategy in [
            Strategy::SystemR,
            Strategy::BushyDp,
            Strategy::DpCcp,
            Strategy::Greedy,
            Strategy::Goo,
            Strategy::QuickPick {
                samples: 8,
                seed: 5,
            },
            Strategy::Syntactic,
        ] {
            let f = star4();
            let plain_ctx = f.ctx();
            let plain = enumerate(&plain_ctx, strategy).unwrap();
            let plain = plain_ctx.materialize(&plain).unwrap();
            let sink = TraceSink::bounded(1024);
            let mut ctx = f.ctx();
            ctx.trace = Some(&sink);
            let traced = enumerate(&ctx, strategy).unwrap();
            let traced = ctx.materialize(&traced).unwrap();
            drop(ctx);
            assert_eq!(
                plain.digest(),
                traced.digest(),
                "{}: tracing changed the chosen plan",
                strategy.name()
            );
            let trace = sink.into_trace();
            assert_eq!(trace.strategy, strategy.name());
            assert!(trace.considered > 0);
        }
    }

    #[test]
    fn enforce_order_adds_sort_once() {
        let f = chain3();
        let ctx = f.ctx();
        let t = ctx.cheapest_base(0).unwrap();
        let sorted = ctx.enforce_order(&t, 1);
        assert_eq!(sorted.order, Some(1));
        assert_eq!(sorted.method, "Sort");
        let plan = ctx.materialize(&sorted).unwrap();
        assert_eq!(plan.op_name(), "Sort");
        assert_eq!(plan.children()[0].op_name(), t.method);
        assert!(ctx.model.total(sorted.cost) >= ctx.model.total(t.cost));
    }
}

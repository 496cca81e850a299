//! The optimizer facade.
//!
//! [`Optimizer::optimize`] turns a bound [`LogicalPlan`] into an annotated
//! [`PhysicalPlan`]:
//!
//! 1. run the always-win rewrites (constant folding, predicate pushdown);
//! 2. for join subtrees: extract the join graph, build per-relation access
//!    paths and statistics, run the configured enumeration [`Strategy`];
//! 3. for everything else (aggregate, sort, limit, projection): recurse and
//!    stack the physical operator, exploiting input orders where possible
//!    (a sort is skipped when the child already delivers the order).

use std::sync::Arc;

use evopt_catalog::{Catalog, TableInfo};
use evopt_common::{EvoptError, Expr, Result, Schema};
use evopt_obs::TraceSink;
use evopt_plan::join_graph::JoinGraph;
use evopt_plan::{fold_constants, push_down_filters, LogicalPlan, SortKey};

use crate::access_path::{self, IndexMeta, RelMeta};
use crate::cost::CostModel;
use crate::enumerate::{enumerate, BaseRel, JoinContext, Strategy, SubPlan};
use crate::physical::{PhysAgg, PhysOp, PhysicalPlan};
use crate::selectivity::{ColumnInfo, EstimationContext};
use crate::verify;

/// Fallback tuple width when a relation has no statistics.
const DEFAULT_WIDTH: f64 = 64.0;
/// Fallback grouping-reduction ratio when group-column NDVs are unknown.
const DEFAULT_GROUP_RATIO: f64 = 0.1;

/// Optimizer configuration.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    pub strategy: Strategy,
    pub cost_model: CostModel,
    /// Track interesting orders during enumeration (ablation for F3).
    pub track_interesting_orders: bool,
    /// Run the algebraic rewrites (constant folding, predicate pushdown)
    /// before enumeration. Turning this off is an ablation: plans stay
    /// correct (the join-graph extraction still routes predicates), but
    /// single-table pushdown into access paths is lost.
    pub enable_rewrites: bool,
    /// Run the static plan verifier ([`crate::verify`]) after every phase
    /// (post-rewrite, post-enumeration, post-physical). Always on in debug
    /// builds; this flag opts release builds in (`DatabaseConfig::
    /// verify_plans` at the engine level). A violation aborts optimization
    /// with a structured [`EvoptError::Plan`] — never a panic.
    pub verify: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            strategy: Strategy::SystemR,
            cost_model: CostModel::default(),
            track_interesting_orders: true,
            enable_rewrites: true,
            verify: false,
        }
    }
}

/// The cost-based optimizer.
pub struct Optimizer {
    pub config: OptimizerConfig,
    /// Search-trace sink ([`Optimizer::with_trace`]). Interior-mutable, so
    /// `optimize(&self)` can record into it; events accumulate across every
    /// enumeration one `optimize` call performs (a query that plans a join
    /// subtree twice — e.g. the aggregate order-hint probe — counts both).
    trace: Option<TraceSink>,
}

impl Optimizer {
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer {
            config,
            trace: None,
        }
    }

    /// Optimizer with all defaults (System R strategy).
    pub fn default_system_r() -> Self {
        Optimizer::new(OptimizerConfig::default())
    }

    /// Attach a search-trace sink; every enumeration records into it.
    pub fn with_trace(mut self, sink: TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Detach the sink (freeze it with [`TraceSink::into_trace`] afterward).
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// The attached sink, if any.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Whether the per-phase verifier hooks fire: unconditional in debug
    /// builds (the `debug_assert` analogue, minus the panic), opt-in via
    /// [`OptimizerConfig::verify`] everywhere else.
    fn verifying(&self) -> bool {
        cfg!(debug_assertions) || self.config.verify
    }

    /// Optimize a bound logical plan against `catalog`.
    pub fn optimize(&self, plan: &LogicalPlan, catalog: &Catalog) -> Result<PhysicalPlan> {
        let prepared = if self.config.enable_rewrites {
            push_down_filters(fold_constants(plan.clone())?)?
        } else {
            plan.clone()
        };
        if self.verifying() {
            verify::verify_logical(&prepared, verify::VerifyPhase::PostRewrite).into_result()?;
        }
        let phys = self.optimize_rec(&prepared, catalog, None)?;
        if self.verifying() {
            verify::verify_physical(&phys, Some(catalog), verify::VerifyPhase::PostPhysical)
                .into_result()?;
        }
        Ok(phys)
    }

    /// `required`: output-ordinal column the parent would like ascending.
    fn optimize_rec(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        required: Option<usize>,
    ) -> Result<PhysicalPlan> {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                self.plan_single_table(catalog, table, &[], required)
            }
            LogicalPlan::Filter { input, predicate } => match &**input {
                LogicalPlan::Scan { table, .. } => {
                    self.plan_single_table(catalog, table, &predicate.split_conjuncts(), required)
                }
                LogicalPlan::Join { .. } => self.plan_joins(plan, catalog, required),
                _ => {
                    let child = self.optimize_rec(input, catalog, required)?;
                    let rows = (child.est_rows
                        * EstimationContext::unknown(child.schema.len()).selectivity(predicate))
                    .max(1e-6);
                    let cost = child.est_cost + self.config.cost_model.per_tuple(child.est_rows);
                    Ok(PhysicalPlan {
                        schema: child.schema.clone(),
                        est_rows: rows,
                        est_cost: cost,
                        output_order: child.output_order,
                        op: PhysOp::Filter {
                            input: Box::new(child),
                            predicate: predicate.clone(),
                        },
                    })
                }
            },
            LogicalPlan::Join { .. } => self.plan_joins(plan, catalog, required),
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                // Propagate the order requirement through pure column refs.
                let child_required = required.and_then(|k| match exprs.get(k) {
                    Some(Expr::Column(j)) => Some(*j),
                    _ => None,
                });
                let child = self.optimize_rec(input, catalog, child_required)?;
                let output_order = child.output_order.and_then(|j| {
                    exprs
                        .iter()
                        .position(|e| matches!(e, Expr::Column(c) if *c == j))
                });
                let cost = child.est_cost + self.config.cost_model.per_tuple(child.est_rows);
                Ok(PhysicalPlan {
                    schema: schema.clone(),
                    est_rows: child.est_rows,
                    est_cost: cost,
                    output_order,
                    op: PhysOp::Project {
                        input: Box::new(child),
                        exprs: exprs.clone(),
                    },
                })
            }
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
                schema,
            } => {
                // Two candidate shapes: an order-seeking child feeding a
                // streaming sort-aggregate, vs an unconstrained child
                // feeding a hash aggregate. The order hint is an option,
                // not a requirement — plan both and keep the cheaper
                // (a forced sort usually loses; a free order usually wins).
                let hint = match group_by.as_slice() {
                    [g] if self.config.track_interesting_orders => Some(*g),
                    _ => None,
                };
                let plain = self.optimize_rec(input, catalog, None)?;
                let child = match hint {
                    Some(g) => {
                        let ordered = self.optimize_rec(input, catalog, hint)?;
                        let m = &self.config.cost_model;
                        if ordered.output_order == Some(g)
                            && m.total(ordered.est_cost) <= m.total(plain.est_cost)
                        {
                            ordered
                        } else {
                            plain
                        }
                    }
                    None => plain,
                };
                let rows = if group_by.is_empty() {
                    1.0
                } else {
                    (child.est_rows * DEFAULT_GROUP_RATIO).max(1.0)
                };
                let cost = child.est_cost + self.config.cost_model.hash_aggregate(child.est_rows);
                let phys_aggs: Vec<PhysAgg> = aggs
                    .iter()
                    .map(|a| PhysAgg {
                        func: a.func,
                        arg: a.arg.clone(),
                    })
                    .collect();
                let streaming = self.config.track_interesting_orders
                    && group_by.len() == 1
                    && child.output_order == Some(group_by[0]);
                let (op, output_order) = if streaming {
                    (
                        PhysOp::SortAggregate {
                            input: Box::new(child),
                            group_by: group_by.clone(),
                            aggs: phys_aggs,
                        },
                        // Output column 0 is the group column, still sorted.
                        Some(0),
                    )
                } else {
                    (
                        PhysOp::HashAggregate {
                            input: Box::new(child),
                            group_by: group_by.clone(),
                            aggs: phys_aggs,
                        },
                        None,
                    )
                };
                Ok(PhysicalPlan {
                    schema: schema.clone(),
                    est_rows: rows,
                    est_cost: cost,
                    output_order,
                    op,
                })
            }
            LogicalPlan::Sort { input, keys } => {
                let hint = match keys.as_slice() {
                    [SortKey {
                        column,
                        ascending: true,
                    }, ..] => Some(*column),
                    _ => None,
                };
                let child = self.optimize_rec(input, catalog, hint)?;
                // A single ascending key already satisfied → no sort node.
                if let (1, Some(k), Some(have)) = (keys.len(), hint, child.output_order) {
                    if k == have {
                        return Ok(child);
                    }
                }
                let rows = child.est_rows;
                let pages = (rows * DEFAULT_WIDTH / 4084.0).ceil().max(1.0);
                let cost = child.est_cost + self.config.cost_model.sort(rows, pages);
                Ok(PhysicalPlan {
                    schema: child.schema.clone(),
                    est_rows: rows,
                    est_cost: cost,
                    output_order: match keys.first() {
                        Some(SortKey {
                            column,
                            ascending: true,
                        }) => Some(*column),
                        _ => None,
                    },
                    op: PhysOp::Sort {
                        input: Box::new(child),
                        keys: keys.iter().map(|k| (k.column, k.ascending)).collect(),
                    },
                })
            }
            LogicalPlan::Limit { input, limit } => {
                let child = self.optimize_rec(input, catalog, required)?;
                Ok(PhysicalPlan {
                    schema: child.schema.clone(),
                    est_rows: child.est_rows.min(*limit as f64),
                    est_cost: child.est_cost,
                    output_order: child.output_order,
                    op: PhysOp::Limit {
                        input: Box::new(child),
                        limit: *limit,
                    },
                })
            }
        }
    }

    /// Single base relation with local predicates: pure access-path choice.
    fn plan_single_table(
        &self,
        catalog: &Catalog,
        table: &str,
        preds: &[Expr],
        required: Option<usize>,
    ) -> Result<PhysicalPlan> {
        let info = catalog.table(table)?;
        let (rel_meta, est) = table_meta(&info)?;
        let model = &self.config.cost_model;
        let paths = access_path::access_paths(&rel_meta, preds, &est, model);
        let schema = info.schema.clone();
        let mut candidates: Vec<PhysicalPlan> = paths
            .into_iter()
            .map(|p| {
                let op = match p.kind {
                    access_path::PathKind::SeqScan { filter } => PhysOp::SeqScan {
                        table: info.name.clone(),
                        filter,
                    },
                    access_path::PathKind::IndexScan {
                        index,
                        range,
                        residual,
                        clustered,
                    } => PhysOp::IndexScan {
                        table: info.name.clone(),
                        index,
                        range,
                        residual,
                        clustered,
                    },
                };
                PhysicalPlan {
                    op,
                    schema: schema.clone(),
                    est_rows: p.rows,
                    est_cost: p.cost,
                    output_order: if self.config.track_interesting_orders {
                        p.order
                    } else {
                        None
                    },
                }
            })
            .collect();
        // With a required order, an ordered path competes against
        // cheapest-plus-sort; the Sort node itself is added by the caller,
        // so here we just bias the choice by charging the virtual sort.
        let chosen = candidates
            .drain(..)
            .min_by(|a, b| {
                let penalty = |p: &PhysicalPlan| match required {
                    Some(k) if p.output_order != Some(k) => {
                        let pages = (p.est_rows * DEFAULT_WIDTH / 4084.0).ceil().max(1.0);
                        model.total(model.sort(p.est_rows, pages))
                    }
                    _ => 0.0,
                };
                (model.total(a.est_cost) + penalty(a))
                    .total_cmp(&(model.total(b.est_cost) + penalty(b)))
            })
            .ok_or_else(|| EvoptError::Internal("no access path produced".into()))?;
        Ok(chosen)
    }

    /// Join subtree: extract the graph and enumerate.
    fn plan_joins(
        &self,
        plan: &LogicalPlan,
        catalog: &Catalog,
        required: Option<usize>,
    ) -> Result<PhysicalPlan> {
        let graph = JoinGraph::extract(plan)
            .ok_or_else(|| EvoptError::Internal("plan_joins called on a non-join".into()))?;
        let model = self.config.cost_model;

        // Build per-relation info + the global estimation context.
        let mut rels = Vec::with_capacity(graph.relations.len());
        let mut global_cols: Vec<ColumnInfo> = Vec::new();
        for (r, leaf) in graph.relations.iter().enumerate() {
            let offset = graph.offsets[r];
            let local_preds_global: Vec<Expr> = graph
                .local_predicates(r)
                .into_iter()
                .map(|p| p.expr.clone())
                .collect();
            let local_preds: Vec<Expr> = local_preds_global
                .iter()
                .map(|e| e.remap_columns(&|g| g - offset))
                .collect();
            match leaf {
                LogicalPlan::Scan { table, .. } => {
                    let info = catalog.table(table)?;
                    let (rel_meta, local_est) = table_meta(&info)?;
                    let paths =
                        access_path::access_paths(&rel_meta, &local_preds, &local_est, &model);
                    let local_sel: f64 = local_preds
                        .iter()
                        .map(|p| local_est.selectivity(p))
                        .product();
                    let width = info
                        .stats()
                        .map(|s| s.avg_tuple_bytes.max(8.0))
                        .unwrap_or(DEFAULT_WIDTH);
                    global_cols.extend(local_est.columns.iter().cloned());
                    rels.push(BaseRel {
                        table: Some(info.name.clone()),
                        rows_raw: rel_meta.rows,
                        pages_raw: rel_meta.pages,
                        width,
                        local_sel,
                        local_preds_global,
                        paths,
                        indexes: rel_meta.indexes,
                        opaque_plan: None,
                    });
                }
                other => {
                    // Opaque leaf: optimize recursively; local predicates
                    // (if any) become a physical filter on top.
                    let mut inner = self.optimize_rec(other, catalog, None)?;
                    if !local_preds.is_empty() {
                        let predicate = Expr::conjunction(local_preds.clone());
                        let rows = (inner.est_rows
                            * EstimationContext::unknown(inner.schema.len())
                                .selectivity(&predicate))
                        .max(1e-6);
                        inner = PhysicalPlan {
                            schema: inner.schema.clone(),
                            est_rows: rows,
                            est_cost: inner.est_cost + model.per_tuple(inner.est_rows),
                            output_order: None,
                            op: PhysOp::Filter {
                                input: Box::new(inner),
                                predicate,
                            },
                        };
                    }
                    let ncols = graph.schemas[r].len();
                    global_cols.extend((0..ncols).map(|_| ColumnInfo {
                        stats: None,
                        table_rows: inner.est_rows as u64,
                    }));
                    rels.push(BaseRel {
                        table: None,
                        rows_raw: inner.est_rows,
                        pages_raw: (inner.est_rows * DEFAULT_WIDTH / 4084.0).ceil().max(1.0),
                        width: DEFAULT_WIDTH,
                        local_sel: 1.0,
                        local_preds_global: vec![],
                        paths: vec![],
                        indexes: vec![],
                        opaque_plan: Some(inner),
                    });
                }
            }
        }
        let est = EstimationContext::new(global_cols);
        let ctx = JoinContext {
            graph: &graph,
            est: &est,
            model: &self.config.cost_model,
            rels,
            required_order: required,
            track_orders: self.config.track_interesting_orders,
            trace: self.trace.as_ref(),
        };
        let sub = enumerate(&ctx, self.config.strategy)?;
        let phys = finalize(&ctx, &sub, plan.schema())?;
        if self.verifying() {
            verify::verify_physical(&phys, Some(catalog), verify::VerifyPhase::PostEnumeration)
                .into_result()?;
        }
        Ok(phys)
    }
}

/// The cheapest way to reach the rows of `info` that satisfy `preds`
/// (table-local conjuncts): the access-path choice [`Optimizer`] makes for
/// a single-table SELECT with no required order. UPDATE and DELETE find
/// their target rows through it.
pub fn cheapest_access_path(
    info: &Arc<TableInfo>,
    preds: &[Expr],
    model: &CostModel,
) -> Result<access_path::PathKind> {
    let (rel_meta, est) = table_meta(info)?;
    access_path::access_paths(&rel_meta, preds, &est, model)
        .into_iter()
        .min_by(|a, b| model.total(a.cost).total_cmp(&model.total(b.cost)))
        .map(|p| p.kind)
        .ok_or_else(|| EvoptError::Internal("no access path produced".into()))
}

/// Convert a catalog table into the access-path inputs.
fn table_meta(info: &Arc<TableInfo>) -> Result<(RelMeta, EstimationContext)> {
    let stats = info.stats();
    let (rows, pages) = match &stats {
        Some(s) => (s.row_count as f64, s.page_count as f64),
        None => (
            info.heap.tuple_count() as f64,
            info.heap.page_count() as f64,
        ),
    };
    let mut indexes = Vec::new();
    for idx in info.indexes() {
        indexes.push(IndexMeta {
            name: idx.name.clone(),
            column: idx.column,
            height: idx.btree.height()? as f64,
            pages: idx.btree.page_count()? as f64,
            clustered: idx.clustered,
            unique: idx.unique,
        });
    }
    let columns = (0..info.schema.len())
        .map(|c| ColumnInfo {
            stats: stats.as_ref().and_then(|s| s.column(c).cloned()),
            table_rows: rows as u64,
        })
        .collect();
    Ok((
        RelMeta {
            table: info.name.clone(),
            rows,
            pages,
            indexes,
        },
        EstimationContext::new(columns),
    ))
}

/// Build the enumeration's winner — the only physical plan the search
/// produces — and restore syntactic column order on top of it so the join
/// node's output matches the logical schema.
fn finalize(ctx: &JoinContext, sub: &SubPlan, logical_schema: Schema) -> Result<PhysicalPlan> {
    let plan = ctx.materialize(sub)?;
    let col_map = ctx.col_map(sub);
    let total = ctx.total_cols();
    let identity = (0..total).all(|g| col_map.get(g).copied().flatten() == Some(g));
    if identity {
        return Ok(plan);
    }
    let mut exprs: Vec<Expr> = Vec::with_capacity(total);
    for g in 0..total {
        let local = col_map.get(g).copied().flatten().ok_or_else(|| {
            EvoptError::Internal(format!("finalize: output column {g} missing from col_map"))
        })?;
        exprs.push(Expr::Column(local));
    }
    let output_order = sub.order;
    Ok(PhysicalPlan {
        schema: logical_schema,
        est_rows: sub.rows,
        est_cost: sub.cost + ctx.model.per_tuple(sub.rows),
        output_order,
        op: PhysOp::Project {
            input: Box::new(plan),
            exprs,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use evopt_catalog::{analyze_table, AnalyzeConfig};
    use evopt_common::expr::{col, lit};
    use evopt_common::{Column, DataType, Tuple, Value};
    use evopt_storage::{BufferPool, DiskManager, PolicyKind};

    /// Catalog with customers(1k), orders(10k, fk customer), both analyzed;
    /// index on orders.customer_id and customers.id.
    fn setup() -> Catalog {
        let pool = BufferPool::new(Arc::new(DiskManager::new()), 256, PolicyKind::Lru);
        let cat = Catalog::new(pool);
        let customers = cat
            .create_table(
                "customers",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("name", DataType::Str),
                    Column::new("region", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..1000i64 {
            customers
                .heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Str(format!("cust{i}")),
                    Value::Int(i % 10),
                ]))
                .unwrap();
        }
        let orders = cat
            .create_table(
                "orders",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("customer_id", DataType::Int),
                    Column::new("amount", DataType::Int),
                ]),
            )
            .unwrap();
        for i in 0..10_000i64 {
            orders
                .heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Int(i % 1000),
                    Value::Int(i % 500),
                ]))
                .unwrap();
        }
        // Data was loaded in id order, so the index is clustered: the heap
        // scan itself delivers id-order for free.
        cat.create_index("customers_id", "customers", "id", true, true)
            .unwrap();
        cat.create_index("orders_cust", "orders", "customer_id", false, false)
            .unwrap();
        // create_index clone-and-swaps the registered TableInfo (CoW
        // catalog), so the pre-index handles above are stale snapshots —
        // re-fetch before installing stats or the optimizer won't see them.
        let customers = cat.table("customers").unwrap();
        let orders = cat.table("orders").unwrap();
        analyze_table(&customers, &AnalyzeConfig::default()).unwrap();
        analyze_table(&orders, &AnalyzeConfig::default()).unwrap();
        cat
    }

    fn scan(cat: &Catalog, t: &str) -> LogicalPlan {
        LogicalPlan::Scan {
            table: t.into(),
            schema: cat.table(t).unwrap().schema.clone(),
        }
    }

    #[test]
    fn point_query_uses_index() {
        let cat = setup();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&cat, "customers")),
            predicate: Expr::eq(col(0), lit(42i64)),
        };
        let opt = Optimizer::default_system_r();
        let phys = opt.optimize(&plan, &cat).unwrap();
        assert_eq!(phys.op_name(), "IndexScan", "plan:\n{phys}");
        assert!(phys.est_rows < 5.0);
    }

    #[test]
    fn wide_filter_uses_seq_scan() {
        let cat = setup();
        let plan = LogicalPlan::Filter {
            input: Box::new(scan(&cat, "customers")),
            predicate: Expr::binary(evopt_common::BinOp::Gt, col(0), lit(10i64)),
        };
        let phys = Optimizer::default_system_r().optimize(&plan, &cat).unwrap();
        assert_eq!(phys.op_name(), "SeqScan", "plan:\n{phys}");
    }

    #[test]
    fn join_produces_covering_plan_with_restored_order() {
        let cat = setup();
        // orders ⋈ customers ON orders.customer_id = customers.id — written
        // big-table-first so the optimizer has something to fix.
        let join = LogicalPlan::Join {
            left: Box::new(scan(&cat, "orders")),
            right: Box::new(scan(&cat, "customers")),
            predicate: Some(Expr::eq(col(1), col(3))),
        };
        let phys = Optimizer::default_system_r().optimize(&join, &cat).unwrap();
        // Output schema must match the logical join schema (6 cols,
        // syntactic order), regardless of the join order chosen.
        assert_eq!(phys.schema.len(), 6);
        assert_eq!(phys.schema.resolve(Some("orders"), "id").unwrap(), 0);
        assert_eq!(phys.schema.resolve(Some("customers"), "id").unwrap(), 3);
        // ~10k output rows (every order matches one customer).
        assert!(
            (phys.est_rows - 10_000.0).abs() / 10_000.0 < 0.2,
            "est {}",
            phys.est_rows
        );
        assert!(!phys.join_methods().is_empty());
    }

    #[test]
    fn optimizer_beats_syntactic_baseline() {
        let cat = setup();
        let join = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(scan(&cat, "orders")),
                right: Box::new(scan(&cat, "customers")),
                predicate: Some(Expr::eq(col(1), col(3))),
            }),
            // region = 3: selective filter on customers.
            predicate: Expr::eq(col(5), lit(3i64)),
        };
        let model = CostModel::default();
        let opt = Optimizer::new(OptimizerConfig {
            strategy: Strategy::SystemR,
            ..Default::default()
        })
        .optimize(&join, &cat)
        .unwrap();
        let base = Optimizer::new(OptimizerConfig {
            strategy: Strategy::Syntactic,
            ..Default::default()
        })
        .optimize(&join, &cat)
        .unwrap();
        assert!(
            model.total(opt.est_cost) < model.total(base.est_cost),
            "optimized {} !< baseline {}",
            model.total(opt.est_cost),
            model.total(base.est_cost)
        );
    }

    #[test]
    fn sort_skipped_when_index_provides_order() {
        let cat = setup();
        let plan = LogicalPlan::Sort {
            input: Box::new(scan(&cat, "customers")),
            keys: vec![SortKey {
                column: 0,
                ascending: true,
            }],
        };
        let phys = Optimizer::default_system_r().optimize(&plan, &cat).unwrap();
        // The clustered heap/index provides the order; the plan must
        // satisfy it one way or another (ordered scan or explicit sort).
        match phys.op_name() {
            "Sort" | "IndexScan" | "SeqScan" => {}
            other => panic!("expected ordered plan at root, got {other}:\n{phys}"),
        }
        assert_eq!(phys.output_order, Some(0));
    }

    #[test]
    fn streaming_aggregate_used_when_order_is_free() {
        let cat = setup();
        // customers has an ordered path on id (customers_id index); group
        // by id → the optimizer should pick the streaming aggregate.
        let agg = LogicalPlan::aggregate(
            scan(&cat, "customers"),
            vec![0],
            vec![evopt_plan::AggExpr {
                func: evopt_common::AggFunc::CountStar,
                arg: None,
                name: "n".into(),
            }],
        )
        .unwrap();
        let phys = Optimizer::default_system_r().optimize(&agg, &cat).unwrap();
        assert_eq!(phys.op_name(), "SortAggregate", "plan:\n{phys}");
        assert_eq!(phys.output_order, Some(0));
        // The ordered input comes free: clustered heap order or index scan.
        assert!(matches!(
            phys.children()[0].op_name(),
            "SeqScan" | "IndexScan"
        ));
        // Grouping by a non-indexed column falls back to hashing.
        let agg = LogicalPlan::aggregate(scan(&cat, "customers"), vec![2], vec![]).unwrap();
        let phys = Optimizer::default_system_r().optimize(&agg, &cat).unwrap();
        assert_eq!(phys.op_name(), "HashAggregate", "plan:\n{phys}");
    }

    #[test]
    fn aggregate_and_limit_stack() {
        let cat = setup();
        let agg = LogicalPlan::aggregate(
            scan(&cat, "orders"),
            vec![1],
            vec![evopt_plan::AggExpr {
                func: evopt_common::AggFunc::Sum,
                arg: Some(col(2)),
                name: "total".into(),
            }],
        )
        .unwrap();
        let plan = LogicalPlan::Limit {
            input: Box::new(agg),
            limit: 5,
        };
        let phys = Optimizer::default_system_r().optimize(&plan, &cat).unwrap();
        assert_eq!(phys.op_name(), "Limit");
        assert_eq!(phys.children()[0].op_name(), "HashAggregate");
        assert!(phys.est_rows <= 5.0);
    }

    #[test]
    fn projection_passes_order_requirement_through() {
        let cat = setup();
        let proj = LogicalPlan::project(
            scan(&cat, "customers"),
            vec![col(0), col(1)],
            vec![None, None],
        )
        .unwrap();
        let plan = LogicalPlan::Sort {
            input: Box::new(proj),
            keys: vec![SortKey {
                column: 0,
                ascending: true,
            }],
        };
        let phys = Optimizer::default_system_r().optimize(&plan, &cat).unwrap();
        assert_eq!(phys.output_order, Some(0), "plan:\n{phys}");
    }

    #[test]
    fn all_strategies_produce_plans_for_three_way_join() {
        let cat = setup();
        // Third table to make it interesting.
        let regions = cat
            .create_table(
                "regions",
                Schema::new(vec![
                    Column::new("id", DataType::Int).not_null(),
                    Column::new("label", DataType::Str),
                ]),
            )
            .unwrap();
        for i in 0..10i64 {
            regions
                .heap
                .insert(&Tuple::new(vec![
                    Value::Int(i),
                    Value::Str(format!("r{i}")),
                ]))
                .unwrap();
        }
        analyze_table(&regions, &AnalyzeConfig::default()).unwrap();
        let join = LogicalPlan::Join {
            left: Box::new(LogicalPlan::Join {
                left: Box::new(scan(&cat, "orders")),
                right: Box::new(scan(&cat, "customers")),
                predicate: Some(Expr::eq(col(1), col(3))),
            }),
            right: Box::new(scan(&cat, "regions")),
            predicate: Some(Expr::eq(col(5), col(6))),
        };
        let model = CostModel::default();
        let mut costs = Vec::new();
        for strategy in [
            Strategy::SystemR,
            Strategy::BushyDp,
            Strategy::DpCcp,
            Strategy::Greedy,
            Strategy::Goo,
            Strategy::QuickPick {
                samples: 8,
                seed: 1,
            },
            Strategy::Syntactic,
        ] {
            let phys = Optimizer::new(OptimizerConfig {
                strategy,
                ..Default::default()
            })
            .optimize(&join, &cat)
            .unwrap();
            assert_eq!(phys.schema.len(), 8, "{}", strategy.name());
            assert_eq!(phys.scan_order().len(), 3, "{}", strategy.name());
            costs.push((strategy.name(), model.total(phys.est_cost)));
        }
        // DP strategies are never beaten.
        let dp = costs.iter().find(|(n, _)| *n == "bushy-dp").unwrap().1;
        for (name, c) in &costs {
            assert!(dp <= c + 1e-6, "bushy-dp {dp} beaten by {name} {c}");
        }
    }
}

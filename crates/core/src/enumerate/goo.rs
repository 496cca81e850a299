//! Greedy Operator Ordering (GOO).
//!
//! Unlike left-deep greedy, GOO maintains a *forest* of subplans and
//! repeatedly merges the pair whose join result is smallest — so it can
//! produce bushy shapes that left-deep greedy cannot. Still polynomial
//! (O(n³) pair evaluations), still heuristic.

use std::rc::Rc;

use evopt_common::{EvoptError, Result};
use evopt_obs::PruneReason;

use super::{JoinContext, SubPlan};

pub fn run(ctx: &JoinContext) -> Result<Rc<SubPlan>> {
    let n = ctx.rels.len();
    let mut forest: Vec<Rc<SubPlan>> = (0..n)
        .map(|r| ctx.cheapest_base(r))
        .collect::<Result<_>>()?;

    while forest.len() > 1 {
        let any_connected =
            pairs(forest.len()).any(|(i, j)| ctx.is_connected(forest[i].mask, forest[j].mask));
        let mut best: Option<(usize, usize, SubPlan)> = None;
        for (i, j) in pairs(forest.len()) {
            let connected = ctx.is_connected(forest[i].mask, forest[j].mask);
            if any_connected && !connected {
                continue;
            }
            for (a, b) in [(i, j), (j, i)] {
                for cand in ctx.join_candidates(&forest[a], &forest[b], !connected) {
                    ctx.trace_consider(&cand);
                    let better = match &best {
                        None => true,
                        Some((_, _, cur)) => {
                            (cand.rows, ctx.model.total(cand.cost))
                                < (cur.rows, ctx.model.total(cur.cost))
                        }
                    };
                    if better {
                        if let Some((_, _, prev)) = best.take() {
                            ctx.trace_prune(&prev, PruneReason::NotChosen);
                        }
                        best = Some((i, j, cand));
                    } else {
                        ctx.trace_prune(&cand, PruneReason::NotChosen);
                    }
                }
            }
        }
        let (i, j, merged) = best.ok_or_else(|| {
            EvoptError::Internal("goo: no join candidate (cross join should be a fallback)".into())
        })?;
        // Remove the higher index first to keep the lower index valid.
        let (hi, lo) = (i.max(j), i.min(j));
        forest.swap_remove(hi);
        forest.swap_remove(lo);
        forest.push(Rc::new(merged));
    }

    let last = forest
        .pop()
        .ok_or_else(|| EvoptError::Plan("goo: no relations to enumerate".into()))?;
    ctx.pick_final(vec![last])
}

fn pairs(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)))
}

#[cfg(test)]
mod tests {
    use crate::enumerate::fixtures::{chain3, star4};
    use crate::enumerate::{enumerate, Strategy};

    #[test]
    fn covers_all_relations() {
        let f = star4();
        let ctx = f.ctx();
        let plan = enumerate(&ctx, Strategy::Goo).unwrap();
        assert_eq!(plan.mask, ctx.graph.all_mask());
        assert_eq!(ctx.materialize(&plan).unwrap().scan_order().len(), 4);
    }

    #[test]
    fn bushy_dp_never_loses_to_goo() {
        for f in [chain3(), star4()] {
            let ctx = f.ctx();
            let dp = enumerate(&ctx, Strategy::BushyDp).unwrap();
            let goo = enumerate(&ctx, Strategy::Goo).unwrap();
            assert!(
                ctx.model.total(dp.cost) <= ctx.model.total(goo.cost) + 1e-6,
                "bushy dp {} > goo {}",
                ctx.model.total(dp.cost),
                ctx.model.total(goo.cost)
            );
        }
    }
}

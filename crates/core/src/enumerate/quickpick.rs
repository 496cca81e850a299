//! QuickPick: random sampling of join orders.
//!
//! Draw `samples` random left-deep orders (seeded, reproducible), build each
//! with the cheapest method per step, keep the best. A baseline between
//! "no optimization" and exhaustive search: quality improves with samples,
//! never reaches DP reliably on hard graphs — exactly the F2 story.

use std::rc::Rc;

use evopt_common::{EvoptError, Result};
use evopt_obs::PruneReason;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use super::{JoinContext, SubPlan};

pub fn run(ctx: &JoinContext, samples: usize, seed: u64) -> Result<Rc<SubPlan>> {
    if samples == 0 {
        return Err(EvoptError::Plan(
            "QuickPick needs at least one sample".into(),
        ));
    }
    let n = ctx.rels.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut finals: Vec<Rc<SubPlan>> = Vec::with_capacity(samples);

    for _ in 0..samples {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut current = ctx.cheapest_base(order[0])?;
        for &r in &order[1..] {
            let mut best: Option<SubPlan> = None;
            for base in ctx.base_subplans(r) {
                // Random orders may force cross products; always allowed.
                for cand in ctx.join_candidates(&current, &Rc::new(base), true) {
                    ctx.trace_consider(&cand);
                    let better = match &best {
                        None => true,
                        Some(b) => ctx.model.total(cand.cost) < ctx.model.total(b.cost),
                    };
                    if better {
                        if let Some(prev) = best.take() {
                            ctx.trace_prune(&prev, PruneReason::NotChosen);
                        }
                        best = Some(cand);
                    } else {
                        ctx.trace_prune(&cand, PruneReason::NotChosen);
                    }
                }
            }
            current = best.map(Rc::new).ok_or_else(|| {
                EvoptError::Internal(
                    "quickpick: no join candidate (cross join should be a fallback)".into(),
                )
            })?;
        }
        finals.push(current);
    }

    ctx.pick_final(finals)
}

#[cfg(test)]
mod tests {
    use crate::enumerate::fixtures::{chain3, star4};
    use crate::enumerate::{enumerate, Strategy};

    #[test]
    fn deterministic_for_same_seed() {
        let f = chain3();
        let ctx = f.ctx();
        let a = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 8,
                seed: 7,
            },
        )
        .unwrap();
        let b = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 8,
                seed: 7,
            },
        )
        .unwrap();
        assert_eq!(ctx.model.total(a.cost), ctx.model.total(b.cost));
        assert_eq!(
            ctx.materialize(&a).unwrap().scan_order(),
            ctx.materialize(&b).unwrap().scan_order()
        );
    }

    #[test]
    fn more_samples_never_worse() {
        let f = star4();
        let ctx = f.ctx();
        let few = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 1,
                seed: 3,
            },
        )
        .unwrap();
        let many = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 32,
                seed: 3,
            },
        )
        .unwrap();
        assert!(
            ctx.model.total(many.cost) <= ctx.model.total(few.cost) + 1e-6,
            "32 samples {} > 1 sample {}",
            ctx.model.total(many.cost),
            ctx.model.total(few.cost)
        );
    }

    #[test]
    fn dp_never_loses_to_quickpick() {
        let f = star4();
        let ctx = f.ctx();
        let dp = enumerate(&ctx, Strategy::SystemR).unwrap();
        let qp = enumerate(
            &ctx,
            Strategy::QuickPick {
                samples: 16,
                seed: 1,
            },
        )
        .unwrap();
        assert!(ctx.model.total(dp.cost) <= ctx.model.total(qp.cost) + 1e-6);
    }

    #[test]
    fn zero_samples_is_an_error() {
        let f = chain3();
        assert!(enumerate(
            &f.ctx(),
            Strategy::QuickPick {
                samples: 0,
                seed: 0
            }
        )
        .is_err());
    }
}

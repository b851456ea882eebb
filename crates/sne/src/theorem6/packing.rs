//! Subsidy packing strategies on a single path (the A1 ablation).
//!
//! The Theorem 11 analysis observes that to drop a path player's cost below
//! a cap with minimum subsidies, subsidies must be *packed on the least
//! crowded edges*: one unit of subsidy on an edge shared by `u` players
//! only reduces the player's cost by `1/u`, so low-usage (far-from-root)
//! edges give the most cost reduction per subsidy unit. This module
//! implements that packing plus two deliberately worse strategies
//! (most-crowded packing, uniform spreading) that the A1 ablation
//! (`exp_a1`) compares.

/// How to distribute subsidies along a path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackingStrategy {
    /// Fill edges in increasing order of usage — the paper's choice.
    LeastCrowded,
    /// Fill edges in decreasing order of usage (worst case).
    MostCrowded,
    /// Scale all subsidies by one common factor `λ`.
    Uniform,
}

/// Minimum total subsidy (under `strategy`) so that a player paying
/// `Σ (w_i − b_i)/u_i` over edges with weights `w` and usages `u` pays at
/// most `cap`. Returns `None` if even full subsidies leave the cost above
/// `cap` (i.e. `cap < 0`).
pub fn min_subsidy_to_cap_cost(
    usages: &[u32],
    weights: &[f64],
    cap: f64,
    strategy: PackingStrategy,
) -> Option<f64> {
    assert_eq!(usages.len(), weights.len());
    let base_cost: f64 = weights.iter().zip(usages).map(|(w, &u)| w / u as f64).sum();
    if base_cost <= cap + 1e-12 {
        return Some(0.0);
    }
    if cap < -1e-12 {
        return None;
    }
    match strategy {
        PackingStrategy::Uniform => {
            // b_i = λ w_i: (1 − λ) base ≤ cap ⇒ λ = 1 − cap/base.
            let lambda = (1.0 - cap / base_cost).clamp(0.0, 1.0);
            Some(lambda * weights.iter().sum::<f64>())
        }
        PackingStrategy::LeastCrowded | PackingStrategy::MostCrowded => {
            let mut order: Vec<usize> = (0..usages.len()).collect();
            match strategy {
                PackingStrategy::LeastCrowded => order.sort_by_key(|&i| usages[i]),
                PackingStrategy::MostCrowded => {
                    order.sort_by_key(|&i| std::cmp::Reverse(usages[i]))
                }
                PackingStrategy::Uniform => unreachable!(),
            }
            let mut need = base_cost - cap; // cost reduction still required
            let mut total = 0.0f64;
            for &i in &order {
                if need <= 1e-12 {
                    break;
                }
                let u = usages[i] as f64;
                let full_reduction = weights[i] / u;
                if full_reduction <= need + 1e-15 {
                    total += weights[i];
                    need -= full_reduction;
                } else {
                    // Partial subsidy: reduce by exactly `need`.
                    total += need * u;
                    need = 0.0;
                }
            }
            if need > 1e-9 {
                None // cannot reach the cap even fully subsidized
            } else {
                Some(total)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Theorem 11 setting: unit path with usages n, n−1, …, 1; cap = 1.
    fn theorem11_instance(n: usize) -> (Vec<u32>, Vec<f64>) {
        let usages: Vec<u32> = (1..=n as u32).rev().collect();
        let weights = vec![1.0; n];
        (usages, weights)
    }

    #[test]
    fn least_crowded_beats_others_on_cycle_instance() {
        for n in [5usize, 10, 25, 50] {
            let (u, w) = theorem11_instance(n);
            let least = min_subsidy_to_cap_cost(&u, &w, 1.0, PackingStrategy::LeastCrowded)
                .expect("feasible");
            let most = min_subsidy_to_cap_cost(&u, &w, 1.0, PackingStrategy::MostCrowded)
                .expect("feasible");
            let unif =
                min_subsidy_to_cap_cost(&u, &w, 1.0, PackingStrategy::Uniform).expect("feasible");
            assert!(least <= most + 1e-9, "least {least} > most {most} (n={n})");
            assert!(
                least <= unif + 1e-9,
                "least {least} > uniform {unif} (n={n})"
            );
            if n >= 10 {
                assert!(least < most - 0.5, "gap should be large at n={n}");
            }
        }
    }

    #[test]
    fn least_crowded_ratio_tends_to_one_over_e() {
        // Theorem 11: minimal subsidies / n → 1/e.
        let n = 20_000;
        let (u, w) = theorem11_instance(n);
        let least = min_subsidy_to_cap_cost(&u, &w, 1.0, PackingStrategy::LeastCrowded).unwrap();
        let ratio = least / n as f64;
        assert!(
            (ratio - 1.0 / std::f64::consts::E).abs() < 1e-3,
            "ratio {ratio}"
        );
    }

    #[test]
    fn zero_needed_when_under_cap() {
        let got = min_subsidy_to_cap_cost(&[2, 3], &[0.5, 0.5], 2.0, PackingStrategy::LeastCrowded);
        assert_eq!(got, Some(0.0));
    }

    #[test]
    fn infeasible_cap_detected() {
        assert_eq!(
            min_subsidy_to_cap_cost(&[1], &[1.0], -1.0, PackingStrategy::LeastCrowded),
            None
        );
    }

    #[test]
    fn exact_small_case() {
        // Usages [3, 1], weights [1, 1], cap 0.5: base = 1/3 + 1 = 4/3.
        // Least crowded: subsidize the u=1 edge fully (reduces 1) →
        // remaining 1/3 > 0.5? No: 4/3 − 1 = 1/3 ≤ 0.5 after reduction of 1.
        // Need = 4/3 − 1/2 = 5/6; full e(u=1) gives 1 ≥ 5/6 ⇒ partial:
        // b = 5/6 · 1 = 5/6.
        let got = min_subsidy_to_cap_cost(&[3, 1], &[1.0, 1.0], 0.5, PackingStrategy::LeastCrowded)
            .unwrap();
        assert!((got - 5.0 / 6.0).abs() < 1e-12, "{got}");
        // Most crowded: subsidize u=3 edge fully (reduces 1/3), then the
        // u=1 edge partially by 1/2: total = 1 + 1/2.
        let worst =
            min_subsidy_to_cap_cost(&[3, 1], &[1.0, 1.0], 0.5, PackingStrategy::MostCrowded)
                .unwrap();
        assert!((worst - 1.5).abs() < 1e-12, "{worst}");
    }

    #[test]
    fn uniform_formula() {
        // base = 2, cap = 1 ⇒ λ = 1/2 ⇒ total = half the weight.
        let got =
            min_subsidy_to_cap_cost(&[1, 1], &[1.0, 1.0], 1.0, PackingStrategy::Uniform).unwrap();
        assert!((got - 1.0).abs() < 1e-12);
    }
}

//! Pairwise rebalancing — Section 3.4, after Rudolph, Slivkin-Allalouf,
//! and Upfal.
//!
//! At exponential rate `r(i)` (possibly depending on its load `i`) a
//! processor picks a uniform partner and the two equalize their loads:
//! a pair `(j, k)` with `j ≥ k` becomes `(⌈(j+k)/2⌉, ⌊(j+k)/2⌋)`. In
//! the mean field, pair `(j, k)` meetings occur at rate
//! `(r(j) + r(k)) p_j p_k` and affect `s_i` only for `k < i ≤ j`:
//! the pair ends with both sides ≥ i when `j + k ≥ 2i`, with both below
//! `i` when `j + k ≤ 2i − 2`, and unchanged at `j + k = 2i − 1`. Hence
//! for `i ≥ 1`:
//!
//! ```text
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//!           − Σ_{j=i}^{2i−2} Σ_{k=0}^{2i−2−j} (r(j)+r(k)) p_j p_k
//!           + Σ_{k=0}^{i−1}  Σ_{j=2i−k}^{∞}   (r(j)+r(k)) p_j p_k
//! ```
//!
//! with `p_m = s_m − s_{m+1}`. The double sums are evaluated with suffix
//! prefix sums, so one derivative evaluation costs `O(L²)` in the worst
//! case but with small constants.

use loadsteal_ode::OdeSystem;

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, s, MeanFieldModel};

/// Load-dependent rebalance rate `r(i)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebalanceRateFn {
    /// `r(i) = rate` for every load.
    Constant(f64),
    /// `r(i) = rate · i`.
    PerTask(f64),
}

impl RebalanceRateFn {
    /// Evaluate `r(i)`.
    #[inline]
    pub fn rate(&self, load: usize) -> f64 {
        match *self {
            Self::Constant(r) => r,
            Self::PerTask(r) => r * load as f64,
        }
    }
}

/// Mean-field model of pairwise load rebalancing.
#[derive(Debug, Clone, PartialEq)]
pub struct Rebalance {
    lambda: f64,
    rate: RebalanceRateFn,
    levels: usize,
}

impl Rebalance {
    /// Create the model for `0 < λ < 1` and a rebalance rate function.
    pub fn new(lambda: f64, rate: RebalanceRateFn) -> Result<Self, String> {
        check_lambda(lambda)?;
        let base = match rate {
            RebalanceRateFn::Constant(r) | RebalanceRateFn::PerTask(r) => r,
        };
        if !(base > 0.0 && base.is_finite()) {
            return Err(format!(
                "rebalance rate must be positive and finite, got {base}"
            ));
        }
        Ok(Self {
            lambda,
            rate,
            levels: default_truncation(lambda),
        })
    }

    /// The rebalance rate function.
    pub fn rate_fn(&self) -> RebalanceRateFn {
        self.rate
    }
}

impl OdeSystem for Rebalance {
    fn dim(&self) -> usize {
        self.levels
    }

    // Loop variables are occupancy levels mirroring the paper's double
    // sums; positional iteration would hide the index arithmetic.
    #[allow(clippy::needless_range_loop)]
    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let l = self.levels;
        // Point masses p_m = s_m − s_{m+1} and their r-weighted version,
        // for m = 0..=L.
        let mut p = vec![0.0; l + 1];
        let mut rp = vec![0.0; l + 1];
        for m in 0..=l {
            p[m] = s(y, m) - s(y, m + 1);
            rp[m] = self.rate.rate(m) * p[m];
        }
        // Suffix sums: ps[m] = Σ_{j≥m} p_j, rs[m] = Σ_{j≥m} r(j) p_j;
        // prefix sums: pp[m] = Σ_{k≤m} p_k, rpp[m] = Σ_{k≤m} r(k) p_k.
        let mut ps = vec![0.0; l + 2];
        let mut rs = vec![0.0; l + 2];
        for m in (0..=l).rev() {
            ps[m] = ps[m + 1] + p[m];
            rs[m] = rs[m + 1] + rp[m];
        }
        let mut pp = vec![0.0; l + 1];
        let mut rpp = vec![0.0; l + 1];
        let (mut acc_p, mut acc_rp) = (0.0, 0.0);
        for m in 0..=l {
            acc_p += p[m];
            acc_rp += rp[m];
            pp[m] = acc_p;
            rpp[m] = acc_rp;
        }

        for i in 1..=l {
            let flow = lambda * (s(y, i - 1) - s(y, i));
            let dep = s(y, i) - s(y, i + 1);
            // Loss: pairs (j ≥ i, k < i) with j + k ≤ 2i − 2:
            //   Σ_j p_j [ r(j) Σ_{k≤kmax} p_k + Σ_{k≤kmax} r(k) p_k ].
            let mut loss = 0.0;
            for j in i..=(2 * i - 2).min(l) {
                let kmax = 2 * i - 2 - j;
                loss += p[j] * (self.rate.rate(j) * pp[kmax.min(l)] + rpp[kmax.min(l)]);
            }
            // Gain: pairs (k < i, j ≥ 2i − k).
            let mut gain = 0.0;
            for k in 0..i.min(l + 1) {
                let jmin = 2 * i - k;
                if jmin > l {
                    continue;
                }
                gain += p[k] * self.rate.rate(k) * ps[jmin] + p[k] * rs[jmin];
            }
            dy[i - 1] = flow - dep - loss + gain;
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for Rebalance {
    fn name(&self) -> String {
        let desc = match self.rate {
            RebalanceRateFn::Constant(r) => format!("r(i) = {r}"),
            RebalanceRateFn::PerTask(r) => format!("r(i) = {r}·i"),
        };
        format!("pairwise rebalance (λ = {}, {desc})", self.lambda)
    }

    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn truncation(&self) -> usize {
        self.levels
    }

    fn with_truncation(&self, levels: usize) -> Self {
        Self {
            levels,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::NoSteal;

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    #[test]
    fn rebalancing_conserves_tasks() {
        // Σ dy_i must equal arrivals − services at any state: the
        // rebalance terms only move tasks around. ⌈·⌉ + ⌊·⌋ = j + k.
        let m = Rebalance::new(0.8, RebalanceRateFn::Constant(1.0)).unwrap();
        let state = TailVector::geometric(0.75, m.truncation()).into_vec();
        let mut dy = vec![0.0; state.len()];
        m.deriv(0.0, &state, &mut dy);
        let dl: f64 = dy.iter().sum();
        let expect = 0.8 - 0.75; // λ − s₁
        assert!(
            (dl - expect).abs() < 1e-8,
            "dL/dt = {dl}, expected {expect}"
        );
    }

    #[test]
    fn throughput_balance_holds() {
        let m = Rebalance::new(0.8, RebalanceRateFn::Constant(0.5)).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        assert!(
            (fp.task_tails[1] - 0.8).abs() < 1e-7,
            "π₁ = {}",
            fp.task_tails[1]
        );
    }

    #[test]
    fn rebalancing_beats_no_stealing() {
        let lambda = 0.9;
        let none = NoSteal::new(lambda).unwrap().closed_form_mean_time();
        let m = Rebalance::new(lambda, RebalanceRateFn::Constant(1.0)).unwrap();
        let w = solve(&m, &opts()).unwrap().mean_time_in_system;
        assert!(w < none, "rebalance {w} vs none {none}");
    }

    #[test]
    fn faster_rebalancing_helps_more() {
        let lambda = 0.9;
        let slow = solve(
            &Rebalance::new(lambda, RebalanceRateFn::Constant(0.2)).unwrap(),
            &opts(),
        )
        .unwrap()
        .mean_time_in_system;
        let fast = solve(
            &Rebalance::new(lambda, RebalanceRateFn::Constant(2.0)).unwrap(),
            &opts(),
        )
        .unwrap()
        .mean_time_in_system;
        assert!(fast < slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn per_task_rates_work() {
        let lambda = 0.85;
        let m = Rebalance::new(lambda, RebalanceRateFn::PerTask(0.25)).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let none = NoSteal::new(lambda).unwrap().closed_form_mean_time();
        assert!(fp.mean_time_in_system < none);
    }

    #[test]
    fn rejects_bad_rates() {
        assert!(Rebalance::new(0.5, RebalanceRateFn::Constant(0.0)).is_err());
        assert!(Rebalance::new(0.5, RebalanceRateFn::PerTask(-1.0)).is_err());
    }
}

//! Hyperexponential service — the mixture half of Section 3.1.
//!
//! The paper notes any service law can be approached by mixtures of
//! gamma distributions. [`super::ErlangStages`] covers the low-variance
//! direction (sums of exponentials → constants); this model covers the
//! high-variance direction: service is Exponential(`μ₁`) with
//! probability `p`, else Exponential(`μ₂`) — a two-branch
//! hyperexponential with squared coefficient of variation above 1.
//!
//! The state tracks the branch of the *in-service* task:
//! `h^b_i` = fraction of processors whose current task is branch `b`
//! and whose queue holds at least `i` tasks (queued tasks have no
//! branch yet — it is sampled when service begins). With
//! `H_m = Σ_b h^b_m`, `A = Σ_b μ_b (h^b_1 − h^b_2)` (the rate thieves
//! appear) and threshold `T`:
//!
//! ```text
//! dh^b_1/dt = λ p_b (1 − H_1) + p_b Σ_c μ_c h^c_2 + p_b A H_T − μ_b h^b_1
//! dh^b_i/dt = λ(h^b_{i−1} − h^b_i) + p_b Σ_c μ_c h^c_{i+1} − μ_b h^b_i
//!               − A (h^b_i − h^b_{i+1}) · [i ≥ T]
//! ```
//!
//! (every completion by a branch-`b` server leaves the `b` class — the
//! next task resamples its branch — which is why the loss term is the
//! clean `μ_b h^b_i`). A single branch recovers the threshold model
//! exactly; two distinct branches show Table 2's effect mirrored:
//! *more* service variability means *longer* times in system.

use loadsteal_ode::jacobian::BlockLayout;
use loadsteal_ode::OdeSystem;

use super::MeanFieldModel;

/// Mean-field model of threshold stealing with two-branch
/// hyperexponential service.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperService {
    lambda: f64,
    p: f64,
    mu1: f64,
    mu2: f64,
    threshold: usize,
    levels: usize,
}

impl HyperService {
    /// Create the model: arrival rate `λ`, branch-1 probability
    /// `p ∈ [0, 1]`, branch rates `μ₁, μ₂ > 0`, threshold `T ≥ 2`.
    /// Requires `λ · E[S] < 1` with `E[S] = p/μ₁ + (1−p)/μ₂`.
    pub fn new(lambda: f64, p: f64, mu1: f64, mu2: f64, threshold: usize) -> Result<Self, String> {
        if !(lambda > 0.0 && lambda.is_finite()) {
            return Err(format!("arrival rate must be positive, got {lambda}"));
        }
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("branch probability must be in [0, 1], got {p}"));
        }
        if !(mu1 > 0.0 && mu2 > 0.0) {
            return Err("branch rates must be positive".into());
        }
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        let mean = p / mu1 + (1.0 - p) / mu2;
        let rho = lambda * mean;
        if rho >= 1.0 {
            return Err(format!("unstable: λ·E[S] = {rho} >= 1"));
        }
        let levels =
            crate::tail::truncation_for_ratio(rho.max(0.05), 1e-14, 32, 8_192).max(threshold + 8);
        Ok(Self {
            lambda,
            p,
            mu1,
            mu2,
            threshold,
            levels,
        })
    }

    /// Construct with unit mean service and a target squared coefficient
    /// of variation `scv ≥ 1`, using balanced branch means
    /// (`p/μ₁ = (1−p)/μ₂ = 1/2`).
    pub fn with_scv(lambda: f64, scv: f64, threshold: usize) -> Result<Self, String> {
        if scv < 1.0 {
            return Err(format!(
                "two-branch hyperexponential needs scv >= 1, got {scv} \
                 (use ErlangStages for scv < 1)"
            ));
        }
        // Balanced-means parameterization: p = (1 ± sqrt((c²−1)/(c²+1)))/2.
        let x = ((scv - 1.0) / (scv + 1.0)).sqrt();
        let p = 0.5 * (1.0 + x);
        let mu1 = 2.0 * p;
        let mu2 = 2.0 * (1.0 - p);
        Self::new(lambda, p, mu1, mu2, threshold)
    }

    /// Branch parameters `(p, μ₁, μ₂)`.
    pub fn branches(&self) -> (f64, f64, f64) {
        (self.p, self.mu1, self.mu2)
    }

    /// Mean service time `E[S]`.
    pub fn mean_service(&self) -> f64 {
        self.p / self.mu1 + (1.0 - self.p) / self.mu2
    }

    /// Squared coefficient of variation of the service law.
    pub fn service_scv(&self) -> f64 {
        let m = self.mean_service();
        let ex2 = 2.0 * (self.p / (self.mu1 * self.mu1) + (1.0 - self.p) / (self.mu2 * self.mu2));
        ex2 / (m * m) - 1.0
    }

    // State layout: y[b * levels + (i−1)] = h^b_i for b ∈ {0, 1}.

    #[inline]
    fn h(&self, y: &[f64], b: usize, i: usize) -> f64 {
        if i == 0 {
            unreachable!("h^b_0 is not defined; use the idle mass");
        }
        if i <= self.levels {
            y[b * self.levels + i - 1]
        } else {
            0.0
        }
    }

    #[inline]
    fn agg(&self, y: &[f64], i: usize) -> f64 {
        if i == 0 {
            1.0
        } else if i > self.levels {
            0.0
        } else {
            self.h(y, 0, i) + self.h(y, 1, i)
        }
    }
}

impl OdeSystem for HyperService {
    fn dim(&self) -> usize {
        2 * self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let t = self.threshold;
        let probs = [self.p, 1.0 - self.p];
        let mus = [self.mu1, self.mu2];
        let h1 = self.agg(y, 1);
        let thief_rate = mus[0] * (self.h(y, 0, 1) - self.h(y, 0, 2))
            + mus[1] * (self.h(y, 1, 1) - self.h(y, 1, 2));
        let success = self.agg(y, t);
        for b in 0..2 {
            // Completions by either branch whose next task lands in b.
            for i in 1..=self.levels {
                let restart_gain =
                    probs[b] * (mus[0] * self.h(y, 0, i + 1) + mus[1] * self.h(y, 1, i + 1));
                let d = if i == 1 {
                    lambda * probs[b] * (1.0 - h1) + restart_gain + probs[b] * thief_rate * success
                        - mus[b] * self.h(y, b, 1)
                } else {
                    let arrivals = lambda * (self.h(y, b, i - 1) - self.h(y, b, i));
                    let robbed = if i >= t {
                        thief_rate * (self.h(y, b, i) - self.h(y, b, i + 1))
                    } else {
                        0.0
                    };
                    arrivals + restart_gain - mus[b] * self.h(y, b, i) - robbed
                };
                dy[b * self.levels + i - 1] = d;
            }
        }
    }

    fn project(&self, y: &mut [f64]) {
        for b in 0..2 {
            let block = &mut y[b * self.levels..(b + 1) * self.levels];
            let mut prev = 1.0_f64;
            for v in block.iter_mut() {
                *v = v.clamp(0.0, prev);
                prev = *v;
            }
        }
    }
}

impl MeanFieldModel for HyperService {
    fn name(&self) -> String {
        format!(
            "hyperexp-service WS (λ = {}, p = {:.3}, μ₁ = {:.3}, μ₂ = {:.3}, T = {})",
            self.lambda, self.p, self.mu1, self.mu2, self.threshold
        )
    }

    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn truncation(&self) -> usize {
        self.levels
    }

    fn with_truncation(&self, levels: usize) -> Self {
        Self {
            levels: levels.max(self.threshold + 8),
            ..self.clone()
        }
    }

    fn empty_state(&self) -> Vec<f64> {
        vec![0.0; 2 * self.levels]
    }

    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        (0..=self.levels).map(|i| self.agg(y, i)).collect()
    }

    fn boundary_mass(&self, y: &[f64]) -> f64 {
        self.agg(y, self.levels)
    }

    fn block_layout(&self) -> BlockLayout {
        BlockLayout { head: 0, blocks: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::{SimpleWs, ThresholdWs};

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    #[test]
    fn degenerate_mixture_is_the_simple_model() {
        // p = 1 collapses to Exponential(1).
        let lambda = 0.85;
        let m = HyperService::new(lambda, 1.0, 1.0, 5.0, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let exact = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        assert!(
            (fp.mean_time_in_system - exact).abs() < 1e-6,
            "{} vs {exact}",
            fp.mean_time_in_system
        );
    }

    #[test]
    fn equal_branches_are_exponential_threshold_model() {
        let lambda = 0.9;
        let m = HyperService::new(lambda, 0.5, 1.0, 1.0, 4).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let exact = ThresholdWs::new(lambda, 4).unwrap().closed_form_mean_time();
        assert!((fp.mean_time_in_system - exact).abs() < 1e-6);
    }

    #[test]
    fn with_scv_hits_its_targets() {
        let m = HyperService::with_scv(0.8, 4.0, 2).unwrap();
        assert!((m.mean_service() - 1.0).abs() < 1e-12);
        assert!((m.service_scv() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_balance_holds() {
        // Completions = μ₁ h¹₁ + μ₂ h²₁ = λ at the fixed point.
        let m = HyperService::with_scv(0.8, 4.0, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let m = m.with_truncation(fp.truncation);
        let (p, mu1, mu2) = m.branches();
        let _ = p;
        let l = m.truncation();
        let throughput = mu1 * fp.state[0] + mu2 * fp.state[l];
        assert!((throughput - 0.8).abs() < 1e-7, "throughput {throughput}");
    }

    #[test]
    fn variability_hurts_monotonically() {
        // Table 2's effect mirrored: scv 1 → 2 → 4 increases W.
        let lambda = 0.9;
        let mut last = 0.0;
        for scv in [1.0, 2.0, 4.0] {
            let m = HyperService::with_scv(lambda, scv, 2).unwrap();
            let w = solve(&m, &opts()).unwrap().mean_time_in_system;
            assert!(w > last, "scv = {scv}: W = {w} !> {last}");
            last = w;
        }
        // And scv = 1 equals the exponential closed form.
        let m1 = HyperService::with_scv(lambda, 1.0, 2).unwrap();
        let w1 = solve(&m1, &opts()).unwrap().mean_time_in_system;
        let exact = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        assert!((w1 - exact).abs() < 1e-6);
    }

    #[test]
    fn conservation_at_the_fixed_point_only() {
        // dL/dt = λ − throughput; at an arbitrary state throughput is
        // μ-weighted, so check at the fixed point where it equals λ.
        let m = HyperService::with_scv(0.7, 3.0, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let m = m.with_truncation(fp.truncation);
        let mut dy = vec![0.0; fp.state.len()];
        m.deriv(0.0, &fp.state, &mut dy);
        let dl: f64 = dy.iter().sum();
        assert!(dl.abs() < 1e-9, "dL/dt = {dl} at the fixed point");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(HyperService::new(0.5, 1.5, 1.0, 1.0, 2).is_err());
        assert!(HyperService::new(0.5, 0.5, 0.0, 1.0, 2).is_err());
        assert!(HyperService::new(2.0, 0.5, 1.0, 1.0, 2).is_err());
        assert!(HyperService::with_scv(0.5, 0.5, 2).is_err());
        assert!(HyperService::new(0.5, 0.5, 1.0, 1.0, 1).is_err());
    }
}

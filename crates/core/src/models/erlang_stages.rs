//! Erlang's method of stages: (nearly) constant service times —
//! Section 3.1.
//!
//! A constant unit service is approximated by `c` exponential stages of
//! mean `1/c` each (a gamma/Erlang-c service law; `c → ∞` gives a
//! constant). The state tracks *stages*: `s_i` = fraction of processors
//! with at least `i` stages of work left. A queued task carries `c`
//! stages, so a processor with ≥ 2 tasks is one with ≥ c + 1 stages.
//! Stealing is the simple policy (steal whenever a random victim has at
//! least two tasks, i.e. `T = 2`):
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) − c(s_1 − s_2)(1 − s_{c+1})
//! ds_i/dt = λ(s_0 − s_i) + c(s_1 − s_2) s_{i+c} − c(s_i − s_{i+1}),       2 ≤ i ≤ c
//! ds_i/dt = λ(s_{i−c} − s_i) − c(s_i − s_{i+1})
//!              − c(s_i − s_{i+c})(s_1 − s_2),                             i ≥ c+1
//! ```
//!
//! (An arrival adds `c` stages at once, which is why `s_i` for `i ≤ c`
//! feeds from `s_0`; a steal moves exactly `c` stages from victim to
//! thief.) The paper's Table 2 compares the `c = 10` and `c = 20` fixed
//! points against simulations with truly constant service times.

use loadsteal_ode::OdeSystem;

use crate::tail::{truncation_for_ratio, TailVector};

use super::{check_lambda, s, MeanFieldModel};

/// Most stage levels a model may start from; at 8 or more levels per
/// stage, this caps `c` at 7500.
const MAX_STAGE_LEVELS: usize = 60_000;

/// Mean-field model of simple WS with Erlang-`c` (≈ constant) service.
#[derive(Debug, Clone, PartialEq)]
pub struct ErlangStages {
    lambda: f64,
    stages: usize,
    threshold: usize,
    levels: usize,
}

impl ErlangStages {
    /// Create the model for `0 < λ < 1` and `c ≥ 1` service stages with
    /// the paper's steal-whenever-possible policy (`T = 2`).
    pub fn new(lambda: f64, stages: usize) -> Result<Self, String> {
        Self::with_threshold(lambda, stages, 2)
    }

    /// Like [`Self::new`] but with a victim-load threshold `T ≥ 2`
    /// (a victim must hold at least `T` tasks, i.e. `(T−1)c + 1`
    /// stages) — the Section 2.3 and 3.1 extensions combined.
    pub fn with_threshold(lambda: f64, stages: usize, threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if stages == 0 {
            return Err("need at least one service stage".into());
        }
        if stages > MAX_STAGE_LEVELS / 8 {
            return Err(format!(
                "{stages} service stages need more than the cap of {MAX_STAGE_LEVELS} stage levels"
            ));
        }
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        // Per-task tails decay at least as fast as the exponential-service
        // stealing system's ρ'; per-stage that is ρ'^(1/c).
        let rho_task = {
            let disc = (1.0 + lambda) * (1.0 + lambda) - 4.0 * lambda * lambda;
            let pi2 = 0.5 * (1.0 + lambda - disc.sqrt());
            lambda / (1.0 + lambda - pi2)
        };
        let stage_ratio = rho_task.powf(1.0 / stages as f64);
        let levels = truncation_for_ratio(stage_ratio, 1e-14, stages * 8, MAX_STAGE_LEVELS)
            .max((threshold + 1) * stages + 8);
        Ok(Self {
            lambda,
            stages,
            threshold,
            levels,
        })
    }

    /// The number of service stages `c`.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// The victim-load threshold `T` (in tasks).
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The threshold in *stages*: a victim holds ≥ T tasks iff it holds
    /// ≥ (T−1)c + 1 stages.
    fn stage_threshold(&self) -> usize {
        (self.threshold - 1) * self.stages + 1
    }

    #[inline]
    fn s_signed(&self, y: &[f64], i: isize) -> f64 {
        if i <= 0 {
            1.0
        } else {
            s(y, i as usize)
        }
    }

    /// `ds_i/dt` for `i ≥ 2`, term by term, with every level read through
    /// the boundary conventions (`s_0 = 1`, `s_i = 0` past the
    /// truncation). `steal_rate = c(s_1 − s_2)` and `q` is the stage
    /// threshold.
    fn level_rate(&self, y: &[f64], i: usize, steal_rate: f64, q: usize) -> f64 {
        let c = self.stages;
        // Arrivals add c fresh stages: any processor with ≥ i−c
        // stages reaches ≥ i (s_0 = 1 covers i ≤ c).
        let arrivals = self.lambda * (self.s_signed(y, i as isize - c as isize) - s(y, i));
        let stage_dep = c as f64 * (s(y, i) - s(y, i + 1));
        // Thief side: a successful steal lifts an empty processor to
        // exactly c stages, feeding every level i ≤ c (rate
        // steal_rate·s_q). Victim side: qualifying victims with stages
        // in [max(i, q), i+c−1] drop below i when robbed of c stages.
        // For i ≤ c < q the two share s_q, so take their difference
        // in closed form rather than let s_q cancel up to rounding.
        let steals = if i <= c {
            steal_rate * s(y, q.max(i + c))
        } else if i + c > q {
            -steal_rate * (s(y, i.max(q)) - s(y, i + c))
        } else {
            0.0
        };
        arrivals - stage_dep + steals
    }
}

impl OdeSystem for ErlangStages {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let c = self.stages;
        let cf = c as f64;
        let s1 = s(y, 1);
        let s2 = s(y, 2);
        // Rate of steal attempts = rate of final-stage completions; a
        // victim qualifies with ≥ T tasks, i.e. ≥ q = (T−1)c+1 stages.
        let steal_rate = cf * (s1 - s2);
        let q = self.stage_threshold();
        let sq = s(y, q);
        dy[0] = lambda * (1.0 - s1) - steal_rate * (1.0 - sq);
        // Interior levels q ≤ i ≤ L − c (q > c, so i > c too) read
        // s_{i−c}, s_i, s_{i+1} and s_{i+c}, all stored: one straight-line
        // loop over shifted slices, the same arithmetic as `level_rate`.
        // The boundary levels on either side go through `level_rate`.
        let first = q.min(self.levels + 1);
        let end = (self.levels.saturating_sub(c) + 1).max(first);
        for i in (2..first).chain(end..=self.levels) {
            dy[i - 1] = self.level_rate(y, i, steal_rate, q);
        }
        if first == end {
            return;
        }
        let rows = first - 1..end - 1;
        let below = &y[rows.start - c..rows.end - c];
        let at = &y[rows.clone()];
        let next = &y[rows.start + 1..rows.end + 1];
        let above = &y[rows.start + c..rows.end + c];
        let interior = dy[rows].iter_mut().zip(below).zip(at).zip(next).zip(above);
        for ((((d, &lo), &s), &nx), &hi) in interior {
            *d = lambda * (lo - s) - cf * (s - nx) - steal_rate * (s - hi);
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for ErlangStages {
    fn name(&self) -> String {
        format!(
            "erlang-stage WS (λ = {}, c = {} stages, T = {})",
            self.lambda, self.stages, self.threshold
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
            levels: levels.max(self.stages * 4),
            ..self.clone()
        }
    }

    /// Mean *tasks* per processor: a processor has ≥ k tasks iff it has
    /// ≥ (k−1)c + 1 stages, so `L = Σ_{k≥1} s_{(k−1)c+1}`.
    fn mean_tasks(&self, y: &[f64]) -> f64 {
        let mut total = 0.0;
        let mut idx = 1;
        while idx <= self.levels {
            total += s(y, idx);
            idx += self.stages;
        }
        total
    }

    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        let mut tails = vec![1.0];
        let mut idx = 1;
        while idx <= self.levels {
            tails.push(s(y, idx));
            idx += self.stages;
        }
        tails
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::SimpleWs;

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    /// The per-level loop `deriv` used before its interior became one
    /// slice loop: every level through `s`/`s_signed`, the oracle the
    /// slice loop must match bit for bit.
    fn reference_deriv(m: &ErlangStages, y: &[f64], dy: &mut [f64]) {
        let lambda = m.lambda;
        let c = m.stages;
        let cf = c as f64;
        let s1 = s(y, 1);
        let s2 = s(y, 2);
        let steal_rate = cf * (s1 - s2);
        let q = m.stage_threshold();
        let sq = s(y, q);
        dy[0] = lambda * (1.0 - s1) - steal_rate * (1.0 - sq);
        for i in 2..=m.levels {
            let arrivals = lambda * (m.s_signed(y, i as isize - c as isize) - s(y, i));
            let stage_dep = cf * (s(y, i) - s(y, i + 1));
            let steals = if i <= c {
                steal_rate * s(y, q.max(i + c))
            } else if i + c > q {
                -steal_rate * (s(y, i.max(q)) - s(y, i + c))
            } else {
                0.0
            };
            dy[i - 1] = arrivals - stage_dep + steals;
        }
    }

    #[test]
    fn interior_loop_matches_the_per_level_oracle_bit_for_bit() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut uniform = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for c in [1usize, 2, 3, 7, 10, 20] {
            for t in [2usize, 3, 4, 5, 8] {
                let q = (t - 1) * c + 1;
                // From the 4c floor (interior empty for T ≥ 4, short for
                // T = 2, 3) through the edges of the interior to ≥ 300
                // levels; below the floor only by direct construction.
                let mut sizes = vec![1, 2, c, 2 * c, 2 * c + 1, q + c - 1, q + c, q + c + 1];
                sizes.extend([4 * c, 4 * c + 1, 4 * c + 7, q + 2 * c, 300, 301, 12 * c + 5]);
                for levels in sizes {
                    let m = ErlangStages {
                        lambda: 0.1 + 0.85 * uniform(),
                        stages: c,
                        threshold: t,
                        levels,
                    };
                    for _ in 0..3 {
                        let mut y: Vec<f64> = (0..m.levels).map(|_| uniform()).collect();
                        y.sort_by(|a, b| b.total_cmp(a));
                        let (mut fast, mut oracle) = (vec![0.0; m.levels], vec![0.0; m.levels]);
                        m.deriv(0.0, &y, &mut fast);
                        reference_deriv(&m, &y, &mut oracle);
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&fast), bits(&oracle), "c = {c}, T = {t}, L = {levels}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_stage_reduces_to_simple_ws() {
        let lambda = 0.8;
        let m = ErlangStages::new(lambda, 1).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        let exact = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        assert!(
            (fp.mean_time_in_system - exact).abs() < 1e-6,
            "c = 1: {} vs simple WS {exact}",
            fp.mean_time_in_system
        );
    }

    #[test]
    fn throughput_balance_in_stages() {
        // At the fixed point service output (fraction busy) equals λ.
        let m = ErlangStages::new(0.7, 10).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        assert!(
            (fp.task_tails[1] - 0.7).abs() < 1e-7,
            "π₁ = {}",
            fp.task_tails[1]
        );
    }

    #[test]
    fn constant_service_beats_exponential() {
        // Table 2's headline: lower service variability → smaller W.
        let lambda = 0.9;
        let exp_w = SimpleWs::new(lambda).unwrap().closed_form_mean_time();
        let det_w = solve(&ErlangStages::new(lambda, 10).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        assert!(det_w < exp_w, "c=10 {det_w} vs exponential {exp_w}");
    }

    #[test]
    fn reproduces_table2_estimates_c10() {
        // Table 2, "c = 10" column.
        for &(lambda, expect) in &[(0.50, 1.405), (0.80, 2.070), (0.90, 2.759)] {
            let m = ErlangStages::new(lambda, 10).unwrap();
            let w = solve(&m, &opts()).unwrap().mean_time_in_system;
            assert!(
                (w - expect).abs() < 0.02,
                "λ = {lambda}: computed {w}, paper {expect}"
            );
        }
    }

    #[test]
    fn more_stages_move_towards_constant() {
        // W decreases with c (less service variability).
        let lambda = 0.9;
        let w10 = solve(&ErlangStages::new(lambda, 10).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        let w20 = solve(&ErlangStages::new(lambda, 20).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        assert!(w20 < w10, "c=20 {w20} vs c=10 {w10}");
        // And the paper's c = 20 value at λ = 0.9 is 2.700.
        assert!((w20 - 2.700).abs() < 0.02, "w20 = {w20}");
    }

    #[test]
    fn one_stage_with_threshold_matches_threshold_model() {
        use crate::models::ThresholdWs;
        let lambda = 0.9;
        for t in [3usize, 5] {
            let m = ErlangStages::with_threshold(lambda, 1, t).unwrap();
            let fp = solve(&m, &opts()).unwrap();
            let exact = ThresholdWs::new(lambda, t).unwrap().closed_form_mean_time();
            assert!(
                (fp.mean_time_in_system - exact).abs() < 1e-6,
                "c = 1, T = {t}: {} vs {exact}",
                fp.mean_time_in_system
            );
        }
    }

    #[test]
    fn threshold_raises_constant_service_times_too() {
        // Raising T restricts stealing, so W grows (at c = 5, λ = 0.9).
        let lambda = 0.9;
        let w2 = solve(
            &ErlangStages::with_threshold(lambda, 5, 2).unwrap(),
            &opts(),
        )
        .unwrap()
        .mean_time_in_system;
        let w4 = solve(
            &ErlangStages::with_threshold(lambda, 5, 4).unwrap(),
            &opts(),
        )
        .unwrap()
        .mean_time_in_system;
        assert!(w4 > w2, "T=4 {w4} vs T=2 {w2}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(ErlangStages::new(0.5, 0).is_err());
        assert!(ErlangStages::new(1.2, 10).is_err());
        assert!(ErlangStages::with_threshold(0.5, 5, 1).is_err());
    }

    #[test]
    fn stage_count_is_capped_with_an_error() {
        assert_eq!(ErlangStages::new(0.9, 7500).unwrap().truncation(), 60_000);
        let err = ErlangStages::new(0.9, 7501).unwrap_err();
        assert!(err.contains("60000"), "{err}");
        assert!(ErlangStages::new(0.9, usize::MAX).is_err());
    }
}

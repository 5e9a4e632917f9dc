//! On-empty stealing: threshold × choices × batch size.
//!
//! Section 3 closes with the observation that "the extensions can be
//! combined as desired"; this module does exactly that for the three
//! orthogonal knobs of the on-empty stealing policy:
//!
//! * victim threshold `T` (Section 2.3; `T = 2` is Section 2.2's simple
//!   policy),
//! * `d` iid victim candidates, steal from the most loaded (Section 3.3),
//! * `k ≤ T/2` tasks per steal, the victim keeping at least `T − k ≥ k`
//!   (Section 3.4).
//!
//! It is the one ODE behind every `policy=steal` spec with exponential
//! service, Poisson arrivals, instant transfers and unit speeds.
//! Writing `hit(m) = 1 − (1 − s_m)^d` for the probability that the best
//! of `d` candidates holds at least `m` tasks, the limiting system is
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − hit(T))
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1})
//!             + (s_1 − s_2)·hit(T)                         for 2 ≤ i ≤ k
//!             − (s_1 − s_2)·(hit(max(i,T)) − hit(i+k))     for i ≥ T−k+1
//! ```
//!
//! The gain term is the thief jumping from 0 to k tasks; the loss terms
//! are victims dropping k levels. At `d = 1` the system is the printed
//! §3.4 equations, at `k = 1` the printed §3.3 equations (whose
//! `(1 − s_{i+1})^d − (1 − s_i)^d` is `hit(i) − hit(i+1)`, the chance
//! that the best of `d` draws lands exactly on load `i`), and at
//! `d = k = 1` eqs. (4)–(6) of [`super::ThresholdWs`], with
//! [`super::SimpleWs`] at `T = 2`. Those two closed-form models and
//! test-module transcriptions of the printed §3.3 and §3.4 equations
//! are the oracles `deriv` is tested against.
//!
//! `deriv` evaluates `hit` as `s·Σ_{j<d}(1 − s)^j`, not as printed. Deep
//! in the tail `s_m` is small, and `1 − (1 − s_m)^d` cancels: below
//! `s_m ≈ 1e−16` it reads 0, so the steal terms lose their digits where
//! the tail ratio is set (the simple-ws polish at λ = 0.9 then stops at
//! a residual of 4.9e−15 instead of 2.8e−17, and takes longer to get
//! there). The sum loses no digits for small `s_m` and is exact
//! (`hit = s_m`) at `d = 1`.

use loadsteal_ode::OdeSystem;

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, s, MeanFieldModel};

/// Mean-field model of on-empty stealing with all three knobs.
///
/// ```
/// use loadsteal_core::models::GeneralWs;
/// use loadsteal_core::fixed_point::{solve, FixedPointOptions};
/// let combo = GeneralWs::new(0.9, 6, 2, 3).unwrap();
/// let w = solve(&combo, &FixedPointOptions::default()).unwrap().mean_time_in_system;
/// // Stacking d = 2 choices and k = 3 batches recovers most of what the
/// // high threshold T = 6 gave up.
/// assert!(w < 4.7 && w > 3.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralWs {
    lambda: f64,
    threshold: usize,
    choices: u32,
    batch: usize,
    levels: usize,
}

impl GeneralWs {
    /// Create the model for `0 < λ < 1`, threshold `T ≥ 2`, `d ≥ 1`
    /// victim candidates, batch `k` with `1 ≤ k ≤ T/2`.
    pub fn new(lambda: f64, threshold: usize, choices: u32, batch: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if threshold < 2 {
            return Err(format!("threshold must be >= 2, got {threshold}"));
        }
        if choices == 0 {
            return Err("need at least one victim choice".into());
        }
        if batch == 0 || batch * 2 > threshold {
            return Err(format!(
                "batch k must satisfy 1 <= k <= T/2 (got k = {batch}, T = {threshold})"
            ));
        }
        let levels = default_truncation(lambda).max(threshold + batch + 8);
        Ok(Self {
            lambda,
            threshold,
            choices,
            batch,
            levels,
        })
    }

    /// The victim threshold `T`.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The number of victim candidates `d`.
    pub fn choices(&self) -> u32 {
        self.choices
    }

    /// The batch size `k`.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// `hit(m) = 1 − (1 − s_m)^d`, the probability that the best of `d`
    /// candidates holds ≥ m tasks, from `sm = s_m` as
    /// `s_m·Σ_{j<d}(1 − s_m)^j` (see the module docs for why).
    #[inline]
    fn hit(&self, sm: f64) -> f64 {
        let miss = 1.0 - sm;
        let mut sum = 1.0;
        for _ in 1..self.choices {
            sum = 1.0 + miss * sum;
        }
        sm * sum
    }

    /// `ds_i/dt` for `i ≥ 2`, term by term, with every level read
    /// through [`s`]. `thief = s_1 − s_2` is the rate of steal attempts
    /// and `succ = hit(T)` their success probability.
    fn level_rate(&self, y: &[f64], i: usize, thief: f64, succ: f64) -> f64 {
        let (t, k) = (self.threshold, self.batch);
        let flow = self.lambda * (s(y, i - 1) - s(y, i));
        let dep = s(y, i) - s(y, i + 1);
        let mut steal = 0.0;
        if i <= k {
            steal += thief * succ; // thief jumps 0 → k
        }
        if i + k > t {
            // Victims with best-of-d load in [max(i,T), i+k−1] drop
            // below level i.
            steal -= thief * (self.hit(s(y, i.max(t))) - self.hit(s(y, i + k)));
        }
        flow - dep + steal
    }
}

impl OdeSystem for GeneralWs {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let (t, k) = (self.threshold, self.batch);
        let s1 = s(y, 1);
        let thief = s1 - s(y, 2);
        let succ = self.hit(s(y, t));
        dy[0] = lambda * (1.0 - s1) - thief * (1.0 - succ);
        // Interior levels max(T, k+1) ≤ i ≤ L − k gain nothing from
        // thieves, lose the victims with load in [i, i+k−1], and read
        // s_{i−1}, s_i, s_{i+1} and s_{i+k}, all stored: one straight-line
        // loop over shifted slices, the same arithmetic as `level_rate`.
        // The boundary levels on either side go through `level_rate`.
        let first = t.max(k + 1).min(self.levels + 1);
        let end = (self.levels.saturating_sub(k) + 1).max(first);
        for i in (2..first).chain(end..=self.levels) {
            dy[i - 1] = self.level_rate(y, i, thief, succ);
        }
        if first == end {
            return;
        }
        let rows = first - 1..end - 1;
        let below = &y[rows.start - 1..rows.end - 1];
        let at = &y[rows.clone()];
        let next = &y[rows.start + 1..rows.end + 1];
        let far = &y[rows.start + k..rows.end + k];
        let interior = dy[rows].iter_mut().zip(below).zip(at).zip(next).zip(far);
        for ((((d, &lo), &si), &nx), &hi) in interior {
            *d = lambda * (lo - si) - (si - nx) - thief * (self.hit(si) - self.hit(hi));
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for GeneralWs {
    fn name(&self) -> String {
        format!(
            "general WS (λ = {}, T = {}, d = {}, k = {})",
            self.lambda, self.threshold, self.choices, self.batch
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
            levels: levels.max(self.threshold + self.batch + 8),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::{multi_choice, multi_steal, SimpleWs, ThresholdWs};

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    fn w<M: MeanFieldModel>(m: &M) -> f64 {
        solve(m, &opts()).unwrap().mean_time_in_system
    }

    /// Largest `|Δ|` between `GeneralWs::deriv` at `(T, d, k)` and
    /// `oracle`, over 20 random valid states (entries in [0, 1],
    /// non-increasing, every other one with an empty tail) per
    /// truncation and λ ∈ {0.5, 0.9, 0.99}. Truncations run from one
    /// level, through an empty interior (L < max(T, k+1) + k) and its
    /// edges, to 121. `oracle(λ, y, dy)` sees the state padded with
    /// `T + k + 8` empty levels, so that the closed forms' truncation
    /// floors hold: every reference reads `s_i = 0` past its truncation,
    /// so the padding changes none of the first `L` rates.
    fn worst_gap(t: usize, d: u32, k: usize, oracle: impl Fn(f64, &[f64], &mut [f64])) -> f64 {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64 ^ (t as u64) << 32 ^ u64::from(d) << 16 ^ k as u64;
        let mut uniform = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut sizes = vec![
            1,
            2,
            t - 1,
            t,
            t + k - 1,
            t + k,
            t + k + 1,
            2 * t + k + 1,
            37,
            120,
            121,
        ];
        sizes.sort_unstable();
        sizes.dedup();
        let mut worst = 0.0_f64;
        for lambda in [0.5, 0.9, 0.99] {
            for &levels in &sizes {
                let m = GeneralWs {
                    lambda,
                    threshold: t,
                    choices: d,
                    batch: k,
                    levels,
                };
                for state in 0..20 {
                    let mut y: Vec<f64> = (0..levels).map(|_| uniform()).collect();
                    y.sort_by(|a, b| b.total_cmp(a));
                    if state % 2 == 1 {
                        let cut = (uniform() * levels as f64) as usize;
                        y[cut..].fill(0.0);
                    }
                    let mut dy = vec![0.0; levels];
                    m.deriv(0.0, &y, &mut dy);
                    let mut padded = y.clone();
                    padded.resize(levels + t + k + 8, 0.0);
                    let mut want = vec![0.0; padded.len()];
                    oracle(lambda, &padded, &mut want);
                    for (i, (a, b)) in dy.iter().zip(&want).enumerate() {
                        let gap = (a - b).abs();
                        assert!(
                            gap.is_finite(),
                            "T = {t}, d = {d}, k = {k}, L = {levels}, i = {}",
                            i + 1
                        );
                        worst = worst.max(gap);
                    }
                }
            }
        }
        worst
    }

    #[test]
    fn reduces_to_multi_steal() {
        // d = 1: `hit(m) = s_m` exactly, so `deriv` is the printed §3.4
        // arithmetic to the bit.
        for k in 1..=3 {
            for t in 2 * k..=8 {
                let gap = worst_gap(t, 1, k, |lambda, y, dy| {
                    multi_steal::printed_deriv(lambda, k, t, y, dy);
                });
                assert!(gap == 0.0, "§3.4, k = {k}, T = {t}: |Δ| = {gap:e}");
            }
        }
    }

    #[test]
    fn reduces_to_multi_choice() {
        // d ≥ 2: the printed (1 − s_{i+1})^d − (1 − s_i)^d itself
        // cancels in the deep tail, so the bound is absolute.
        for d in 2..=4 {
            for t in 2..=4 {
                let gap = worst_gap(t, d, 1, |lambda, y, dy| {
                    multi_choice::printed_deriv(lambda, d, t, y, dy);
                });
                assert!(gap <= 1e-15, "§3.3, d = {d}, T = {t}: |Δ| = {gap:e}");
            }
        }
    }

    #[test]
    fn deriv_matches_the_closed_form_models() {
        // The closed forms group the same terms differently
        // (`dep·(1 + thief)` for `dep + thief·dep`); these states step by
        // O(1) between levels, so the rates are O(1) and the regrouping
        // can move one by two roundings, 2ε ≈ 4.4e−16.
        let gap = worst_gap(2, 1, 1, |lambda, y, dy| {
            let m = SimpleWs::new(lambda).unwrap().with_truncation(y.len());
            m.deriv(0.0, y, dy);
        });
        assert!(gap <= 2.0 * f64::EPSILON, "simple WS: |Δ| = {gap:e}");
        for t in [2, 3, 4, 7] {
            let gap = worst_gap(t, 1, 1, |lambda, y, dy| {
                let m = ThresholdWs::new(lambda, t)
                    .unwrap()
                    .with_truncation(y.len());
                m.deriv(0.0, y, dy);
            });
            assert!(
                gap <= 2.0 * f64::EPSILON,
                "threshold T = {t}: |Δ| = {gap:e}"
            );
        }
    }

    #[test]
    fn reduces_to_threshold_model() {
        for (lambda, t) in [(0.7, 3), (0.9, 5)] {
            let g = GeneralWs::new(lambda, t, 1, 1).unwrap();
            let exact = ThresholdWs::new(lambda, t).unwrap().closed_form_mean_time();
            assert!(
                (w(&g) - exact).abs() < 1e-6,
                "T = {t}: {} vs {exact}",
                w(&g)
            );
        }
    }

    #[test]
    fn knobs_compose_monotonically() {
        // Adding choices or batch on top of a threshold never hurts in
        // this zero-cost model.
        let lambda = 0.95;
        let base = w(&GeneralWs::new(lambda, 6, 1, 1).unwrap());
        let more_choices = w(&GeneralWs::new(lambda, 6, 2, 1).unwrap());
        let more_batch = w(&GeneralWs::new(lambda, 6, 1, 3).unwrap());
        let both = w(&GeneralWs::new(lambda, 6, 2, 3).unwrap());
        assert!(more_choices < base);
        assert!(more_batch < base);
        assert!(both < more_choices && both < more_batch);
    }

    #[test]
    fn throughput_balance_holds() {
        let g = GeneralWs::new(0.9, 6, 2, 3).unwrap();
        let fp = solve(&g, &opts()).unwrap();
        assert!((fp.task_tails[1] - 0.9).abs() < 1e-8);
    }

    #[test]
    fn conservation_at_arbitrary_state() {
        let g = GeneralWs::new(0.8, 6, 3, 2).unwrap();
        let state = TailVector::geometric(0.7, g.truncation()).into_vec();
        let mut dy = vec![0.0; state.len()];
        g.deriv(0.0, &state, &mut dy);
        let dl: f64 = dy.iter().sum();
        assert!((dl - (0.8 - 0.7)).abs() < 1e-9, "dL/dt = {dl}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(GeneralWs::new(0.5, 1, 1, 1).is_err());
        assert!(GeneralWs::new(0.5, 4, 0, 1).is_err());
        assert!(GeneralWs::new(0.5, 4, 1, 3).is_err());
    }
}

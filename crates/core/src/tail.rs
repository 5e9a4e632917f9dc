//! Tail-vector utilities.
//!
//! The paper's state is the infinite vector `s = (s_0, s_1, s_2, …)` of
//! tail fractions: `s_i` = fraction of processors with at least `i`
//! tasks. Numerically we work with a finite truncation `(s_1, …, s_L)`
//! (`s_0 ≡ 1`, `s_i ≡ 0` for `i > L`), valid because all the paper's
//! fixed points have geometrically decaying tails.

/// A truncated tail vector `(s_1, …, s_L)` with `s_0 ≡ 1` implicit.
#[derive(Debug, Clone, PartialEq)]
pub struct TailVector {
    values: Vec<f64>,
}

impl TailVector {
    /// Wrap a raw `(s_1, …, s_L)` slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Self {
            values: values.to_vec(),
        }
    }

    /// The empty-system tail (`s_i = 0` for all `i ≥ 1`).
    pub fn empty(levels: usize) -> Self {
        Self {
            values: vec![0.0; levels],
        }
    }

    /// Tail of a system where every processor holds exactly `load`
    /// tasks (`s_i = 1` for `i ≤ load`).
    pub fn uniform_load(load: usize, levels: usize) -> Self {
        let mut values = vec![0.0; levels];
        for v in values.iter_mut().take(load.min(levels)) {
            *v = 1.0;
        }
        Self { values }
    }

    /// Geometric tail `s_i = ratio^i` (the M/M/1 stationary tail when
    /// `ratio = λ`).
    pub fn geometric(ratio: f64, levels: usize) -> Self {
        let mut values = Vec::with_capacity(levels);
        let mut v = 1.0;
        for _ in 0..levels {
            v *= ratio;
            values.push(v);
        }
        Self { values }
    }

    /// Number of stored levels `L`.
    pub fn levels(&self) -> usize {
        self.values.len()
    }

    /// `s_i`, with the `s_0 = 1` and `s_{i>L} = 0` conventions.
    pub fn get(&self, i: usize) -> f64 {
        if i == 0 {
            1.0
        } else {
            self.values.get(i - 1).copied().unwrap_or(0.0)
        }
    }

    /// The raw `(s_1, …, s_L)` slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the raw slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consume into the raw vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }

    /// Mean number of tasks per processor: `Σ_{i≥1} s_i`.
    ///
    /// Summed smallest-first for floating-point accuracy.
    pub fn mean_tasks(&self) -> f64 {
        self.values.iter().rev().sum()
    }

    /// Whether the vector is a valid tail: entries in `[0, 1]`,
    /// non-increasing (up to `tol` of slack for floating-point drift).
    pub fn is_valid(&self, tol: f64) -> bool {
        let mut prev = 1.0_f64;
        for &v in &self.values {
            if !(v.is_finite() && (-tol..=1.0 + tol).contains(&v)) || v > prev + tol {
                return false;
            }
            prev = v;
        }
        true
    }

    /// Estimated geometric decay ratio `s_{i+1}/s_i` measured at the
    /// deepest resolved pair of levels: both above `floor`, and in the
    /// half of the levels away from the truncation boundary, whose
    /// reflection bends the last levels of a truncated tail. `None` when
    /// the tail is too short or too small to measure.
    pub fn tail_ratio(&self, floor: f64) -> Option<f64> {
        self.resolved_ratio(floor).map(|(_, ratio)| ratio)
    }

    /// The deepest resolved pair of levels `(i − 1, i)`, as
    /// `(i, s_i/s_{i−1})`; see [`Self::tail_ratio`].
    pub(crate) fn resolved_ratio(&self, floor: f64) -> Option<(usize, f64)> {
        let near = &self.values[..self.values.len() / 2];
        (1..near.len())
            .rev()
            .find(|&k| near[k] > floor && near[k - 1] > floor)
            .map(|k| (k + 1, near[k] / near[k - 1]))
    }

    /// Clamp to `[0, 1]` and restore monotonicity; used as the
    /// projection step after integrator steps near the boundary.
    pub fn project_slice(values: &mut [f64]) {
        let mut prev = 1.0_f64;
        for v in values.iter_mut() {
            *v = v.clamp(0.0, prev);
            prev = *v;
        }
    }
}

/// Truncation level so that a geometric tail with the given `ratio`
/// drops below `eps`: the smallest `L` with `ratio^L < eps`, clamped to
/// `[min, max]`. A tail that does not decay (`ratio ≥ 1` or NaN) gets
/// `max`; one that vanishes at once (`ratio ≤ 0`) gets `min`.
pub fn truncation_for_ratio(ratio: f64, eps: f64, min: usize, max: usize) -> usize {
    if ratio >= 1.0 || ratio.is_nan() {
        return max;
    }
    if ratio <= 0.0 {
        return min;
    }
    let l = (eps.ln() / ratio.ln()).ceil();
    (l as usize).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_tail_matches_formula() {
        let t = TailVector::geometric(0.5, 5);
        assert_eq!(t.get(0), 1.0);
        assert!((t.get(1) - 0.5).abs() < 1e-15);
        assert!((t.get(3) - 0.125).abs() < 1e-15);
        assert_eq!(t.get(6), 0.0);
    }

    #[test]
    fn mean_tasks_of_geometric_tail() {
        // Σ_{i≥1} λ^i = λ/(1−λ); with enough levels the truncation error
        // is negligible.
        let t = TailVector::geometric(0.5, 60);
        assert!((t.mean_tasks() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_load_tail() {
        let t = TailVector::uniform_load(3, 6);
        assert_eq!(t.as_slice(), &[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
        assert_eq!(t.mean_tasks(), 3.0);
    }

    #[test]
    fn validity_checks() {
        assert!(TailVector::from_slice(&[0.9, 0.5, 0.1]).is_valid(1e-12));
        assert!(!TailVector::from_slice(&[0.5, 0.9]).is_valid(1e-12)); // increasing
        assert!(!TailVector::from_slice(&[1.5]).is_valid(1e-12)); // > 1
        assert!(!TailVector::from_slice(&[f64::NAN]).is_valid(1e-12));
    }

    #[test]
    fn tail_ratio_recovers_geometric_rate() {
        let t = TailVector::geometric(0.37, 40);
        let r = t.tail_ratio(1e-12).unwrap();
        assert!((r - 0.37).abs() < 1e-9, "ratio {r}");
    }

    #[test]
    fn tail_ratio_is_measured_away_from_the_boundary() {
        // A truncated geometric tail bends at the boundary: s_i ∝
        // ρ^i − ρ^{L+1}, as for an M/M/1 queue of capacity L.
        let (rho, levels) = (0.9_f64, 300_usize);
        let values: Vec<f64> = (1..=levels as i32)
            .map(|i| rho.powi(i) - rho.powi(levels as i32 + 1))
            .collect();
        // The last pair reads ρ/(1 + ρ), far from ρ.
        let last = values[levels - 1] / values[levels - 2];
        assert!(
            (last - rho / (1.0 + rho)).abs() < 1e-12,
            "last ratio {last}"
        );
        let (level, ratio) = TailVector::from_slice(&values)
            .resolved_ratio(1e-12)
            .unwrap();
        assert_eq!(level, levels / 2);
        assert!((ratio - rho).abs() < 1e-7, "ratio {ratio}");
    }

    #[test]
    fn tail_ratio_none_when_too_small() {
        let t = TailVector::empty(10);
        assert!(t.tail_ratio(1e-12).is_none());
    }

    #[test]
    fn projection_restores_monotonicity() {
        let mut v = [0.9, 0.95, -0.1, 0.2];
        TailVector::project_slice(&mut v);
        assert_eq!(v, [0.9, 0.9, 0.0, 0.0]);
    }

    #[test]
    fn truncation_levels_scale_with_ratio() {
        let small = truncation_for_ratio(0.5, 1e-14, 16, 10_000);
        let big = truncation_for_ratio(0.99, 1e-14, 16, 10_000);
        assert!(small < big);
        assert!(0.5f64.powi(small as i32) < 1e-14);
        assert!(0.99f64.powi(big as i32) < 1e-14);
        assert_eq!(truncation_for_ratio(0.0, 1e-14, 16, 10_000), 16);
        assert_eq!(truncation_for_ratio(1.0, 1e-14, 16, 10_000), 10_000);
        assert_eq!(truncation_for_ratio(f64::NAN, 1e-14, 16, 10_000), 10_000);
        assert_eq!(truncation_for_ratio(0.9, 1e-300, 16, 100), 100); // clamped
    }
}

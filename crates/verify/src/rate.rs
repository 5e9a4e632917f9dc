//! Convergence-rate layer: the `Θ(1/n)` finite-size law.
//!
//! Kurtz's theorem gives sample-path convergence of the empirical tail
//! process to the ODE trajectory at `O(1/√n)`; Ying's refinement puts
//! the *stationary* expectation error at `Θ(1/n)`. This layer measures
//! the law directly: simulate the basic work-stealing system over a
//! geometric grid of sizes, form the stationary tail error
//! `e(n) = max_{i∈2..4} |ŝᵢ(n) − sᵢ|` against the fixed point, and
//! fit the log-log slope ([`loadsteal_core::rate::fit_power_law`]).
//! A genuine `Θ(1/n)` decay fits a steep negative slope; an O(1)
//! systematic bias — a transcribed-wrong equation, a warmup leak, an
//! engine bug that shifts the stationary law — flattens it towards 0.
//!
//! The verdict ([`slope_verdict`]) is factored out of the measurement
//! so the sabotage suite can feed it synthetic bias floors and assert
//! the layer *fails* — a verifier that cannot be made to fail verifies
//! nothing.

use loadsteal_core::rate::{fit_power_law, geometric_grid};
use loadsteal_core::ModelSpec;
use loadsteal_sim::{replicate, ToSimConfig};

use crate::harness::{Check, Outcome, Settings, Tier};

/// Steepest slope the noise floor can plausibly fake on a healthy
/// system (O(1/√n) would be −0.5; the stationary law is a full −1).
const SLOPE_CEILING: f64 = -0.55;
/// Slack below −1: small grids overshoot the asymptotic exponent.
const SLOPE_FLOOR: f64 = -1.8;
/// Minimum fit quality: an O(1) floor not only flattens the slope, it
/// also wrecks the log-log linearity.
const MIN_R_SQUARED: f64 = 0.45;

/// Measured error curve: `(n, e(n))` pairs over the size grid.
pub fn measure(settings: &Settings) -> Result<Vec<(f64, f64)>, String> {
    // 64..512 at the quick tier: large enough that the 1/n signal at
    // the top of the grid still clears the Monte-Carlo floor of a
    // CI-sized horizon; the full tier doubles the ceiling.
    let n_max = match settings.tier {
        Tier::Quick => 512,
        Tier::Full => 1_024,
    };
    error_curve(
        &ModelSpec::simple_ws(0.9),
        &geometric_grid(64, n_max),
        settings.runs,
        settings.horizon,
        settings.warmup,
        settings.seed,
    )
}

/// The stationary error curve of `spec` over `grid`: at each size `n`,
/// `runs` replications seeded from `seed`, each `horizon` simulated
/// seconds with the first `warmup` discarded, and
/// `e(n) = max_{i∈2..4} |ŝᵢ(n) − sᵢ|` against the mean-field fixed
/// point. Returns the `(n, e(n))` pairs in grid order.
///
/// The sup over s₂..s₄ is deep enough to see the tail structure and
/// shallow enough that every grid point estimates it with usable
/// variance at CI horizons. s₁ is left out: the busy fraction equals λ
/// by work conservation at every n, so it carries no finite-size
/// signal.
///
/// # Panics
/// Panics if `runs == 0`, like [`replicate`].
pub fn error_curve(
    spec: &ModelSpec,
    grid: &[usize],
    runs: usize,
    horizon: f64,
    warmup: f64,
    seed: u64,
) -> Result<Vec<(f64, f64)>, String> {
    let fp = spec.fixed_point()?;
    let mut points = Vec::with_capacity(grid.len());
    for &n in grid {
        let mut cfg = spec.sim_config(n).map_err(|e| e.to_string())?;
        cfg.horizon = horizon;
        cfg.warmup = warmup;
        cfg.validate().map_err(|e| e.to_string())?;
        let tails = replicate(&cfg, runs, seed).mean_load_tails();
        let err = (2..=4)
            .map(|i| {
                let sim = tails.get(i).copied().unwrap_or(0.0);
                let fp_i = fp.task_tails.get(i).copied().unwrap_or(0.0);
                (sim - fp_i).abs()
            })
            .fold(0.0f64, f64::max);
        points.push((n as f64, err));
    }
    Ok(points)
}

/// Judge an error curve against the `Θ(1/n)` law. Pure so the
/// sabotage layer can feed it poisoned curves.
pub fn slope_verdict(points: &[(f64, f64)]) -> Outcome {
    let Some(fit) = fit_power_law(points) else {
        return Outcome::Fail(format!(
            "could not fit a slope through {points:?} (degenerate errors)"
        ));
    };
    let (n_lo, e_lo) = points[0];
    let (n_hi, e_hi) = points[points.len() - 1];
    if e_hi >= e_lo {
        return Outcome::Fail(format!(
            "error did not shrink: e({n_lo}) = {e_lo:.3e} vs e({n_hi}) = {e_hi:.3e}"
        ));
    }
    if fit.slope > SLOPE_CEILING {
        return Outcome::Fail(format!(
            "slope {:.3} is shallower than {SLOPE_CEILING} — an O(1) bias floor, \
             not a Θ(1/n) decay (R² {:.3})",
            fit.slope, fit.r_squared
        ));
    }
    if fit.slope < SLOPE_FLOOR {
        return Outcome::Fail(format!(
            "slope {:.3} is implausibly steep (< {SLOPE_FLOOR}); the error curve \
             {points:?} looks degenerate",
            fit.slope
        ));
    }
    if fit.r_squared < MIN_R_SQUARED {
        return Outcome::Fail(format!(
            "slope {:.3} but R² {:.3} < {MIN_R_SQUARED}: the decay is not a \
             power law",
            fit.slope, fit.r_squared
        ));
    }
    Outcome::Pass(format!(
        "slope {:.3} (R² {:.3}) over n ∈ [{n_lo:.0}, {n_hi:.0}]",
        fit.slope, fit.r_squared
    ))
}

fn stationary_rate(settings: &Settings) -> Outcome {
    match measure(settings) {
        Ok(points) => slope_verdict(&points),
        Err(e) => Outcome::Fail(e),
    }
}

/// Build the convergence-rate check family.
pub fn checks(settings: &Settings) -> Vec<Check> {
    let s = settings.clone();
    vec![Check::new(
        "rate",
        "stationary-error-theta-1-over-n",
        move || stationary_rate(&s),
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The layer must catch an injected O(1) bias: this is the
    /// sabotage check for the rate layer. A clean 1/n curve passes;
    /// the same curve with a constant 2×10⁻² floor — the size of a
    /// transcription error in a tail equation — must fail.
    #[test]
    fn injected_o1_bias_fails_the_verdict() {
        let clean: Vec<(f64, f64)> = geometric_grid(64, 1024)
            .into_iter()
            .map(|n| (n as f64, 1.2 / n as f64))
            .collect();
        assert!(
            !slope_verdict(&clean).is_fail(),
            "clean 1/n curve rejected: {:?}",
            slope_verdict(&clean)
        );
        let biased: Vec<(f64, f64)> = clean.iter().map(|&(n, e)| (n, e + 2e-2)).collect();
        let verdict = slope_verdict(&biased);
        assert!(verdict.is_fail(), "O(1) bias floor passed: {verdict:?}");
    }

    #[test]
    fn non_shrinking_error_fails() {
        let flat = [(64.0, 1e-3), (128.0, 1.1e-3), (256.0, 1e-3)];
        assert!(slope_verdict(&flat).is_fail());
    }

    #[test]
    fn sqrt_n_rate_is_rejected_as_too_shallow_only_past_the_ceiling() {
        // A pure O(1/√n) curve sits right at −0.5, shallower than the
        // −0.55 ceiling: the layer insists on the stationary rate, not
        // the sample-path one.
        let sqrt: Vec<(f64, f64)> = geometric_grid(64, 1024)
            .into_iter()
            .map(|n| (n as f64, 0.5 / (n as f64).sqrt()))
            .collect();
        assert!(slope_verdict(&sqrt).is_fail());
    }

    /// End-to-end at test scale: the real measurement on a reduced
    /// protocol must produce a strictly shrinking, fittable curve.
    /// (The slope itself is asserted by the harness at CI scale, where
    /// the horizon buys the statistics; at the tiny protocol only the
    /// gross shape is stable.)
    #[test]
    fn measurement_produces_a_shrinking_curve() {
        let mut s = Settings::tiny(3);
        s.horizon = 2_500.0;
        s.warmup = 300.0;
        s.runs = 3;
        let points = measure(&s).unwrap();
        assert!(points.len() >= 4, "{points:?}");
        let (_, e_first) = points[0];
        let (_, e_last) = points[points.len() - 1];
        assert!(
            e_last < e_first,
            "error failed to shrink across the grid: {points:?}"
        );
    }
}

//! Convergence-rate layer: the `Θ(1/n)` finite-size law.
//!
//! Kurtz's theorem gives sample-path convergence of the empirical tail
//! process to the ODE trajectory at `O(1/√n)`; Ying's refinement puts
//! the *stationary* expectation error at `Θ(1/n)`. This layer measures
//! the law directly: simulate the basic work-stealing system over a
//! geometric grid of sizes, form the signed stationary tail errors
//! `ŝᵢ(n) − sᵢ`, i = 2..4, against the fixed point, and judge them two
//! ways ([`verdict`]):
//!
//! * the log-log slope of `e(n) = maxᵢ |ŝᵢ(n) − sᵢ|`
//!   ([`loadsteal_core::rate::fit_power_law`], [`slope_verdict`]): a
//!   genuine `Θ(1/n)` decay fits a steep negative slope;
//! * the intercept `b` of a weighted fit `ŝᵢ(n) − sᵢ = a/n + b`, with
//!   each point weighted by the replications' spread: an O(1)
//!   systematic bias — a transcribed-wrong equation, a warmup leak, an
//!   engine bug that shifts the stationary law — is a nonzero `b`. On a
//!   small grid a constant bias bends the slope too little to fail it,
//!   so the intercept is what catches one of 10⁻².
//!
//! The grid is small on purpose: the bias falls like `1/n` and the
//! Monte-Carlo noise like `1/√(n·T)`, so for the same simulated work
//! `Σ n·T` small sizes over long horizons resolve the bias that large
//! sizes bury in noise.
//!
//! The verdict is factored out of the measurement so the sabotage
//! suite can feed it synthetic bias floors and assert the layer
//! *fails* — a verifier that cannot be made to fail verifies nothing.

use loadsteal_core::rate::{fit_power_law, geometric_grid};
use loadsteal_core::ModelSpec;
use loadsteal_queueing::OnlineStats;
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
/// Largest |b| / se(b) a healthy system may show at any level. With 4
/// replications at 4 sizes the pooled spread has 12 degrees of
/// freedom, and P(|t₁₂| > 4) = 0.18%, so the three levels together
/// raise a false alarm at most 0.53% of the time (Bonferroni).
const INTERCEPT_Z: f64 = 4.0;
/// The tail levels whose error is measured. s₁ is left out: the busy
/// fraction equals λ by work conservation at every n, so it carries no
/// finite-size signal.
const LEVELS: [usize; 3] = [2, 3, 4];
/// The grid spans `[8, n_max / 8]` at 8× the tier's horizon: the same
/// simulated work `Σ n·T` as `[64, n_max]` at the tier's horizon.
const GRID_SCALE: usize = 8;

/// One grid size's measurement: the signed error of the replications'
/// mean tails against the fixed point, and the spread of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorPoint {
    /// System size.
    pub n: f64,
    /// `ŝᵢ − sᵢ` for i = 2, 3, 4, with `ŝᵢ` the mean over runs.
    pub bias: [f64; 3],
    /// Sample variance of one run's `ŝᵢ`, i = 2, 3, 4.
    pub run_var: [f64; 3],
    /// Replications behind the point.
    pub runs: usize,
}

impl ErrorPoint {
    /// `e(n) = maxᵢ |ŝᵢ − sᵢ|`.
    pub fn sup_error(&self) -> f64 {
        self.bias.iter().fold(0.0f64, |m, b| m.max(b.abs()))
    }
}

/// Measured error curve of simple WS at λ = 0.9 over the tier's grid.
pub fn measure(settings: &Settings) -> Result<Vec<ErrorPoint>, String> {
    let spec = ModelSpec::simple_ws(0.9);
    measure_against(&spec, &spec, settings)
}

/// [`measure`]'s protocol simulating `sim` and judging it against the
/// fixed point of `reference` (the two differ only in sabotage tests).
fn measure_against(
    sim: &ModelSpec,
    reference: &ModelSpec,
    settings: &Settings,
) -> Result<Vec<ErrorPoint>, String> {
    let n_max = match settings.tier {
        Tier::Quick => 512,
        Tier::Full => 1_024,
    };
    let tails = reference.fixed_point()?.task_tails;
    tail_errors(
        sim,
        &tails,
        &geometric_grid(GRID_SCALE, n_max / GRID_SCALE),
        settings.runs,
        settings.horizon * GRID_SCALE as f64,
        settings.warmup,
        settings.seed,
    )
}

/// The stationary error curve of `spec` over `grid`: at each size `n`,
/// `runs` replications seeded from `seed`, each `horizon` simulated
/// seconds with the first `warmup` discarded, and the signed errors
/// `ŝᵢ(n) − sᵢ`, i = 2..4, against the mean-field fixed point. Returns
/// the points in grid order.
///
/// The levels s₂..s₄ are deep enough to see the tail structure and
/// shallow enough that every grid point estimates them with usable
/// variance at CI horizons.
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
) -> Result<Vec<ErrorPoint>, String> {
    let tails = spec.fixed_point()?.task_tails;
    tail_errors(spec, &tails, grid, runs, horizon, warmup, seed)
}

fn tail_errors(
    spec: &ModelSpec,
    fixed_point_tails: &[f64],
    grid: &[usize],
    runs: usize,
    horizon: f64,
    warmup: f64,
    seed: u64,
) -> Result<Vec<ErrorPoint>, String> {
    let mut points = Vec::with_capacity(grid.len());
    for &n in grid {
        let mut cfg = spec.sim_config(n).map_err(|e| e.to_string())?;
        cfg.horizon = horizon;
        cfg.warmup = warmup;
        cfg.validate().map_err(|e| e.to_string())?;
        let result = replicate(&cfg, runs, seed);
        let mut point = ErrorPoint {
            n: n as f64,
            bias: [0.0; 3],
            run_var: [0.0; 3],
            runs,
        };
        for (k, &i) in LEVELS.iter().enumerate() {
            let mut stats = OnlineStats::new();
            for r in &result.runs {
                stats.push(r.load_tails.get(i).copied().unwrap_or(0.0));
            }
            point.bias[k] = stats.mean() - fixed_point_tails.get(i).copied().unwrap_or(0.0);
            point.run_var[k] = if runs > 1 { stats.variance() } else { 0.0 };
        }
        points.push(point);
    }
    Ok(points)
}

/// Judge an error curve's decay exponent against the `Θ(1/n)` law.
/// Pure so the sabotage layer can feed it poisoned curves.
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

/// Weighted least-squares fit of level `k`'s signed error to `a/n + b`,
/// each point weighted by the inverse variance of its mean. The spread
/// of one run falls like `1/n` at a fixed horizon, so `n·run_var` is
/// pooled over the grid. Returns `(b, se(b))`, or `None` when the
/// points cannot separate `a` from `b` or carry no spread.
fn intercept_fit(points: &[ErrorPoint], k: usize) -> Option<(f64, f64)> {
    let df: f64 = points.iter().map(|p| p.runs as f64 - 1.0).sum();
    let pooled = points
        .iter()
        .map(|p| (p.runs as f64 - 1.0) * p.n * p.run_var[k])
        .sum::<f64>()
        / df;
    if !(pooled > 0.0 && pooled.is_finite()) {
        return None;
    }
    let (mut sw, mut swx, mut swxx, mut swy, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for p in points {
        let (w, x, y) = (p.n * p.runs as f64 / pooled, 1.0 / p.n, p.bias[k]);
        sw += w;
        swx += w * x;
        swxx += w * x * x;
        swy += w * y;
        swxy += w * x * y;
    }
    let det = sw * swxx - swx * swx;
    (det > 0.0).then(|| ((swxx * swy - swx * swxy) / det, (swxx / det).sqrt()))
}

/// Judge a measured curve: its sup error must decay at the `Θ(1/n)`
/// slope ([`slope_verdict`]), and no level's signed error may tend to
/// a nonzero intercept. Pure so the sabotage layer can feed it
/// poisoned curves.
pub fn verdict(points: &[ErrorPoint]) -> Outcome {
    let curve: Vec<(f64, f64)> = points.iter().map(|p| (p.n, p.sup_error())).collect();
    let slope = match slope_verdict(&curve) {
        Outcome::Pass(msg) => msg,
        fail => return fail,
    };
    let mut worst = 0.0f64;
    for (k, level) in LEVELS.iter().enumerate() {
        let Some((b, se)) = intercept_fit(points, k) else {
            return Outcome::Fail(format!(
                "s{level}'s error cannot be fitted to a/n + b (no spread, or fewer than two sizes)"
            ));
        };
        let z = b / se;
        if z.abs() > INTERCEPT_Z {
            return Outcome::Fail(format!(
                "s{level}'s error tends to b = {b:.2e} ± {se:.1e} as n → ∞ (|z| = {:.1} > \
                 {INTERCEPT_Z}): an O(1) bias, not a Θ(1/n) decay; {slope}",
                z.abs()
            ));
        }
        worst = worst.max(z.abs());
    }
    Outcome::Pass(format!("{slope}; intercepts within {worst:.2} se of 0"))
}

fn stationary_rate(settings: &Settings) -> Outcome {
    match measure(settings) {
        Ok(points) => verdict(&points),
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

    /// A synthetic curve on the quick grid: each level's error `c/n +
    /// floor`, with the per-run spread that simple WS at λ = 0.9 shows
    /// over 24,000 s (n·variance 4e−4…7e−4, 1/n coefficients
    /// 0.32…0.55).
    fn synthetic(floor: f64) -> Vec<ErrorPoint> {
        geometric_grid(8, 64)
            .into_iter()
            .map(|n| {
                let n = n as f64;
                ErrorPoint {
                    n,
                    bias: [0.32 / n + floor, 0.49 / n + floor, 0.55 / n + floor],
                    run_var: [4e-4 / n, 6e-4 / n, 7e-4 / n],
                    runs: 4,
                }
            })
            .collect()
    }

    /// The layer must catch an injected O(1) bias: this is the
    /// sabotage check for the rate layer. A clean 1/n curve passes;
    /// the same curve with a constant floor of 2×10⁻² — the size of a
    /// transcription error in a tail equation — or of 10⁻², which
    /// bends the slope on this grid too little to fail it, must fail.
    #[test]
    fn injected_o1_bias_fails_the_verdict() {
        let clean = verdict(&synthetic(0.0));
        assert!(!clean.is_fail(), "clean 1/n curve rejected: {clean:?}");
        for floor in [2e-2, 1e-2, -1e-2] {
            let biased = verdict(&synthetic(floor));
            assert!(biased.is_fail(), "O(1) floor {floor} passed: {biased:?}");
        }
        // The 10⁻² floor passes the slope test alone: the intercept is
        // what fails it.
        let curve: Vec<(f64, f64)> = synthetic(1e-2)
            .iter()
            .map(|p| (p.n, p.sup_error()))
            .collect();
        assert!(!slope_verdict(&curve).is_fail());
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
    /// (The verdict itself is asserted by the harness at CI scale,
    /// where the horizon buys the statistics; at the tiny protocol only
    /// the gross shape is stable.)
    #[test]
    fn measurement_produces_a_shrinking_curve() {
        let mut s = Settings::tiny(3);
        s.horizon = 2_500.0;
        s.warmup = 300.0;
        s.runs = 3;
        let points = measure(&s).unwrap();
        assert!(points.len() >= 4, "{points:?}");
        let e_first = points[0].sup_error();
        let e_last = points[points.len() - 1].sup_error();
        assert!(
            e_last < e_first,
            "error failed to shrink across the grid: {points:?}"
        );
    }

    /// A real sabotage: simulating λ = 0.918, a 2% arrival-rate bias,
    /// and judging it against the λ = 0.9 fixed point must fail.
    #[test]
    fn a_two_percent_arrival_rate_bias_fails_the_check() {
        let mut s = Settings::tiny(3);
        s.horizon = 2_500.0;
        s.warmup = 300.0;
        s.runs = 3;
        let points =
            measure_against(&ModelSpec::simple_ws(0.918), &ModelSpec::simple_ws(0.9), &s).unwrap();
        let v = verdict(&points);
        assert!(v.is_fail(), "2% arrival-rate bias passed: {v:?}");
    }
}

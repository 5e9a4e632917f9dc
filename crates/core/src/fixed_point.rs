//! Fixed points of the mean-field families and the numeric pipeline
//! that computes them.
//!
//! A fixed point is a state `π` with `dπ/dt = 0`; the paper's systems
//! flow towards attracting fixed points. The solver follows that flow
//! from a small interior state with pseudo-transient continuation
//! ([`loadsteal_ode::pseudo_transient`]): backward-Euler steps whose
//! pseudo-time step grows as the residual falls, so stiffness does not
//! limit them. Once the residual is below 1e−9, a damped Newton
//! iteration on the algebraic system `F(π) = 0` polishes the state to
//! (near) machine precision. Both factor the Jacobian as a band plus a
//! dense border, so banded systems solve at any truncation; only a
//! Jacobian whose dense part exceeds the `max_dense_dim` of
//! [`FixedPointOptions::newton`] is left to integration.
//!
//! # Sizing the truncation
//!
//! The solver chooses the truncation itself, from the tail law the
//! paper proves: stealing makes queue tails fall geometrically, usually
//! far faster than the `λ^i` a model's constructor sizes for.
//!
//! - **Pilot.** The first pass solves at 32 levels, or at the model's
//!   structural floor (`T + 8`, `4c` stages, …) when that is higher.
//!   Its continuation starts from [`continuation_start`]: the empty
//!   state with a small geometric profile on every level of every
//!   block, where every unknown is nonzero, so the one probe of the
//!   Jacobian sees its whole pattern.
//! - **Size.** Each pass measures the ratio `ρ̂` of its folded task
//!   tails where they are resolved: above the residual's noise floor
//!   and in the half of the levels away from the boundary, whose
//!   reflection bends the last levels of a truncated tail. Extrapolated
//!   from the deepest
//!   such level `i`, the mass beyond level `L` is
//!   `Σ_{j>L} s_j ≈ s_i ρ̂^{L−i} ρ̂/(1 − ρ̂)`. The pass needs the smallest
//!   `L` that puts this below 1e−14, converted to stage levels for the
//!   Erlang-stage models.
//! - **Grow.** When the need exceeds the truncation, the next pass jumps
//!   straight to the need plus 16 levels of margin, so that it fits
//!   even if its better-resolved tail asks for a little more. Where no
//!   ratio resolves, the truncation grows by half instead.
//! - **Warm start.** A grown pass starts from the previous fixed point,
//!   re-embedded at the new truncation by
//!   [`MeanFieldModel::embed_state`], and goes straight to the Newton
//!   polish, so growing costs one polish. The polish aims at least as
//!   deep as the residual of the pass it grew from, floored at the 1e−14
//!   of tail mass the truncation neglects: digits below that are not
//!   part of the answer.
//! - **Probe once.** Only the pilot's continuation probes the Jacobian,
//!   one evaluation of `F` per unknown; its polish refills that
//!   structure. A grown pass's polish starts from that structure
//!   extended to its own truncation through
//!   [`MeanFieldModel::block_layout`]
//!   ([`loadsteal_ode::JacobianStructure::extend`]), so its first
//!   Jacobian is one coloured refill. If that polish fails, the pass
//!   retries with a fresh probe.
//! - **Fall back.** A pass whose Jacobian is too dense integrates from
//!   its start state to steady state with Dormand–Prince 5(4). A pass
//!   whose continuation or polish fails integrates from its start state
//!   too, and polishes after 50 time units (Newton's basin is usually
//!   reached within a few dozen) and, failing that, at steady state.
//! - **Stop.** The solve returns once the need fits (or no ratio
//!   resolves) and the boundary mass is below
//!   [`FixedPointOptions::boundary_tol`]. A solve that ends on its
//!   pilot pass with a residual above the neglected mass first polishes
//!   on below it, which takes one step to the rounding floor.
//!
//! So the contract is on neglected mass, not on the last level: the
//! tail mass a [`FixedPoint`] leaves out is estimated below 1e−14. Its
//! [`FixedPoint::state`] belongs to `model.with_truncation(fp.truncation)`,
//! which can be smaller or larger than the model the solve was given;
//! re-embed it with [`MeanFieldModel::embed_state`] to read it through
//! another truncation.

use loadsteal_obs::span::span;
use loadsteal_obs::{Event, NullRecorder, Recorder};
use loadsteal_ode::norms::max_abs;
use loadsteal_ode::solver::SteadyStateOptions;
use loadsteal_ode::{
    newton_solve_from, pseudo_transient, AdaptiveOptions, DormandPrince45, IntegrationError,
    JacobianStructure, NewtonError, NewtonOptions, StepStats,
};

use crate::models::MeanFieldModel;
use crate::tail::{truncation_for_ratio, TailVector};

/// Truncation of the pilot pass, before any tail has been measured.
const PILOT_LEVELS: usize = 32;
/// Tail mass a sized truncation may leave out.
const NEGLECTED_MASS: f64 = 1e-14;
/// Task levels a grown pass adds past the measured need.
const MARGIN_LEVELS: usize = 16;
/// Time units a pass whose continuation or polish failed integrates
/// before it polishes again: Newton's basin is usually reached within a
/// few dozen, long before the trajectory settles.
const FALLBACK_HORIZON: f64 = 50.0;
/// Value of the continuation's start at the head of each block, before
/// its first level.
const START_SCALE: f64 = 1e-3;
/// Halvings from the head of a block to its last level in the
/// continuation's start (see [`continuation_start`]).
const START_HALVINGS: f64 = 16.0;

/// Options for [`solve`].
#[derive(Debug, Clone, Copy)]
pub struct FixedPointOptions {
    /// Steady-state detection for the integration a pass falls back to
    /// (see the [module docs](self)).
    pub steady: SteadyStateOptions,
    /// Integrator tolerances.
    pub adaptive: AdaptiveOptions,
    /// Newton-polish settings. Their `max_dense_dim` (default 700) is
    /// the largest dense part of the Jacobian the polish may factor: the
    /// border of dense columns (global scalars such as `s₁`, `s₂`, `s_T`)
    /// split off from the band, or the whole Jacobian when it has no band
    /// structure (pairwise rebalancing). The state dimension is not
    /// capped. A model whose dense part exceeds it is left to
    /// integration.
    pub newton: NewtonOptions,
    /// Grow the truncation while the boundary mass exceeds this.
    pub boundary_tol: f64,
    /// Hard cap on the truncation the solver may choose.
    pub max_truncation: usize,
}

impl Default for FixedPointOptions {
    fn default() -> Self {
        Self {
            steady: SteadyStateOptions {
                tol: 1e-10,
                t_max: 1e6,
                min_time: 1.0,
            },
            adaptive: AdaptiveOptions::default(),
            newton: NewtonOptions::default(),
            boundary_tol: 1e-12,
            max_truncation: 60_000,
        }
    }
}

/// A computed fixed point with its derived performance metrics.
#[derive(Debug, Clone)]
pub struct FixedPoint {
    /// The raw model state at the fixed point, laid out for
    /// `model.with_truncation(self.truncation)`. The solver sizes its own
    /// truncation, so this can differ from the model's; read the state
    /// through another truncation with [`MeanFieldModel::embed_state`].
    pub state: Vec<f64>,
    /// `‖F(π)‖∞` at the returned state.
    pub residual: f64,
    /// Whether the Newton polish ran (as opposed to integration only).
    pub polished: bool,
    /// Mean tasks per processor `L` (including in-transit tasks).
    pub mean_tasks: f64,
    /// Mean time in system `W = L/λ`.
    pub mean_time_in_system: f64,
    /// Folded task-count tails `s_0, s_1, …`.
    pub task_tails: Vec<f64>,
    /// Truncation level the solver settled on (see the module docs).
    pub truncation: usize,
}

impl FixedPoint {
    /// Estimated geometric decay ratio of the task tails, measured at
    /// the deepest depth that stays well above the solver's residual
    /// noise floor and clear of the truncation boundary
    /// ([`TailVector::tail_ratio`]).
    pub fn tail_ratio(&self) -> Option<f64> {
        TailVector::from_slice(&self.task_tails[1..]).tail_ratio(resolution_floor(self.residual))
    }
}

/// Tail values at or below this are solver noise for a state with this
/// residual.
fn resolution_floor(residual: f64) -> f64 {
    (residual * 1e4).max(1e-9)
}

/// Why [`solve`] failed.
#[derive(Debug)]
pub enum SolveError {
    /// The fallback integration failed.
    Integration(IntegrationError),
    /// The fallback integration hit `t_max` without reaching the
    /// residual tolerance and Newton could not rescue it.
    NotConverged {
        /// Best residual achieved.
        residual: f64,
    },
    /// Mass kept reaching the truncation boundary up to the cap.
    TruncationExhausted {
        /// The truncation level at which we gave up.
        levels: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Integration(e) => write!(f, "integration failed: {e}"),
            Self::NotConverged { residual } => {
                write!(f, "fixed point not converged (residual {residual})")
            }
            Self::TruncationExhausted { levels } => {
                write!(f, "tail mass still at boundary after {levels} levels")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<IntegrationError> for SolveError {
    fn from(e: IntegrationError) -> Self {
        Self::Integration(e)
    }
}

/// Compute the fixed point of `model`: a pilot pass at a small
/// truncation, then passes at the truncation its measured tail law asks
/// for, each warm-started from the last and Newton-polished when
/// feasible (see the [module docs](self)).
///
/// The truncation of `model` itself is not used, only its structural
/// floor; the returned [`FixedPoint::state`] belongs to
/// `model.with_truncation(fp.truncation)`.
pub fn solve<M: MeanFieldModel>(
    model: &M,
    opts: &FixedPointOptions,
) -> Result<FixedPoint, SolveError> {
    solve_traced(model, opts, &mut NullRecorder)
}

/// [`solve`] with its convergence trace sent to `rec`: a `SolverStep`
/// per attempted step and a `SolverSteady` per accepted one, of the
/// pilot's continuation (in pseudo-time; see
/// [`loadsteal_ode::pseudo_transient`]) and of any fallback
/// integration. The solve ends with one `SolverDone`: the step totals,
/// whether it converged, and the residual of the returned fixed point.
pub fn solve_traced<M: MeanFieldModel>(
    model: &M,
    opts: &FixedPointOptions,
    rec: &mut dyn Recorder,
) -> Result<FixedPoint, SolveError> {
    let mut trace = SolveTrace::new(rec);
    let out = solve_passes(model, opts, &mut trace);
    trace.done(&out);
    out
}

/// The passes of [`solve_traced`].
fn solve_passes<M: MeanFieldModel>(
    model: &M,
    opts: &FixedPointOptions,
    rec: &mut dyn Recorder,
) -> Result<FixedPoint, SolveError> {
    let mut m = model.with_truncation(PILOT_LEVELS.min(opts.max_truncation));
    let mut warm = None;
    // The Jacobian structure of the last probe: grown passes extend it
    // instead of probing again.
    let mut probed = None;
    loop {
        let pilot = warm.is_none();
        let (mut state, mut residual, polished) = {
            let _span = span("core.solve_pass");
            solve_at_truncation(&m, warm.take(), &mut probed, opts, rec)?
        };
        let levels = m.truncation();
        let mut task_tails = m.task_tails(&state);
        // Erlang-stage models carry several levels per task.
        let per_task = levels as f64 / (task_tails.len() - 1) as f64;
        let to_levels = |tasks: usize| (tasks as f64 * per_task).ceil() as usize;
        let need = needed_task_levels(&task_tails, residual, opts.max_truncation);
        if need.is_none_or(|n| to_levels(n) <= levels)
            && m.boundary_mass(&state) <= opts.boundary_tol
        {
            // The pilot's polish stops once the residual is inside the
            // Newton tolerance, which can leave it above the tail mass
            // the truncation neglects. A solve that ends there polishes
            // on below that mass with the structure it probed: one more
            // quadratic step reaches the rounding floor. A grown pass
            // already aims below the pass it grew from.
            if pilot && polished && residual > NEGLECTED_MASS && probed.is_some() {
                let floor = try_newton(&m, &state, residual, NEGLECTED_MASS, opts, &mut probed);
                if let Polish::Converged(y, r) = floor {
                    (state, residual) = (y, r);
                    task_tails = m.task_tails(&state);
                }
            }
            return Ok(FixedPoint {
                residual,
                polished,
                mean_tasks: m.mean_tasks(&state),
                mean_time_in_system: m.mean_time_in_system(&state),
                task_tails,
                truncation: levels,
                state,
            });
        }
        // Jump past the need by the margin, so the next pass fits even
        // if its better-resolved tail asks for a little more. Without a
        // larger need to jump to, grow by half.
        let next = need
            .map(|n| to_levels(n.saturating_add(MARGIN_LEVELS)))
            .filter(|&l| l > levels)
            .unwrap_or((levels * 3 / 2).max(levels + 16))
            .min(opts.max_truncation);
        if next <= levels {
            return Err(SolveError::TruncationExhausted { levels });
        }
        let grown = m.with_truncation(next);
        // The grown polish aims as deep as this pass reached, but no
        // deeper than the mass the truncation neglects.
        warm = Some((grown.embed_state(&state), residual.max(NEGLECTED_MASS)));
        m = grown;
    }
}

/// The solve's recorder: forwards every event but an integration's own
/// `SolverDone`, and tallies the steps it forwards, so that the solve
/// ends with one `SolverDone` of its own ([`Self::done`]).
struct SolveTrace<'a> {
    rec: &'a mut dyn Recorder,
    steps: StepStats,
    streak: u64,
}

impl<'a> SolveTrace<'a> {
    fn new(rec: &'a mut dyn Recorder) -> Self {
        Self {
            rec,
            steps: StepStats::default(),
            streak: 0,
        }
    }

    /// Record the solve's `SolverDone`: its step totals, and the
    /// residual of the fixed point it returns.
    fn done(&mut self, out: &Result<FixedPoint, SolveError>) {
        if !self.rec.enabled() {
            return;
        }
        let (converged, residual) = match out {
            Ok(fp) => (true, fp.residual),
            Err(SolveError::NotConverged { residual }) => (false, *residual),
            Err(_) => (false, f64::NAN),
        };
        let s = self.steps;
        self.rec.record(&Event::SolverDone {
            accepted: s.accepted,
            rejected: s.rejected,
            min_h: s.min_h,
            max_h: s.max_h,
            max_reject_streak: s.max_reject_streak,
            converged,
            residual,
        });
    }
}

impl Recorder for SolveTrace<'_> {
    fn enabled(&self) -> bool {
        self.rec.enabled()
    }

    fn record(&mut self, ev: &Event) {
        match *ev {
            Event::SolverStep { accepted, h, .. } => {
                let s = &mut self.steps;
                if accepted {
                    s.accepted += 1;
                    s.min_h = if s.min_h == 0.0 { h } else { s.min_h.min(h) };
                    s.max_h = s.max_h.max(h);
                    self.streak = 0;
                } else {
                    s.rejected += 1;
                    self.streak += 1;
                    s.max_reject_streak = s.max_reject_streak.max(self.streak);
                }
            }
            Event::SolverDone { .. } => return,
            _ => {}
        }
        self.rec.record(ev);
    }

    fn flush(&mut self) {
        self.rec.flush();
    }
}

/// The task levels that the folded task tails of one pass need: the
/// fewest whose neglected mass, extrapolated geometrically from the
/// deepest resolved level, is below [`NEGLECTED_MASS`]. `None` when no
/// tail ratio resolves.
fn needed_task_levels(tails: &[f64], residual: f64, max: usize) -> Option<usize> {
    let (i, ratio) =
        TailVector::from_slice(&tails[1..]).resolved_ratio(resolution_floor(residual))?;
    // Σ_{j>L} s_j ≈ s_i ρ^{L−i} ρ/(1 − ρ) < ε  ⇔  ρ^{L−i} < ε(1 − ρ)/(ρ s_i).
    let eps = NEGLECTED_MASS * (1.0 - ratio) / (ratio * tails[i]);
    Some(i.saturating_add(truncation_for_ratio(ratio, eps, 0, max)))
}

/// Where the pilot's continuation starts: [`MeanFieldModel::empty_state`]
/// plus a geometric profile on every level of every block of
/// [`MeanFieldModel::block_layout`]. With `L ≥ 16` levels per block,
/// level `l` (from 0) is at `1e−3·r^(l+1)` with `r = 2^(−16/L)`, so the
/// last level is at `1e−3·2^−16` whatever the truncation.
///
/// One probe of the Jacobian there must see every entry the solve will
/// need, so every unknown is nonzero, and no level is so small that a
/// dependency through it drowns in rounding: at the empty state,
/// products with empty tails hide entries from the probe. An
/// Erlang-stage row near the head carries O(1) arrival terms and
/// depends on `s₁` through a level two tasks deep. With `r = ½` at
/// every truncation that level sat near `2^−(2c+1)`, and from `c = 26`
/// stages on the probe missed most of `s₁`'s column: the continuation
/// crawled (c = 26) or gave up (c ≥ 30). Every unknown is also a normal
/// float, at any truncation. The start is not projected: a model's
/// projection may clamp levels to what the empty head allows.
pub fn continuation_start<M: MeanFieldModel>(m: &M) -> Vec<f64> {
    let mut y = m.empty_state();
    let blocks = m.block_layout();
    let levels = blocks.levels(y.len());
    let ratio = 0.5f64.powf((START_HALVINGS / levels as f64).min(1.0));
    for block in y[blocks.head..].chunks_exact_mut(levels) {
        let mut v = START_SCALE;
        for level in block {
            v *= ratio;
            *level += v;
        }
    }
    y
}

/// One pass at the model's current truncation; returns the state, its
/// residual and whether it was polished. The pilot (`warm` is `None`)
/// runs the continuation from [`continuation_start`] and polishes where
/// it hands off. A grown pass starts from `warm`, a state and the depth
/// its polish aims for, and polishes there.
///
/// `probed` holds the Jacobian structure of the solve's last probe. A
/// grown pass's polish starts from that structure extended to this
/// truncation. If that polish fails, it retries with a fresh probe, so
/// a missed Jacobian entry costs time, never the polish. Every
/// continuation or polish that probes and converges leaves its
/// structure in `probed`.
///
/// A pass whose probe finds the Jacobian too dense integrates from its
/// start state to steady state, unpolished. A pass whose continuation
/// or polish fails integrates from its start state too, and tries a
/// polish after 50 time units and, if it is still short, at steady
/// state.
fn solve_at_truncation<M: MeanFieldModel>(
    m: &M,
    warm: Option<(Vec<f64>, f64)>,
    probed: &mut Option<JacobianStructure>,
    opts: &FixedPointOptions,
    rec: &mut dyn Recorder,
) -> Result<(Vec<f64>, f64, bool), SolveError> {
    let (start, outcome) = match warm {
        Some((y, depth)) => {
            let residual = residual_at(m, &y);
            let mut outcome = Polish::Failed;
            if let Some(base) = probed.as_ref() {
                let blocks = m.block_layout();
                let mut extended = Some(base.extend(blocks, blocks.levels(m.dim())));
                outcome = try_newton(m, &y, residual, depth, opts, &mut extended);
            }
            if let Polish::Failed = outcome {
                outcome = probe_newton(m, &y, residual, depth, opts, probed);
            }
            (y, outcome)
        }
        None => {
            let start = continuation_start(m);
            let outcome = continue_and_polish(m, &start, opts, probed, rec);
            (start, outcome)
        }
    };
    let retry = match outcome {
        Polish::Converged(state, r) => return Ok((state, r, true)),
        Polish::TooDense => false,
        Polish::Failed => true,
    };
    // After a failure the pass polishes once it has integrated the
    // first horizon, and once more at steady state; a pass too dense to
    // polish integrates to steady state only.
    let horizons: &[f64] = if retry {
        &[FALLBACK_HORIZON, f64::INFINITY]
    } else {
        &[f64::INFINITY]
    };
    let mut dp = DormandPrince45::new(opts.adaptive);
    let (mut y, mut t, mut residual) = (start, 0.0, f64::INFINITY);
    for &horizon in horizons {
        let steady = SteadyStateOptions {
            t_max: horizon.min(opts.steady.t_max) - t,
            ..opts.steady
        };
        let report = dp.integrate_to_steady_traced(m, t, &mut y, &steady, rec)?;
        (t, residual) = (report.t, report.residual);
        if retry {
            if let Polish::Converged(state, r) =
                probe_newton(m, &y, residual, f64::INFINITY, opts, probed)
            {
                return Ok((state, r, true));
            }
        }
        if report.converged || t >= opts.steady.t_max {
            break;
        }
    }
    if residual <= opts.steady.tol.max(1e-8) {
        Ok((y, residual, false))
    } else {
        Err(SolveError::NotConverged { residual })
    }
}

/// The pilot's way to its fixed point: pseudo-transient continuation
/// from `start`, then the Newton polish from where it hands off, both
/// on the one structure the continuation probes. That structure goes to
/// `probed` when the polish converges.
fn continue_and_polish<M: MeanFieldModel>(
    m: &M,
    start: &[f64],
    opts: &FixedPointOptions,
    probed: &mut Option<JacobianStructure>,
    rec: &mut dyn Recorder,
) -> Polish {
    let mut y = start.to_vec();
    let mut structure = None;
    let f = |x: &[f64], out: &mut [f64]| m.deriv(0.0, x, out);
    match pseudo_transient(f, &mut y, &opts.newton, &mut structure, rec) {
        Ok(report) => {
            let outcome = try_newton(m, &y, report.residual, f64::INFINITY, opts, &mut structure);
            if let Polish::Converged(..) = outcome {
                *probed = structure;
            }
            outcome
        }
        Err(NewtonError::TooDense { .. }) => Polish::TooDense,
        Err(_) => Polish::Failed,
    }
}

/// [`try_newton`] from a fresh probe, whose structure replaces `probed`
/// when the polish converges (having needed a Jacobian).
fn probe_newton<M: MeanFieldModel>(
    m: &M,
    y: &[f64],
    residual: f64,
    depth: f64,
    opts: &FixedPointOptions,
    probed: &mut Option<JacobianStructure>,
) -> Polish {
    let mut fresh = None;
    let outcome = try_newton(m, y, residual, depth, opts, &mut fresh);
    if matches!(outcome, Polish::Converged(..)) && fresh.is_some() {
        *probed = fresh;
    }
    outcome
}

/// `‖F(y)‖∞`.
fn residual_at<M: MeanFieldModel>(m: &M, y: &[f64]) -> f64 {
    let mut f = vec![0.0; y.len()];
    m.deriv(0.0, y, &mut f);
    max_abs(&f)
}

/// Outcome of one Newton polish attempt.
enum Polish {
    /// Converged to the given state and residual.
    Converged(Vec<f64>, f64),
    /// The Jacobian's dense part exceeds `max_dense_dim`.
    TooDense,
    /// Did not converge from this starting point.
    Failed,
}

/// Attempt a Newton polish from `y`, whose residual is `residual`; it
/// succeeds when the iteration converges to a better residual. Its
/// Jacobians share `structure`: given, or probed into it
/// ([`newton_solve_from`]).
///
/// The polish aims below both the Newton tolerance and `depth`. A warm
/// start passes the residual of the pass it grew from: the warm state
/// can already be inside the tolerance, and stopping there would leave
/// it shallower than the polish it came from. A polish that stalls
/// short of `depth` but inside the tolerance has reached this
/// truncation's rounding floor and counts as converged.
fn try_newton<M: MeanFieldModel>(
    m: &M,
    y: &[f64],
    residual: f64,
    depth: f64,
    opts: &FixedPointOptions,
    structure: &mut Option<JacobianStructure>,
) -> Polish {
    let mut trial = y.to_vec();
    // Attempts are speculative: bound the cost of a failed attempt.
    let newton_opts = loadsteal_ode::NewtonOptions {
        tol: opts.newton.tol.min(depth),
        max_iters: opts.newton.max_iters.min(25),
        ..opts.newton
    };
    let f = |x: &[f64], out: &mut [f64]| m.deriv(0.0, x, out);
    let converged = match newton_solve_from(f, &mut trial, &newton_opts, structure) {
        Ok(_) => true,
        Err(NewtonError::TooDense { .. }) => return Polish::TooDense,
        // Newton keeps only steps that lower the residual, so `trial`
        // holds the best iterate.
        Err(NewtonError::Stalled { residual: r } | NewtonError::MaxIterations { residual: r }) => {
            r < opts.newton.tol
        }
        Err(NewtonError::SingularJacobian { .. } | NewtonError::NonFinite) => false,
    };
    if !converged {
        return Polish::Failed;
    }
    m.project(&mut trial);
    // Projection can nudge the residual; re-evaluate honestly.
    let r = residual_at(m, &trial);
    // Accept only genuine convergence (not a stalled local improvement
    // far from the fixed point).
    if r < opts.newton.tol * 100.0 && r <= residual {
        Polish::Converged(trial, r)
    } else {
        Polish::Failed
    }
}

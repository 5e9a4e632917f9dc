//! Fixed points of the mean-field families and the numeric pipeline
//! that computes them.
//!
//! A fixed point is a state `π` with `dπ/dt = 0`; the paper's systems
//! flow towards attracting fixed points, so the robust way to find one
//! is to integrate from the empty state until the derivative vanishes,
//! then polish the result with a damped Newton iteration on the
//! algebraic system `F(π) = 0` to (near) machine precision. The polish
//! factors the Jacobian as a band plus a dense border, so banded systems
//! polish at any truncation; only a Jacobian whose dense part exceeds
//! [`FixedPointOptions::newton_max_dim`] is left to integration. The
//! truncation is grown and the solve repeated whenever mass reaches the
//! boundary.

use loadsteal_obs::{NullRecorder, Recorder};
use loadsteal_ode::solver::SteadyStateOptions;
use loadsteal_ode::{
    newton_solve, AdaptiveOptions, DormandPrince45, IntegrationError, NewtonError, NewtonOptions,
};

use crate::models::MeanFieldModel;

/// Options for [`solve`].
#[derive(Debug, Clone, Copy)]
pub struct FixedPointOptions {
    /// Steady-state detection for the integration phase.
    pub steady: SteadyStateOptions,
    /// Integrator tolerances.
    pub adaptive: AdaptiveOptions,
    /// Newton-polish settings. Their `max_dense_dim` is replaced by
    /// [`Self::newton_max_dim`].
    pub newton: NewtonOptions,
    /// Largest dense part of the Jacobian the Newton polish may factor:
    /// the border of dense columns (global scalars such as `s₁`, `s₂`,
    /// `s_T`) split off from the band, or the whole Jacobian when it has
    /// no band structure (pairwise rebalancing). The state dimension is
    /// not capped. 0 disables the polish.
    pub newton_max_dim: usize,
    /// Grow the truncation when the boundary mass exceeds this.
    pub boundary_tol: f64,
    /// Hard cap on truncation growth.
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
            newton_max_dim: 700,
            boundary_tol: 1e-12,
            max_truncation: 60_000,
        }
    }
}

/// A computed fixed point with its derived performance metrics.
#[derive(Debug, Clone)]
pub struct FixedPoint {
    /// The raw model state at the fixed point.
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
    /// Truncation level used.
    pub truncation: usize,
}

impl FixedPoint {
    /// Estimated geometric decay ratio of the task tails, measured at
    /// the deepest depth that stays well above the solver's residual
    /// noise floor.
    pub fn tail_ratio(&self) -> Option<f64> {
        let floor = (self.residual * 1e4).max(1e-9);
        crate::tail::TailVector::from_slice(&self.task_tails[1..]).tail_ratio(floor)
    }
}

/// Why [`solve`] failed.
#[derive(Debug)]
pub enum SolveError {
    /// The integration phase failed.
    Integration(IntegrationError),
    /// Integration hit `t_max` without reaching the residual tolerance
    /// and Newton could not rescue it.
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

/// Compute the fixed point of `model` (integrate from empty, grow the
/// truncation as needed, Newton-polish when feasible).
pub fn solve<M: MeanFieldModel>(
    model: &M,
    opts: &FixedPointOptions,
) -> Result<FixedPoint, SolveError> {
    solve_traced(model, opts, &mut NullRecorder)
}

/// [`solve`] with the integrator's convergence trace (per-step
/// residuals, accept/reject decisions, end-of-run summaries) sent to
/// `rec`. One `SolverDone` event is emitted per integration chunk.
pub fn solve_traced<M: MeanFieldModel>(
    model: &M,
    opts: &FixedPointOptions,
    rec: &mut dyn Recorder,
) -> Result<FixedPoint, SolveError> {
    let mut m = model.clone();
    loop {
        let (state, residual, polished) = solve_at_truncation(&m, opts, rec)?;
        let boundary = m.boundary_mass(&state);
        if boundary > opts.boundary_tol {
            let next = (m.truncation() * 3 / 2).max(m.truncation() + 16);
            if next > opts.max_truncation {
                return Err(SolveError::TruncationExhausted {
                    levels: m.truncation(),
                });
            }
            m = m.with_truncation(next);
            continue;
        }
        let task_tails = m.task_tails(&state);
        let mean_tasks = m.mean_tasks(&state);
        return Ok(FixedPoint {
            residual,
            polished,
            mean_tasks,
            mean_time_in_system: m.mean_time_in_system(&state),
            task_tails,
            truncation: m.truncation(),
            state,
        });
    }
}

/// One pass at the model's current truncation: integrate in growing
/// time chunks, attempting a Newton polish after each chunk.
///
/// Some systems (notably load-proportional rebalancing) relax towards
/// their fixed point very slowly under pure integration; Newton's basin
/// of attraction is reached long before the trajectory itself settles,
/// so interleaving attempts turns minutes into milliseconds without
/// giving up the integration fallback.
fn solve_at_truncation<M: MeanFieldModel>(
    m: &M,
    opts: &FixedPointOptions,
    rec: &mut dyn Recorder,
) -> Result<(Vec<f64>, f64, bool), SolveError> {
    let mut y = m.empty_state();
    let mut dp = DormandPrince45::new(opts.adaptive);
    let mut t = 0.0;
    // Short first chunk: Newton's basin is usually reached within a few
    // dozen time units, far before the trajectory itself settles.
    let mut chunk = 50.0_f64.min(opts.steady.t_max);
    let mut residual;
    let mut polish = opts.newton_max_dim > 0;
    loop {
        let stage = loadsteal_ode::solver::SteadyStateOptions {
            t_max: (t + chunk).min(opts.steady.t_max) - t,
            ..opts.steady
        };
        let report = dp.integrate_to_steady_traced(m, t, &mut y, &stage, rec)?;
        t = report.t;
        residual = report.residual;

        if polish {
            match try_newton(m, &y, residual, opts) {
                Polish::Converged(state, r) => return Ok((state, r, true)),
                // The dense part is a property of the model, not of the
                // starting point: later chunks would not change it.
                Polish::TooDense => polish = false,
                Polish::Failed => {}
            }
        }
        if report.converged {
            return Ok((y, residual, false));
        }
        if t >= opts.steady.t_max {
            if residual <= opts.steady.tol.max(1e-8) {
                return Ok((y, residual, false));
            }
            return Err(SolveError::NotConverged { residual });
        }
        chunk *= 4.0;
    }
}

/// Outcome of one Newton polish attempt.
enum Polish {
    /// Converged to the given state and residual.
    Converged(Vec<f64>, f64),
    /// The Jacobian's dense part exceeds `newton_max_dim`.
    TooDense,
    /// Did not converge from this starting point.
    Failed,
}

/// Attempt a Newton polish from `y`; it succeeds when the iteration
/// converges to a better residual than `residual`.
fn try_newton<M: MeanFieldModel>(
    m: &M,
    y: &[f64],
    residual: f64,
    opts: &FixedPointOptions,
) -> Polish {
    let mut trial = y.to_vec();
    // Interleaved attempts are speculative: bound the cost of a failed
    // attempt.
    let newton_opts = loadsteal_ode::NewtonOptions {
        max_iters: opts.newton.max_iters.min(25),
        max_dense_dim: opts.newton_max_dim,
        ..opts.newton
    };
    match newton_solve(|x, out| m.deriv(0.0, x, out), &mut trial, &newton_opts) {
        Ok(_) => {
            m.project(&mut trial);
            // Projection can nudge the residual; re-evaluate honestly.
            let mut f = vec![0.0; trial.len()];
            m.deriv(0.0, &trial, &mut f);
            let r = f.iter().fold(0.0_f64, |a, &v| a.max(v.abs()));
            // Accept only genuine convergence (not a stalled local
            // improvement far from the fixed point).
            if r < opts.newton.tol * 100.0 && r <= residual {
                return Polish::Converged(trial, r);
            }
            Polish::Failed
        }
        Err(NewtonError::TooDense { .. }) => Polish::TooDense,
        Err(
            NewtonError::SingularJacobian { .. }
            | NewtonError::Stalled { .. }
            | NewtonError::MaxIterations { .. }
            | NewtonError::NonFinite,
        ) => Polish::Failed,
    }
}

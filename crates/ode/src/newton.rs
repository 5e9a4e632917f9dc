//! Pseudo-transient continuation and damped Newton iteration with a
//! structured finite-difference Jacobian.
//!
//! Fixed points of a truncated mean-field family are roots of the
//! algebraic system `F(π) = 0`, where `F` is the right-hand side of the
//! ODEs. Newton's method converges to one only from close by. Far from
//! it, [`pseudo_transient`] follows the flow `dx/dt = F(x)` with
//! backward-Euler steps whose pseudo-time step grows as the residual
//! falls (Kelley and Keyes, SIAM J. Numer. Anal. 35(2), 1998). Each
//! step solves `(J − I/δ)Δ = −F`, so stiffness does not limit δ, and
//! as δ grows the steps become Newton steps. Once the residual is
//! below `1e-9` the Newton polish ([`newton_solve_from`]) takes the
//! estimate to close to machine precision, which matters when the
//! performance metric is a long geometric sum of the tail.
//!
//! The Jacobian of such a system is bordered-banded: each level couples
//! to a few neighbours, plus a few global scalars couple to everything.
//! Every Jacobian of a solve shares one [`JacobianStructure`]: a
//! pattern ([`crate::jacobian`]), its layout as a band plus a dense
//! border ([`crate::bordered`]) and a column colouring. The first
//! Jacobian either probes the structure column by column
//! ([`newton_solve`]) or refills a given one ([`newton_solve_from`],
//! [`pseudo_transient`]). Every later Jacobian refills it with one
//! evaluation per colour. A probe sees only the entries that move at
//! its point, so the continuation starts where every unknown is
//! nonzero: one probe there holds the pattern the polish needs.
//!
//! The border's columns are widened to every row right after the probe.
//! A warm start from a shorter truncation has empty new levels, where
//! the global scalars' columns vanish; a pattern without those entries
//! refills a Jacobian that lacks them wherever the levels fill in, and
//! the polish converges only linearly. The factor stores the border
//! densely and each border column has a colour of its own, so the
//! widened entries cost no extra evaluation.
//!
//! A structure probed at a small truncation extends to a larger one
//! ([`JacobianStructure::extend`]), so a solve that grows its truncation
//! probes once, at its first and smallest one. The extension costs
//! O(nnz) and no evaluation of `F`.

use loadsteal_obs::span::span;
use loadsteal_obs::{Event, Recorder};

use crate::bordered::BorderedBanded;
use crate::jacobian::{BlockLayout, Colouring, SparseJacobian};
use crate::norms::max_abs;

/// Pseudo-time step of the continuation's first step.
const PTC_FIRST_STEP: f64 = 1.0;
/// Residual `‖F‖∞` at which the continuation hands off to Newton.
const PTC_HANDOFF: f64 = 1e-9;
/// Bounds on the factor by which an accepted step scales δ.
const PTC_GROWTH: (f64, f64) = (0.5, 10.0);
/// Steps, accepted or rejected, before the continuation gives up.
const PTC_MAX_STEPS: usize = 60;
/// Halvings of δ in a row after which the continuation gives up: δ is
/// then 2⁻²⁰ ≈ 1e−6 of the step that last lowered `‖F‖∞`, and smaller
/// steps only follow the flow more closely where it does not descend.
const PTC_MAX_HALVINGS: u32 = 20;

/// What every Jacobian of one solve shares: its pattern (holding the
/// latest values), its layout as band plus border, and its colouring,
/// one colour per border column.
#[derive(Debug, Clone)]
pub struct JacobianStructure {
    jac: SparseJacobian,
    layout: BorderedBanded,
    colouring: Colouring,
}

impl JacobianStructure {
    /// Probe the structure at `x` (with `fx = F(x)`): the Jacobian column
    /// by column, laid out as band plus border, the border's columns
    /// widened to every row (see the [module docs](self)), and coloured
    /// with one colour per border column. `n` evaluations of `F`.
    ///
    /// # Errors
    /// [`NewtonError::TooDense`] when the layout's dense part exceeds
    /// `opts.max_dense_dim`.
    fn probe(
        f: impl FnMut(&[f64], &mut [f64]),
        x: &[f64],
        fx: &[f64],
        opts: &NewtonOptions,
    ) -> Result<Self, NewtonError> {
        let _span = span("ode.probe");
        let mut jac = SparseJacobian::probe(f, x, fx, opts.fd_eps);
        let layout = BorderedBanded::analyse(&jac);
        check_dense(&layout, opts)?;
        jac.widen_columns(layout.border());
        let colouring = jac.colour(layout.border());
        Ok(Self {
            jac,
            layout,
            colouring,
        })
    }

    /// This structure, of a state laid out as `blocks`, extended to
    /// `levels` per block with no evaluation of `F`:
    /// - the head scalars join the border, and the border keeps its
    ///   (block, level) coordinates, its columns widened to every row;
    /// - the pattern's other entries repeat as a stencil at every level
    ///   ([`crate::jacobian`]);
    /// - the core is laid out level by level, blocks interleaved, the
    ///   deepest level first (as reverse Cuthill–McKee numbers a chain),
    ///   so the band comes from the pattern with no graph search.
    ///
    /// An all-dense structure stays all-dense. The values are zero until
    /// the first refill.
    ///
    /// # Panics
    /// Panics if `levels` is fewer than this structure's levels per
    /// block.
    pub fn extend(&self, blocks: BlockLayout, levels: usize) -> Self {
        let _span = span("ode.extend");
        let from = blocks.levels(self.jac.order());
        let n = blocks.dim(levels);
        let (fixed, border): (Vec<usize>, Vec<usize>) = if self.layout.is_dense() {
            ((0..self.jac.order()).collect(), (0..n).collect())
        } else {
            let levels_in_border = self.layout.border().iter().filter(|&&v| v >= blocks.head);
            let fixed: Vec<usize> = (0..blocks.head).chain(levels_in_border.copied()).collect();
            let border = fixed
                .iter()
                .map(|&v| blocks.moved(v, from, levels))
                .collect();
            (fixed, border)
        };
        let jac = self.jac.extend(blocks, &fixed, &border, levels);
        let mut in_border = vec![false; n];
        for &v in &border {
            in_border[v] = true;
        }
        let core: Vec<usize> = (0..levels)
            .rev()
            .flat_map(|l| {
                (0..blocks.blocks)
                    .rev()
                    .map(move |b| blocks.index(b, l, levels))
            })
            .filter(|&v| !in_border[v])
            .collect();
        let layout = BorderedBanded::from_order(&jac, border, core);
        let colouring = jac.colour(layout.border());
        Self {
            jac,
            layout,
            colouring,
        }
    }

    /// Recompute every entry at `x` (with `fx = F(x)`): one evaluation of
    /// `F` per colour.
    fn refill(&mut self, f: impl FnMut(&[f64], &mut [f64]), x: &[f64], fx: &[f64], fd_eps: f64) {
        self.jac.refill(f, x, fx, fd_eps, &self.colouring);
    }

    /// The Jacobian: the pattern with its latest values.
    pub fn jacobian(&self) -> &SparseJacobian {
        &self.jac
    }

    /// The column colouring every refill perturbs by.
    pub fn colouring(&self) -> &Colouring {
        &self.colouring
    }
}

/// Options for [`newton_solve`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Stop when `‖F(x)‖∞` falls below this.
    pub tol: f64,
    /// Maximum number of Newton iterations.
    pub max_iters: usize,
    /// Relative perturbation for the finite-difference Jacobian.
    pub fd_eps: f64,
    /// Smallest admissible damping factor in the backtracking line
    /// search before the iteration is declared stalled.
    pub min_damping: f64,
    /// Largest dense part the factorization may take on: the border of
    /// dense rows and columns, or the whole Jacobian when the probed
    /// pattern has no band structure. A larger one is
    /// [`NewtonError::TooDense`]; the band itself is not capped.
    pub max_dense_dim: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            tol: 1e-13,
            max_iters: 50,
            fd_eps: 1e-7,
            min_damping: 1.0 / 1024.0,
            max_dense_dim: 700,
        }
    }
}

/// Convergence report from [`newton_solve`].
#[derive(Debug, Clone, Copy)]
pub struct NewtonReport {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual `‖F(x)‖∞`.
    pub residual: f64,
}

/// Convergence report from [`pseudo_transient`].
#[derive(Debug, Clone, Copy)]
pub struct ContinuationReport {
    /// Accepted pseudo-time steps.
    pub accepted: usize,
    /// Rejected pseudo-time steps.
    pub rejected: usize,
    /// Final residual `‖F(x)‖∞`, below the hand-off residual `1e-9`.
    pub residual: f64,
}

/// Failure modes of [`newton_solve`] and [`pseudo_transient`].
#[derive(Debug, Clone, PartialEq)]
pub enum NewtonError {
    /// The finite-difference Jacobian was singular.
    SingularJacobian {
        /// Iteration at which factorization failed.
        iteration: usize,
    },
    /// The probed Jacobian's dense part exceeds
    /// [`NewtonOptions::max_dense_dim`].
    TooDense {
        /// Order of the dense part the factorization would need.
        dense: usize,
        /// The configured cap.
        limit: usize,
    },
    /// Backtracking could not reduce the residual.
    Stalled {
        /// Residual at the stall point.
        residual: f64,
    },
    /// Iteration (or continuation step) budget exhausted.
    MaxIterations {
        /// Residual when the budget ran out.
        residual: f64,
    },
    /// `F` produced a non-finite value.
    NonFinite,
}

impl std::fmt::Display for NewtonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SingularJacobian { iteration } => {
                write!(f, "singular Jacobian at Newton iteration {iteration}")
            }
            Self::TooDense { dense, limit } => {
                write!(
                    f,
                    "Jacobian has a dense part of order {dense} (cap {limit})"
                )
            }
            Self::Stalled { residual } => {
                write!(f, "Newton line search stalled at residual {residual}")
            }
            Self::MaxIterations { residual } => {
                write!(f, "Newton ran out of iterations at residual {residual}")
            }
            Self::NonFinite => write!(f, "residual function returned non-finite values"),
        }
    }
}

impl std::error::Error for NewtonError {}

/// Solve `F(x) = 0` starting from `x`, refining it in place.
///
/// ```
/// use loadsteal_ode::{newton_solve, NewtonOptions};
/// // Intersection of a circle and a line.
/// let mut x = vec![1.0, 0.5];
/// newton_solve(
///     |v, out| {
///         out[0] = v[0] * v[0] + v[1] * v[1] - 1.0;
///         out[1] = v[0] - v[1];
///     },
///     &mut x,
///     &NewtonOptions::default(),
/// )
/// .unwrap();
/// assert!((x[0] - 0.5f64.sqrt()).abs() < 1e-12);
/// ```
///
/// `f(x, out)` writes `F(x)` into `out` (same length as `x`). The first
/// Jacobian is approximated column by column with forward differences,
/// which also records its sparsity pattern (the dense border's columns
/// widened to every row); later ones refill that pattern with one
/// evaluation per Curtis–Powell–Reid column colour.
/// Each Jacobian is factored as a reverse Cuthill–McKee band with a dense
/// border ([`BorderedBanded`]), and each Newton step is damped by
/// backtracking until the residual decreases (Armijo-free monotone
/// test — adequate because our fixed points are strongly attracting).
pub fn newton_solve(
    f: impl FnMut(&[f64], &mut [f64]),
    x: &mut [f64],
    opts: &NewtonOptions,
) -> Result<NewtonReport, NewtonError> {
    newton_solve_from(f, x, opts, &mut None)
}

/// [`newton_solve`] with the Jacobian structure in the caller's hands.
/// When `structure` holds one, such as a probed structure
/// [extended](JacobianStructure::extend) to this order, the first
/// Jacobian refills it instead of probing. Otherwise the first Jacobian
/// probes it into `structure`. Either way, `structure` holds the
/// structure the solve used on return, for the caller to keep or extend.
///
/// # Errors
/// As [`newton_solve`]; a given structure whose dense part exceeds
/// `opts.max_dense_dim` is [`NewtonError::TooDense`].
///
/// # Panics
/// Panics if a given structure is of another order than `x`.
pub fn newton_solve_from(
    mut f: impl FnMut(&[f64], &mut [f64]),
    x: &mut [f64],
    opts: &NewtonOptions,
    structure: &mut Option<JacobianStructure>,
) -> Result<NewtonReport, NewtonError> {
    let _span = span("ode.newton");
    let n = x.len();
    if let Some(s) = structure {
        assert_eq!(s.jac.order(), n, "structure of another order");
        check_dense(&s.layout, opts)?;
    }
    let mut fx = vec![0.0; n];
    let mut fx_trial = vec![0.0; n];
    let mut x_trial = vec![0.0; n];

    f(x, &mut fx);
    if fx.iter().any(|v| !v.is_finite()) {
        return Err(NewtonError::NonFinite);
    }
    let mut res = max_abs(&fx);

    for iter in 0..opts.max_iters {
        if res < opts.tol {
            return Ok(NewtonReport {
                iterations: iter,
                residual: res,
            });
        }
        let s = {
            let _span = span("ode.jacobian");
            match structure {
                Some(s) => {
                    s.refill(&mut f, x, &fx, opts.fd_eps);
                    s
                }
                None => structure.insert(JacobianStructure::probe(&mut f, x, &fx, opts)?),
            }
        };
        let lu = {
            let _span = span("ode.factor");
            s.layout.factor(&s.jac, 0.0)
        }
        .map_err(|_| NewtonError::SingularJacobian { iteration: iter })?;
        // Newton direction: J dx = -F.
        let mut dx: Vec<f64> = fx.iter().map(|v| -v).collect();
        lu.solve_in_place(&mut dx);
        if dx.iter().any(|v| !v.is_finite()) {
            return Err(NewtonError::NonFinite);
        }

        // Backtracking damping.
        let mut lambda = 1.0;
        loop {
            for i in 0..n {
                x_trial[i] = x[i] + lambda * dx[i];
            }
            f(&x_trial, &mut fx_trial);
            let res_trial = max_abs(&fx_trial);
            if res_trial.is_finite() && res_trial < res {
                x.copy_from_slice(&x_trial);
                fx.copy_from_slice(&fx_trial);
                res = res_trial;
                break;
            }
            lambda *= 0.5;
            if lambda < opts.min_damping {
                // No progress possible along this direction.
                if res < opts.tol * 10.0 {
                    // Close enough: accept as converged-with-slack.
                    return Ok(NewtonReport {
                        iterations: iter + 1,
                        residual: res,
                    });
                }
                return Err(NewtonError::Stalled { residual: res });
            }
        }
    }
    if res < opts.tol {
        return Ok(NewtonReport {
            iterations: opts.max_iters,
            residual: res,
        });
    }
    Err(NewtonError::MaxIterations { residual: res })
}

/// Pseudo-transient continuation: move `x` towards an attracting root
/// of `F` until `‖F(x)‖∞ < 1e-9`, where a Newton polish
/// ([`newton_solve_from`]) takes over.
///
/// Each step is a backward-Euler step of `dx/dt = F(x)` with
/// pseudo-time step δ, linearized: solve `(J − I/δ)Δ = −F` with the
/// Jacobian `J` at `x`, and try `x + Δ`. The first δ is 1. A step that
/// lowers `‖F‖∞` is accepted, and δ is scaled by the drop in the
/// residual, `‖F_k‖/‖F_{k+1}‖` clamped to [0.5, 10] (switched
/// evolution relaxation). A step that does not, or lands where `F` is
/// not finite, is rejected, and δ is halved. As δ grows the steps
/// become Newton steps; a small δ follows the flow, stiff or not.
///
/// The Jacobians share `structure` as in [`newton_solve_from`]: when it
/// holds one, the first Jacobian refills it, otherwise the first
/// Jacobian probes it into `structure`. Only `opts.fd_eps` and
/// `opts.max_dense_dim` apply; the step control is fixed.
///
/// Every attempted step is recorded to `rec` as a `SolverStep`: `t` is
/// the pseudo-time before the step, `h` is δ, and `err_norm` is
/// `‖F_{k+1}‖∞/‖F_k‖∞`, below 1 for an accepted step. Every accepted
/// step is followed by a `SolverSteady` with the new residual. The
/// continuation runs under the span `ode.continuation`.
///
/// ```
/// use loadsteal_obs::NullRecorder;
/// use loadsteal_ode::{pseudo_transient, NewtonOptions};
/// // dx/dt = 2 − x − x³ flows to its root x = 1.
/// let mut x = vec![0.0];
/// let report = pseudo_transient(
///     |v, out| out[0] = 2.0 - v[0] - v[0].powi(3),
///     &mut x,
///     &NewtonOptions::default(),
///     &mut None,
///     &mut NullRecorder,
/// )
/// .unwrap();
/// assert!(report.residual < 1e-9 && (x[0] - 1.0).abs() < 1e-9);
/// ```
///
/// # Errors
/// [`NewtonError::TooDense`] as [`newton_solve_from`];
/// [`NewtonError::NonFinite`] when `F(x)` is not finite at the start;
/// [`NewtonError::SingularJacobian`] when `J − I/δ` is singular; and
/// [`NewtonError::MaxIterations`] after 60 steps, accepted or rejected,
/// short of the hand-off, or after 20 rejected steps in a row.
///
/// # Panics
/// Panics if a given structure is of another order than `x`.
pub fn pseudo_transient(
    mut f: impl FnMut(&[f64], &mut [f64]),
    x: &mut [f64],
    opts: &NewtonOptions,
    structure: &mut Option<JacobianStructure>,
    rec: &mut dyn Recorder,
) -> Result<ContinuationReport, NewtonError> {
    let _span = span("ode.continuation");
    let n = x.len();
    if let Some(s) = structure {
        assert_eq!(s.jac.order(), n, "structure of another order");
        check_dense(&s.layout, opts)?;
    }
    let mut fx = vec![0.0; n];
    let mut fx_trial = vec![0.0; n];
    let mut x_trial = vec![0.0; n];
    f(x, &mut fx);
    if fx.iter().any(|v| !v.is_finite()) {
        return Err(NewtonError::NonFinite);
    }
    let mut res = max_abs(&fx);
    let tracing = rec.enabled();
    let mut report = ContinuationReport {
        accepted: 0,
        rejected: 0,
        residual: res,
    };
    // Pseudo-time, the sum of the accepted steps.
    let mut t = 0.0;
    let mut delta = PTC_FIRST_STEP;
    // Whether the structure holds the Jacobian at `x`: a rejected step
    // only changes δ.
    let mut current = false;
    let mut halvings = 0;
    while res >= PTC_HANDOFF {
        let step = report.accepted + report.rejected;
        if step == PTC_MAX_STEPS {
            return Err(NewtonError::MaxIterations { residual: res });
        }
        let s = {
            let _span = span("ode.jacobian");
            match structure {
                Some(s) => {
                    if !current {
                        s.refill(&mut f, x, &fx, opts.fd_eps);
                    }
                    s
                }
                None => structure.insert(JacobianStructure::probe(&mut f, x, &fx, opts)?),
            }
        };
        current = true;
        let lu = {
            let _span = span("ode.factor");
            s.layout.factor(&s.jac, 1.0 / delta)
        }
        .map_err(|_| NewtonError::SingularJacobian { iteration: step })?;
        let mut dx: Vec<f64> = fx.iter().map(|v| -v).collect();
        lu.solve_in_place(&mut dx);
        for i in 0..n {
            x_trial[i] = x[i] + dx[i];
        }
        f(&x_trial, &mut fx_trial);
        let res_trial = max_abs(&fx_trial);
        // False for a NaN residual, which `max_abs` propagates.
        let accepted = res_trial < res;
        if tracing {
            rec.record(&Event::SolverStep {
                accepted,
                t,
                h: delta,
                err_norm: res_trial / res,
            });
        }
        if accepted {
            x.copy_from_slice(&x_trial);
            fx.copy_from_slice(&fx_trial);
            current = false;
            report.accepted += 1;
            t += delta;
            if tracing {
                rec.record(&Event::SolverSteady {
                    t,
                    residual: res_trial,
                });
            }
            delta *= (res / res_trial).clamp(PTC_GROWTH.0, PTC_GROWTH.1);
            res = res_trial;
            halvings = 0;
        } else {
            report.rejected += 1;
            halvings += 1;
            if halvings == PTC_MAX_HALVINGS {
                return Err(NewtonError::MaxIterations { residual: res });
            }
            delta *= 0.5;
        }
    }
    report.residual = res;
    Ok(report)
}

/// [`NewtonError::TooDense`] when `layout`'s dense part exceeds the cap.
fn check_dense(layout: &BorderedBanded, opts: &NewtonOptions) -> Result<(), NewtonError> {
    if layout.dense_dim() > opts.max_dense_dim {
        return Err(NewtonError::TooDense {
            dense: layout.dense_dim(),
            limit: opts.max_dense_dim,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain of levels `x₁ … x_m` behind a global scalar `x₀` that also
    /// drains every level, so `∂F_i/∂x₀ = −x_i/20` is exactly zero
    /// wherever a level is. Row 0 closes the loop through the first level.
    fn chain(x: &[f64], out: &mut [f64]) {
        let m = x.len() - 1;
        out[0] = x[0] - 0.5 - 0.5 * x[1];
        for i in 1..=m {
            out[i] = x[i - 1] - (1.0 + 0.05 * x[0]) * x[i];
        }
    }

    /// `n` unknowns on the chain's geometric profile, with every level
    /// from `zero_from` on set to zero.
    fn chain_state(n: usize, zero_from: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i < zero_from {
                    0.6 * 0.97f64.powi(i as i32)
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// The chain's layout: `x₀` ahead of one block of levels.
    const CHAIN: BlockLayout = BlockLayout { head: 1, blocks: 1 };

    #[test]
    fn refill_restores_border_entries_that_vanished_at_the_probe() {
        let n = 41;
        let (x0, x1) = (chain_state(n, 20), chain_state(n, n));
        let (mut f0, mut f1) = (vec![0.0; n], vec![0.0; n]);
        chain(&x0, &mut f0);
        chain(&x1, &mut f1);
        let probed = SparseJacobian::probe(chain, &x0, &f0, 1e-7);
        assert_eq!(
            probed.to_dense()[(30, 0)],
            0.0,
            "the tail hides x₀'s column"
        );
        let mut structure =
            JacobianStructure::probe(chain, &x0, &f0, &NewtonOptions::default()).unwrap();
        assert_eq!(structure.layout.border(), &[0]);
        structure.refill(chain, &x1, &f1, 1e-7);
        let fresh = SparseJacobian::probe(chain, &x1, &f1, 1e-7);
        assert_ne!(fresh.to_dense()[(30, 0)], 0.0);
        assert_eq!(structure.jacobian().to_dense(), fresh.to_dense());
    }

    #[test]
    fn extension_from_21_to_41_unknowns_matches_the_probe_at_41() {
        let opts = NewtonOptions::default();
        // The pilot: 20 levels, polished, its structure probed.
        let mut pilot = chain_state(21, 21);
        let mut probed = None;
        newton_solve_from(chain, &mut pilot, &opts, &mut probed).unwrap();
        let extended = probed.unwrap().extend(CHAIN, 40);
        assert_eq!(extended.layout.border(), &[0]);
        assert_eq!(extended.layout.bandwidths(), (0, 1));
        // At the pilot's fixed point re-embedded (new levels empty) and
        // at a full tail, the refill is the probe there, bit for bit.
        for x in [CHAIN.embed(&pilot, 40), chain_state(41, 41)] {
            let mut fx = vec![0.0; 41];
            chain(&x, &mut fx);
            let mut refilled = extended.clone();
            refilled.refill(chain, &x, &fx, opts.fd_eps);
            let fresh = SparseJacobian::probe(chain, &x, &fx, opts.fd_eps);
            assert_eq!(refilled.jacobian().to_dense(), fresh.to_dense());
        }
        // A polish that starts from the extension probes nothing and
        // hands the structure back.
        let mut x = CHAIN.embed(&pilot, 40);
        let mut given = Some(extended);
        let report = newton_solve_from(chain, &mut x, &opts, &mut given).unwrap();
        assert!(report.iterations <= 6, "{report:?}");
        assert!(given.is_some());
    }

    #[test]
    fn polish_from_an_empty_tail_converges_quadratically() {
        let mut x = chain_state(41, 20);
        let report = newton_solve(chain, &mut x, &NewtonOptions::default()).unwrap();
        assert!(report.iterations <= 6, "{report:?}");
        let mut f = vec![0.0; x.len()];
        chain(&x, &mut f);
        assert!(max_abs(&f) < 1e-13);
        assert!(x[40] > 0.1, "the tail filled in: {}", x[40]);
    }

    /// Every event it is given.
    #[derive(Default)]
    struct Events(Vec<Event>);

    impl Recorder for Events {
        fn record(&mut self, ev: &Event) {
            self.0.push(*ev);
        }
    }

    /// A slow, strongly curved unknown `x₀` (flat where it starts) and a
    /// stiff one that follows it a thousand times faster.
    fn stiff(x: &[f64], out: &mut [f64]) {
        out[0] = 0.5 - x[0].powi(10);
        out[1] = 1000.0 * (x[0] - x[1]);
    }

    #[test]
    fn continuation_converges_on_a_stiff_system_where_newton_stalls() {
        let start = [0.2, 0.2];
        // J₀₀ ≈ −5e-6 at the start: Newton's first step is ~1e5 long,
        // and no damping down to 1/1024 brings it back.
        let mut x = start.to_vec();
        let err = newton_solve(stiff, &mut x, &NewtonOptions::default()).unwrap_err();
        assert!(matches!(err, NewtonError::Stalled { .. }), "{err:?}");
        let mut x = start.to_vec();
        let mut events = Events::default();
        let opts = NewtonOptions::default();
        let report = pseudo_transient(stiff, &mut x, &opts, &mut None, &mut events).unwrap();
        assert!(report.residual < 1e-9, "{report:?}");
        let root = 0.5f64.powf(0.1);
        assert!(
            (x[0] - root).abs() < 1e-9 && (x[1] - root).abs() < 1e-9,
            "{x:?}"
        );
        let steps = events
            .0
            .iter()
            .filter(|e| matches!(e, Event::SolverStep { .. }))
            .count();
        assert_eq!(steps, report.accepted + report.rejected);
        assert!(steps <= 30, "{report:?}");
    }

    #[test]
    fn a_step_that_raises_the_residual_is_rejected_and_halves_delta() {
        // From x = −0.5 the second step overshoots into the exponential
        // wall past the root x = 1.
        let wall = |v: &[f64], out: &mut [f64]| out[0] = 1.0 - (10.0 * (v[0] - 1.0)).exp();
        let mut x = vec![-0.5];
        let mut events = Events::default();
        let opts = NewtonOptions::default();
        let report = pseudo_transient(wall, &mut x, &opts, &mut None, &mut events).unwrap();
        assert!(report.rejected >= 1, "{report:?}");
        assert!((x[0] - 1.0).abs() < 1e-9, "{x:?}");
        let steps: Vec<(bool, f64, f64, f64)> = events
            .0
            .iter()
            .filter_map(|e| match *e {
                Event::SolverStep {
                    accepted,
                    t,
                    h,
                    err_norm,
                } => Some((accepted, t, h, err_norm)),
                _ => None,
            })
            .collect();
        let k = steps.iter().position(|s| !s.0).expect("a rejected step");
        let (_, t, h, err_norm) = steps[k];
        assert!(err_norm > 1.0, "rejected at ratio {err_norm}");
        // The retry starts from the same pseudo-time with half the step.
        assert_eq!(steps[k + 1].1, t);
        assert_eq!(steps[k + 1].2, h / 2.0);
        assert!(steps.iter().all(|s| s.0 == (s.3 < 1.0)));
    }

    #[test]
    fn too_dense_from_the_continuation_probe_propagates() {
        let mut x = chain_state(21, 21);
        let opts = NewtonOptions {
            max_dense_dim: 0,
            ..NewtonOptions::default()
        };
        let mut structure = None;
        let err = pseudo_transient(chain, &mut x, &opts, &mut structure, &mut Events::default())
            .unwrap_err();
        assert_eq!(err, NewtonError::TooDense { dense: 1, limit: 0 });
        assert!(structure.is_none());
    }

    #[test]
    fn continuation_hands_its_structure_to_the_polish() {
        let mut x = vec![0.2, 0.2];
        let opts = NewtonOptions::default();
        let mut structure = None;
        let mut events = Events::default();
        pseudo_transient(stiff, &mut x, &opts, &mut structure, &mut events).unwrap();
        assert!(structure.is_some());
        let report = newton_solve_from(stiff, &mut x, &opts, &mut structure).unwrap();
        assert!(report.iterations <= 3, "{report:?}");
        assert!(report.residual < 1e-13, "{report:?}");
    }

    #[test]
    fn solves_scalar_quadratic() {
        let mut x = vec![1.0];
        let report = newton_solve(
            |x, out| out[0] = x[0] * x[0] - 2.0,
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!((x[0] - 2.0_f64.sqrt()).abs() < 1e-12);
        assert!(report.iterations < 10);
    }

    #[test]
    fn solves_coupled_system() {
        // x^2 + y^2 = 4, x y = 1: intersect circle and hyperbola.
        let mut x = vec![2.0, 0.4];
        newton_solve(
            |v, out| {
                out[0] = v[0] * v[0] + v[1] * v[1] - 4.0;
                out[1] = v[0] * v[1] - 1.0;
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!((x[0] * x[0] + x[1] * x[1] - 4.0).abs() < 1e-11);
        assert!((x[0] * x[1] - 1.0).abs() < 1e-11);
    }

    #[test]
    fn converged_start_returns_immediately() {
        let mut x = vec![2.0_f64.sqrt()];
        let report = newton_solve(
            |x, out| out[0] = x[0] * x[0] - 2.0,
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn damping_rescues_overshooting_steps() {
        // atan has tiny derivatives far out; undamped Newton diverges
        // from |x0| > ~1.39.
        let mut x = vec![3.0];
        newton_solve(
            |x, out| out[0] = x[0].atan(),
            &mut x,
            &NewtonOptions {
                max_iters: 200,
                ..NewtonOptions::default()
            },
        )
        .unwrap();
        assert!(x[0].abs() < 1e-10);
    }

    #[test]
    fn singular_jacobian_is_reported() {
        // F(x, y) = (x + y, x + y): Jacobian rank 1 everywhere.
        let mut x = vec![1.0, 1.0];
        let err = newton_solve(
            |v, out| {
                out[0] = v[0] + v[1];
                out[1] = v[0] + v[1];
            },
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, NewtonError::SingularJacobian { .. }));
    }

    #[test]
    fn nan_trial_steps_are_rejected() {
        // The full step from x = 1 lands at x = −0.8, where F is NaN; the
        // line search must shrink it rather than take NaN for zero.
        let mut x = vec![1.0];
        let report = newton_solve(
            |v, out| out[0] = v[0].sqrt() - 0.1,
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap();
        assert!((x[0] - 0.01).abs() < 1e-12, "x = {}", x[0]);
        assert!(report.residual < 1e-13, "{report:?}");
    }

    #[test]
    fn nonfinite_residual_is_reported() {
        let mut x = vec![-1.0];
        let err = newton_solve(
            |v, out| out[0] = v[0].sqrt(), // NaN for negative input
            &mut x,
            &NewtonOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, NewtonError::NonFinite);
    }
}

//! Damped Newton iteration with a structured finite-difference Jacobian.
//!
//! Fixed points of a truncated mean-field family are roots of the
//! algebraic system `F(π) = 0`, where `F` is the right-hand side of the
//! ODEs. Integrating to steady state gets within `~1e-8`; this module
//! polishes that estimate to close to machine precision, which matters
//! when the performance metric is a long geometric sum of the tail.
//!
//! The Jacobian of such a system is bordered-banded: each level couples
//! to a few neighbours, plus a few global scalars couple to everything.
//! The first iteration probes it column by column and keeps its pattern
//! ([`crate::jacobian`]); later iterations refill the pattern with one
//! evaluation per column colour, and every Jacobian is factored as a band
//! plus a dense border ([`crate::bordered`]).
//!
//! The border's columns are widened to every row right after the probe.
//! A warm start from a shorter truncation has empty new levels, where
//! the global scalars' columns vanish; a pattern without those entries
//! refills a Jacobian that lacks them wherever the levels fill in, and
//! the polish converges only linearly. The factor stores the border
//! densely and each border column has a colour of its own, so the
//! widened entries cost no extra evaluation.

use loadsteal_obs::span::span;

use crate::bordered::BorderedBanded;
use crate::jacobian::{Colouring, SparseJacobian};
use crate::norms::max_abs;

/// What every Jacobian of one solve shares: its pattern (holding the
/// latest values), layout and colouring.
type Structure = (SparseJacobian, BorderedBanded, Colouring);

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

/// Failure modes of [`newton_solve`].
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
    /// Iteration budget exhausted.
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
    mut f: impl FnMut(&[f64], &mut [f64]),
    x: &mut [f64],
    opts: &NewtonOptions,
) -> Result<NewtonReport, NewtonError> {
    let _span = span("ode.newton");
    let n = x.len();
    let mut fx = vec![0.0; n];
    let mut fx_trial = vec![0.0; n];
    let mut x_trial = vec![0.0; n];

    f(x, &mut fx);
    if fx.iter().any(|v| !v.is_finite()) {
        return Err(NewtonError::NonFinite);
    }
    let mut res = max_abs(&fx);
    let mut structure: Option<Structure> = None;

    for iter in 0..opts.max_iters {
        if res < opts.tol {
            return Ok(NewtonReport {
                iterations: iter,
                residual: res,
            });
        }
        {
            let _span = span("ode.jacobian");
            match &mut structure {
                Some((jac, _, colouring)) => jac.refill(&mut f, x, &fx, opts.fd_eps, colouring),
                None => structure = Some(first_jacobian(&mut f, x, &fx, opts)?),
            }
        }
        let (jac, layout, _) = structure.as_ref().expect("probed above");
        let lu = {
            let _span = span("ode.factor");
            layout.factor(jac)
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

/// The first Jacobian of a solve at `x` (with `fx = F(x)`): probed
/// column by column, laid out as band plus border, the border's columns
/// widened to every row (see the [module docs](self)), and coloured with
/// one colour per border column.
fn first_jacobian(
    f: impl FnMut(&[f64], &mut [f64]),
    x: &[f64],
    fx: &[f64],
    opts: &NewtonOptions,
) -> Result<Structure, NewtonError> {
    let _span = span("ode.probe");
    let mut jac = SparseJacobian::probe(f, x, fx, opts.fd_eps);
    let layout = BorderedBanded::analyse(&jac);
    if layout.dense_dim() > opts.max_dense_dim {
        return Err(NewtonError::TooDense {
            dense: layout.dense_dim(),
            limit: opts.max_dense_dim,
        });
    }
    jac.widen_columns(layout.border());
    let colouring = jac.colour(layout.border());
    Ok((jac, layout, colouring))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A chain of levels `x₁ … x_m` behind a global scalar `x₀` that also
    /// drains every level, so `∂F_i/∂x₀ = −x_i/20` is exactly zero
    /// wherever a level is. Row 0 closes the loop through the last level.
    fn chain(x: &[f64], out: &mut [f64]) {
        let m = x.len() - 1;
        out[0] = x[0] - 0.5 - 0.5 * x[m];
        for i in 1..=m {
            out[i] = x[i - 1] - (1.0 + 0.05 * x[0]) * x[i];
        }
    }

    /// 41 unknowns on the chain's geometric profile, with every level
    /// from `zero_from` on set to zero.
    fn chain_state(zero_from: usize) -> Vec<f64> {
        (0..41)
            .map(|i| {
                if i < zero_from {
                    0.6 * 0.97f64.powi(i as i32)
                } else {
                    0.0
                }
            })
            .collect()
    }

    #[test]
    fn refill_restores_border_entries_that_vanished_at_the_probe() {
        let n = 41;
        let (x0, x1) = (chain_state(20), chain_state(n));
        let (mut f0, mut f1) = (vec![0.0; n], vec![0.0; n]);
        chain(&x0, &mut f0);
        chain(&x1, &mut f1);
        let probed = SparseJacobian::probe(chain, &x0, &f0, 1e-7);
        assert_eq!(
            probed.to_dense()[(30, 0)],
            0.0,
            "the tail hides x₀'s column"
        );
        let (mut jac, layout, colouring) =
            first_jacobian(chain, &x0, &f0, &NewtonOptions::default()).unwrap();
        assert_eq!(layout.border(), &[0]);
        jac.refill(chain, &x1, &f1, 1e-7, &colouring);
        let fresh = SparseJacobian::probe(chain, &x1, &f1, 1e-7);
        assert_ne!(fresh.to_dense()[(30, 0)], 0.0);
        assert_eq!(jac.to_dense(), fresh.to_dense());
    }

    #[test]
    fn polish_from_an_empty_tail_converges_quadratically() {
        let mut x = chain_state(20);
        let report = newton_solve(chain, &mut x, &NewtonOptions::default()).unwrap();
        assert!(report.iterations <= 6, "{report:?}");
        let mut f = vec![0.0; x.len()];
        chain(&x, &mut f);
        assert!(max_abs(&f) < 1e-13);
        assert!(x[40] > 0.1, "the tail filled in: {}", x[40]);
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

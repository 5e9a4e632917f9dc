//! ODE integration and nonlinear-solver substrate for `loadsteal`.
//!
//! The mean-field method of Mitzenmacher (SPAA 1998) represents a work
//! stealing system with `n → ∞` processors by a countable family of
//! differential equations over the tail measure
//! `s_i(t) = fraction of processors with at least i tasks`. Working with
//! those families requires three numerical tools, all provided here:
//!
//! 1. **Initial-value integration** ([`solver`]): fixed-step
//!    [`solver::Euler`] and [`solver::Rk4`], and the adaptive
//!    Dormand–Prince 5(4) pair [`solver::DormandPrince45`] with a PI step
//!    controller. All integrators drive any type implementing
//!    [`OdeSystem`] and support trajectory observers and steady-state
//!    detection ([`solver::SteadyStateOptions`]).
//! 2. **Linear algebra** ([`linalg`], [`bordered`]): a row-major dense
//!    matrix with LU factorization (partial pivoting), and a
//!    bordered-banded LU that factors a band with partial pivoting and
//!    the dense Schur complement of a few dense rows and columns with the
//!    dense LU. The band is in reverse Cuthill–McKee order, or level by
//!    level for a structure extended to a larger truncation.
//! 3. **Root finding** ([`roots`], [`newton`], [`jacobian`]): scalar
//!    bisection and Brent iteration for the paper's closed-form
//!    fixed-point constants, and for the algebraic systems `F(π) = 0`
//!    that define fixed points without closed forms, pseudo-transient
//!    continuation ([`pseudo_transient`]: backward-Euler steps of the
//!    flow, not limited by stiffness) from far away and a damped
//!    finite-difference Newton method from close by. Their Jacobian
//!    structure is probed once per solve, at the smallest truncation,
//!    and extended to larger ones ([`JacobianStructure::extend`]) with
//!    no evaluation of `F`. Every Jacobian is refilled by
//!    Curtis–Powell–Reid column colouring, a handful of evaluations of
//!    `F` instead of one per unknown, so banded systems of thousands of
//!    unknowns polish in milliseconds.
//!
//! The crate is deliberately self-contained (no external dependencies):
//! the Rust ODE ecosystem is thin, and the solvers needed here are small,
//! well-understood, and benefit from being tuned to the structure of the
//! truncated tail systems (cheap right-hand sides, banded coupling plus
//! a few global scalars, smooth non-stiff decay towards an attracting
//! fixed point).
//!
//! # Example
//!
//! Integrate exponential decay `y' = -y` with the adaptive solver and
//! compare against the exact solution:
//!
//! ```
//! use loadsteal_ode::{OdeSystem, solver::{DormandPrince45, AdaptiveOptions}};
//!
//! struct Decay;
//! impl OdeSystem for Decay {
//!     fn dim(&self) -> usize { 1 }
//!     fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) { dy[0] = -y[0]; }
//! }
//!
//! let mut y = vec![1.0];
//! let mut dp = DormandPrince45::new(AdaptiveOptions::default());
//! dp.integrate(&Decay, 0.0, 5.0, &mut y).unwrap();
//! assert!((y[0] - (-5.0f64).exp()).abs() < 1e-8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bordered;
pub mod jacobian;
pub mod linalg;
pub mod newton;
pub mod norms;
pub mod roots;
pub mod solver;
mod system;

pub use newton::{
    newton_solve, newton_solve_from, pseudo_transient, ContinuationReport, JacobianStructure,
    NewtonError, NewtonOptions, NewtonReport,
};
pub use roots::{bisect, brent, RootError};
pub use solver::{
    AdaptiveOptions, Control, DormandPrince45, Euler, IntegrationError, Rk4, SteadyReport,
    SteadyStateOptions, StepStats,
};
pub use system::{FnSystem, OdeSystem};

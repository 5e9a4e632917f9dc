//! Mean-field (differential-equation) models of randomized work
//! stealing — a reproduction of Mitzenmacher, *Analyses of Load Stealing
//! Models Based on Differential Equations*, SPAA 1998.
//!
//! # The method
//!
//! Consider `n` processors, each receiving its own Poisson(λ) task
//! stream (λ < 1) and serving FIFO at rate 1. Let
//! `s_i(t)` be the *fraction of processors with at least `i` tasks*.
//! The empirical process `(s_0, s_1, …)` is a density-dependent jump
//! Markov chain; by Kurtz's theorem, as `n → ∞` it converges to the
//! solution of a family of differential equations. For the paper's
//! simple work-stealing algorithm (an empty processor steals one task
//! from the tail of a uniformly random victim holding at least two):
//!
//! ```text
//! ds_1/dt = λ(s_0 − s_1) − (s_1 − s_2)(1 − s_2)
//! ds_i/dt = λ(s_{i−1} − s_i) − (s_i − s_{i+1}) − (s_i − s_{i+1})(s_1 − s_2),   i ≥ 2
//! ```
//!
//! The fixed point of this family has closed form: `π_1 = λ`,
//! `π_2 = (1 + λ − √(1 + 2λ − 3λ²))/2`, and geometric tails
//! `π_i = π_2 · ρ'^{i−2}` with `ρ' = λ/(1 + λ − π_2) < λ` — work
//! stealing makes the queue-length tails decay *strictly faster* than
//! the `λ^i` of independent M/M/1 queues, as if the service rate had
//! increased by the steal rate `λ − π_2`.
//!
//! # What's here
//!
//! * [`models`] — every system the paper writes equations for:
//!   no-stealing baseline, simple WS, victim-load thresholds, preemptive
//!   stealing, repeated steal attempts, Erlang service stages (constant
//!   service approximation), transfer delays, multiple victim choices,
//!   multi-task steals, pairwise rebalancing, heterogeneous speeds, and
//!   internal-arrival/static-drain systems. Each implements
//!   [`MeanFieldModel`].
//! * [`fixed_point`] — the numeric pipeline (pseudo-transient
//!   continuation from a small interior state, then Newton-polish, at a
//!   truncation sized by the measured tail law) plus closed forms where
//!   the paper derives them.
//! * [`stability`] — the Section 4 analysis: L₁ distance to the fixed
//!   point along trajectories, and the `π₂ < 1/2` hypothesis of
//!   Theorems 1–2.
//! * [`metrics`] — mean occupancy, Little's-law sojourn times, tail
//!   decay ratios.
//!
//! # Quickstart
//!
//! ```
//! use loadsteal_core::models::SimpleWs;
//! use loadsteal_core::fixed_point::{solve, FixedPointOptions};
//!
//! let model = SimpleWs::new(0.9).unwrap();
//! // Closed form (Section 2.2):
//! let exact = model.closed_form_fixed_point();
//! assert!((exact.mean_time_in_system - 3.541).abs() < 5e-3); // Table 1
//! // Numeric pipeline agrees:
//! let numeric = solve(&model, &FixedPointOptions::default()).unwrap();
//! assert!((numeric.mean_time_in_system - exact.mean_time_in_system).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed_point;
pub mod metrics;
pub mod models;
pub mod rate;
pub mod registry;
pub mod spec;
pub mod stability;
pub mod tail;
pub mod trajectory;

pub use fixed_point::{solve, solve_traced, FixedPoint, FixedPointOptions, SolveError};
pub use models::MeanFieldModel;
pub use rate::{fit_power_law, geometric_grid, SlopeFit};
pub use registry::{ModelRegistry, Preset, PresetTier};
pub use spec::{AnyModel, ModelSpec, UnsupportedSpec};
pub use tail::TailVector;

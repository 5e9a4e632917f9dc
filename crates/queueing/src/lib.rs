//! Queueing-theory substrate for `loadsteal`.
//!
//! The paper's dynamic model is a field of M/M/1-like queues coupled by
//! stealing. This crate provides the pieces both the simulator and the
//! mean-field analysis need:
//!
//! * [`dist`] — service/arrival time distributions with exact moments and
//!   exact samplers (Exponential, Deterministic, Erlang-k,
//!   Hyperexponential, Uniform): exponential and hyperexponential draws
//!   go through the ziggurat in [`zig`], Erlang-k through the
//!   product-of-uniforms form of k inversions. Erlang-k is the "method
//!   of stages" distribution used in Section 3.1 of the paper to
//!   approximate constant service times.
//! * [`mm1`] — closed forms for the uncoupled baseline: M/M/1 occupancy
//!   tails `P(N ≥ i) = ρ^i`, sojourn times, and the M/D/1
//!   Pollaczek–Khinchine mean for the constant-service comparison.
//! * [`stats`] — Welford online statistics, confidence intervals, and
//!   time-weighted averages for simulation output analysis.
//! * [`littles_law`] — conversions between time-in-system and mean
//!   occupancy under a known arrival rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch_means;
pub mod dist;
pub mod littles_law;
pub mod mm1;
pub mod stats;
pub mod zig;

pub use batch_means::BatchMeans;
pub use dist::ServiceDistribution;
pub use stats::{ConfidenceInterval, OnlineStats, TimeWeighted};

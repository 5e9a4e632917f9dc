//! Property-based tests on the mean-field models' structure:
//! closed forms satisfy their defining equations, derivative fields
//! preserve the tail-vector invariants, and task conservation holds at
//! arbitrary states.

use proptest::prelude::*;

use loadsteal_core::models::{
    GeneralWs, Heterogeneous, MeanFieldModel, NoSteal, SimpleWs, ThresholdWs, TransferWs,
};
use loadsteal_core::tail::TailVector;
use loadsteal_ode::OdeSystem;

/// A random valid tail state for a model of `levels` truncation.
fn arb_tail(levels: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, levels).prop_map(|mut v| {
        // Sort descending to make a valid non-increasing tail.
        v.sort_by(|a, b| b.total_cmp(a));
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simple_ws_pi2_solves_its_quadratic(lambda in 0.01f64..0.995) {
        let m = SimpleWs::new(lambda).unwrap();
        let p = m.pi2();
        // π₂² − (1+λ)π₂ + λ² = 0 (from eq. (2) at the fixed point).
        let resid = p * p - (1.0 + lambda) * p + lambda * lambda;
        prop_assert!(resid.abs() < 1e-12, "residual {resid}");
        prop_assert!(p > 0.0 && p < lambda);
    }

    #[test]
    fn threshold_closed_form_is_fixed_point(
        lambda in 0.05f64..0.98,
        threshold in 2usize..9,
    ) {
        let m = ThresholdWs::new(lambda, threshold).unwrap();
        let state = m.closed_form_tails().into_vec();
        prop_assert!(TailVector::from_slice(&state).is_valid(1e-9));
        let mut dy = vec![0.0; state.len()];
        m.deriv(0.0, &state, &mut dy);
        for (i, d) in dy.iter().enumerate().take(state.len() - 2) {
            prop_assert!(d.abs() < 1e-10, "ds_{}/dt = {d}", i + 1);
        }
    }

    #[test]
    fn closed_form_tails_are_geometric_beyond_t(
        lambda in 0.1f64..0.95,
        threshold in 2usize..7,
    ) {
        let m = ThresholdWs::new(lambda, threshold).unwrap();
        let tails = m.closed_form_tails();
        let rho = m.rho_prime();
        for i in threshold..threshold + 6 {
            if tails.get(i) > 1e-12 {
                let ratio = tails.get(i + 1) / tails.get(i);
                prop_assert!((ratio - rho).abs() < 1e-9, "i = {i}: {ratio} vs {rho}");
            }
        }
    }

    #[test]
    fn task_conservation_in_simple_ws_drift(
        lambda in 0.1f64..0.95,
        state in arb_tail(64),
    ) {
        // dL/dt = λ − s₁ at ANY state: arrivals add, services remove,
        // steals merely move tasks.
        let m = SimpleWs::new(lambda).unwrap().with_truncation(64);
        let mut dy = vec![0.0; 64];
        m.deriv(0.0, &state, &mut dy);
        let dl: f64 = dy.iter().sum();
        // Truncation leaks at most the boundary flow.
        let leak = state[63] * (2.0 + lambda);
        prop_assert!(
            (dl - (lambda - state[0])).abs() < leak + 1e-9,
            "dL/dt = {dl} vs λ − s₁ = {}",
            lambda - state[0]
        );
    }

    #[test]
    fn multi_steal_conserves_tasks(
        lambda in 0.1f64..0.95,
        batch in 1usize..4,
        state in arb_tail(72),
    ) {
        let threshold = 2 * batch + 2;
        let m = GeneralWs::new(lambda, threshold, 1, batch).unwrap().with_truncation(72);
        let mut dy = vec![0.0; 72];
        m.deriv(0.0, &state, &mut dy);
        let dl: f64 = dy.iter().sum();
        // Steal-loss terms reference up to k levels past the boundary,
        // so the leak is bounded by flows at depth L − k.
        let leak = state[72 - 1 - batch] * (2.0 + lambda + batch as f64);
        prop_assert!((dl - (lambda - state[0])).abs() < leak + 1e-9);
    }

    #[test]
    fn multi_choice_drift_keeps_tails_ordered(
        lambda in 0.1f64..0.95,
        d in 1u32..5,
        state in arb_tail(48),
    ) {
        // One Euler step from a valid tail must stay (nearly) valid: the
        // drift never drives s_i above s_{i−1} at first order.
        let m = GeneralWs::new(lambda, 2, d, 1).unwrap().with_truncation(48);
        let mut dy = vec![0.0; 48];
        m.deriv(0.0, &state, &mut dy);
        let h = 1e-4;
        let mut next: Vec<f64> = state.iter().zip(&dy).map(|(s, d)| s + h * d).collect();
        m.project(&mut next);
        prop_assert!(TailVector::from_slice(&next).is_valid(1e-6));
    }

    #[test]
    fn transfer_model_conserves_tasks_in_flight(
        lambda in 0.1f64..0.9,
        s0 in 0.3f64..1.0,
        raw in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        // Build a valid stacked state: s-block below s0, w-block below
        // w0 = 1 − s0, both non-increasing.
        let m = TransferWs::new(lambda, 0.5, 3).unwrap().with_truncation(32);
        let mut y = vec![0.0; m.dim()];
        y[0] = s0;
        let mut prev = s0;
        for i in 0..32 {
            prev *= raw[i];
            y[1 + i] = prev;
        }
        let mut prev = 1.0 - s0;
        for i in 0..32 {
            prev *= raw[32 + i];
            y[33 + i] = prev;
        }
        let mut dy = vec![0.0; m.dim()];
        m.deriv(0.0, &y, &mut dy);
        // L = Σ_{i≥1}(s_i + w_i) + w_0 with w_0 = 1 − s_0, so
        // dL/dt = Σ dy[1..] − dy[0]; it must equal λ − (s₁ + w₁)
        // (arrivals everywhere, services at busy processors; steals and
        // transfers only move tasks).
        let dl: f64 = dy[1..].iter().sum::<f64>() - dy[0];
        let busy = y[1] + y[33];
        // Truncation leakage at the two block boundaries.
        let leak = (y[32] + y[64]) * (3.0 + lambda) + 1e-9;
        prop_assert!(
            (dl - (lambda - busy)).abs() < leak,
            "dL/dt = {dl} vs λ − busy = {}",
            lambda - busy
        );
    }

    #[test]
    fn heterogeneous_model_conserves_tasks(
        lambda in 0.1f64..0.8,
        alpha in 0.2f64..0.8,
        raw in prop::collection::vec(0.0f64..1.0, 64),
    ) {
        let (mu_f, mu_s) = (1.6, 0.9);
        let m = Heterogeneous::new(lambda, alpha, mu_f, mu_s, 2)
            .unwrap()
            .with_truncation(32);
        let mut y = vec![0.0; m.dim()];
        let mut prev = alpha;
        for i in 0..32 {
            prev *= raw[i];
            y[i] = prev;
        }
        let mut prev = 1.0 - alpha;
        for i in 0..32 {
            prev *= raw[32 + i];
            y[32 + i] = prev;
        }
        let mut dy = vec![0.0; m.dim()];
        m.deriv(0.0, &y, &mut dy);
        let dl: f64 = dy.iter().sum();
        let throughput = mu_f * y[0] + mu_s * y[32];
        let leak = (y[31] + y[63]) * (3.0 + mu_f + lambda) + 1e-9;
        prop_assert!(
            (dl - (lambda - throughput)).abs() < leak,
            "dL/dt = {dl} vs λ − throughput = {}",
            lambda - throughput
        );
    }

    #[test]
    fn stealing_dominates_no_stealing_everywhere(lambda in 0.05f64..0.99) {
        let ws = SimpleWs::new(lambda).unwrap();
        let none = NoSteal::new(lambda).unwrap();
        prop_assert!(ws.closed_form_mean_time() < none.closed_form_mean_time());
        // And the tails are pointwise no heavier from level 2 on.
        let wt = ws.closed_form_tails();
        let nt = none.closed_form_tails();
        for i in 2..12 {
            prop_assert!(wt.get(i) <= nt.get(i) + 1e-12, "level {i}");
        }
    }

    #[test]
    fn mean_time_is_monotone_in_lambda(l1 in 0.05f64..0.9) {
        let l2 = l1 + 0.05;
        let w1 = SimpleWs::new(l1).unwrap().closed_form_mean_time();
        let w2 = SimpleWs::new(l2).unwrap().closed_form_mean_time();
        prop_assert!(w2 > w1, "W({l2}) = {w2} !> W({l1}) = {w1}");
    }
}

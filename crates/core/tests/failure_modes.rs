//! Failure injection: the solver pipeline reports the right errors when
//! pushed outside its envelope instead of silently returning garbage.

use loadsteal_core::fixed_point::{solve, FixedPointOptions, SolveError};
use loadsteal_core::models::{MeanFieldModel, SimpleWs};
use loadsteal_ode::solver::SteadyStateOptions;
use loadsteal_ode::{AdaptiveOptions, DormandPrince45, IntegrationError, NewtonOptions, OdeSystem};

#[test]
fn truncation_cap_is_reported() {
    // λ = 0.95 needs ~hundreds of levels; force an 8-level cap and a
    // model that starts at the cap.
    let m = SimpleWs::new(0.95).unwrap().with_truncation(8);
    let opts = FixedPointOptions {
        max_truncation: 8,
        ..FixedPointOptions::default()
    };
    match solve(&m, &opts) {
        Err(SolveError::TruncationExhausted { levels }) => assert_eq!(levels, 8),
        other => panic!("expected TruncationExhausted, got {other:?}"),
    }
}

#[test]
fn truncation_growth_rescues_small_starts() {
    // Same model, but with room to grow: the pipeline must converge and
    // end up at a larger truncation.
    let m = SimpleWs::new(0.95).unwrap().with_truncation(8);
    let fp = solve(&m, &FixedPointOptions::default()).unwrap();
    assert!(fp.truncation > 8, "truncation stayed at {}", fp.truncation);
    let exact = SimpleWs::new(0.95).unwrap().closed_form_mean_time();
    assert!((fp.mean_time_in_system - exact).abs() < 1e-6);
}

#[test]
fn short_integration_horizon_is_not_converged() {
    let m = SimpleWs::new(0.9).unwrap();
    let opts = FixedPointOptions {
        steady: SteadyStateOptions {
            tol: 1e-10,
            t_max: 0.5, // hopeless: relaxation needs hundreds of units
            min_time: 0.0,
        },
        // and no Newton rescue: a dense cap below simple WS's two columns
        newton: NewtonOptions {
            max_dense_dim: 0,
            ..NewtonOptions::default()
        },
        ..FixedPointOptions::default()
    };
    match solve(&m, &opts) {
        Err(SolveError::NotConverged { residual }) => assert!(residual > 1e-8),
        other => panic!("expected NotConverged, got {other:?}"),
    }
}

#[test]
fn newton_rescues_short_integration() {
    // Same hopeless horizon, but Newton allowed: the integrated state is
    // a poor but usable initial guess only if integration got somewhere;
    // give it a slightly longer (still too short) leash.
    let m = SimpleWs::new(0.5).unwrap();
    let opts = FixedPointOptions {
        steady: SteadyStateOptions {
            tol: 1e-10,
            t_max: 30.0,
            min_time: 0.0,
        },
        ..FixedPointOptions::default()
    };
    let fp = solve(&m, &opts).unwrap();
    assert!(fp.polished, "Newton did not run");
    let exact = SimpleWs::new(0.5).unwrap().closed_form_mean_time();
    assert!((fp.mean_time_in_system - exact).abs() < 1e-8);
}

#[test]
fn integrator_step_budget_is_enforced() {
    let m = SimpleWs::new(0.9).unwrap();
    let mut y = m.empty_state();
    let mut dp = DormandPrince45::new(AdaptiveOptions {
        max_steps: 10,
        ..AdaptiveOptions::default()
    });
    let err = dp.integrate(&m, 0.0, 1e6, &mut y).unwrap_err();
    assert!(matches!(err, IntegrationError::MaxStepsExceeded { .. }));
}

#[test]
fn nonfinite_model_state_is_caught() {
    // A adversarial system that blows up in finite time.
    struct Blowup;
    impl OdeSystem for Blowup {
        fn dim(&self) -> usize {
            1
        }
        fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
            dy[0] = y[0] * y[0];
        }
    }
    let mut y = vec![1.0];
    let mut dp = DormandPrince45::new(AdaptiveOptions::default());
    let err = dp.integrate(&Blowup, 0.0, 5.0, &mut y).unwrap_err();
    assert!(
        matches!(
            err,
            IntegrationError::NonFinite { .. } | IntegrationError::StepSizeUnderflow { .. }
        ),
        "got {err:?}"
    );
}

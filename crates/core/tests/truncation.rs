//! The sizing contract of the fixed-point solver: the truncation it
//! chooses from the measured tail law leaves out no mass that matters.
//!
//! Every preset is solved at λ ∈ {0.5, 0.9, 0.95, 0.99}. Its fixed point
//! is then re-embedded at twice the chosen truncation and polished there
//! by Newton steps, which fill the added levels with the tail the chosen
//! truncation left out. The doubled solve must agree on the mean time in
//! system to 1e−10 relative, and the mass it finds beyond the chosen
//! truncation must be near the 1e−14 the solver sized for.
//!
//! The re-embedding itself must put every level of every block back in
//! place, or warm starts would quietly fall back to integration.

use loadsteal_core::{MeanFieldModel, ModelRegistry, ModelSpec};
use loadsteal_ode::norms::max_abs;
use loadsteal_ode::{newton_solve, NewtonError, NewtonOptions, OdeSystem};

#[test]
fn doubling_the_chosen_truncation_changes_nothing() {
    // No tolerance: step even where the re-embedded state already
    // meets the usual one, until a step no longer lowers the residual.
    let newton = NewtonOptions {
        tol: 0.0,
        max_iters: 3,
        ..NewtonOptions::default()
    };
    for p in ModelRegistry::standard().presets() {
        for lambda in [0.5, 0.9, 0.95, 0.99] {
            let spec = ModelSpec::parse(&format!("{},lambda={lambda}", p.name)).unwrap();
            let fp = spec.fixed_point().unwrap_or_else(|e| panic!("{spec}: {e}"));
            let m = spec
                .mean_field()
                .unwrap()
                .with_truncation(2 * fp.truncation);
            let mut y = m.embed_state(&fp.state);
            match newton_solve(|x, out| m.deriv(0.0, x, out), &mut y, &newton) {
                Ok(_) | Err(NewtonError::Stalled { .. } | NewtonError::MaxIterations { .. }) => {}
                Err(e) => panic!("{spec} at {} levels: {e}", m.truncation()),
            }
            let mut f = vec![0.0; y.len()];
            m.deriv(0.0, &y, &mut f);
            let residual = max_abs(&f);
            assert!(
                residual < 1e-12,
                "{spec}: residual {residual:e} at {} levels",
                m.truncation()
            );

            let w = m.mean_time_in_system(&y);
            let rel = (w - fp.mean_time_in_system).abs() / fp.mean_time_in_system;
            assert!(
                rel < 1e-10,
                "{spec}: W = {} at {} levels, {w} at {} (rel {rel:e})",
                fp.mean_time_in_system,
                fp.truncation,
                m.truncation()
            );
            let neglected: f64 = m.task_tails(&y)[fp.task_tails.len()..].iter().sum();
            assert!(
                neglected < 1e-13,
                "{spec}: {neglected:e} of mass beyond {} levels",
                fp.truncation
            );
        }
    }
}

#[test]
fn embedding_keeps_every_level_in_place() {
    for p in ModelRegistry::standard().presets() {
        let fp = p.spec.fixed_point().unwrap();
        let m = p.spec.mean_field().unwrap().with_truncation(fp.truncation);
        let wide = m.with_truncation(2 * fp.truncation);
        let y = wide.embed_state(&fp.state);
        assert_eq!(y.len(), wide.dim(), "{}", p.name);
        let tails = wide.task_tails(&y);
        let (kept, added) = tails.split_at(fp.task_tails.len());
        assert_eq!(kept, &fp.task_tails[..], "{}", p.name);
        assert!(added.iter().all(|&v| v == 0.0), "{}", p.name);
        assert_eq!(wide.mean_tasks(&y), fp.mean_tasks, "{}", p.name);
        assert_eq!(m.embed_state(&y), fp.state, "{}: round trip", p.name);
    }
}

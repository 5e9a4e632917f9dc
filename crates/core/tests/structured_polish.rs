//! The structured Newton polish against its dense oracle, and its
//! coverage: every registry preset polishes at any truncation.
//!
//! The pilot's continuation probes the Jacobian's sparsity pattern
//! once, at its start; grown passes extend it to every larger
//! truncation, and every Jacobian refills it by column colouring. That
//! is exact only if the pattern holds every entry that can move, so
//! each preset's coloured Jacobian, probed and extended, is compared
//! bit for bit with the per-column dense one at interior and warm-start
//! states.

use loadsteal_core::fixed_point::{continuation_start, solve, FixedPointOptions};
use loadsteal_core::models::{NoSteal, SimpleWs};
use loadsteal_core::{MeanFieldModel, ModelRegistry, ModelSpec};
use loadsteal_obs::NullRecorder;
use loadsteal_ode::bordered::BorderedBanded;
use loadsteal_ode::jacobian::{Colouring, SparseJacobian};
use loadsteal_ode::linalg::DenseMatrix;
use loadsteal_ode::{
    newton_solve_from, pseudo_transient, AdaptiveOptions, DormandPrince45, JacobianStructure,
    NewtonOptions, OdeSystem,
};

/// An interior state of `m`: the state 40 time units after empty,
/// halved, plus 0.025–0.125 on every component. Integration alone leaves
/// deep levels so small (below 1e-16 for multi-choice) that `1 − s_i`
/// rounds to 1 and dependencies hide in rounding; the models' branches
/// depend on level indices only, so any such state shows the full
/// structure.
fn interior_state<M: MeanFieldModel>(m: &M, seed: u64) -> Vec<f64> {
    let mut y = m.empty_state();
    DormandPrince45::new(AdaptiveOptions::default())
        .integrate(m, 0.0, 40.0, &mut y)
        .unwrap();
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for v in &mut y {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        *v = 0.5 * *v + 0.025 + 0.1 * u;
    }
    y
}

/// The forward-difference Jacobian one column at a time, as the dense
/// polish computed it.
fn dense_jacobian<M: MeanFieldModel>(m: &M, x: &[f64], fx: &[f64], fd_eps: f64) -> DenseMatrix {
    let n = x.len();
    let mut jac = DenseMatrix::zeros(n);
    let mut x_pert = vec![0.0; n];
    let mut f_pert = vec![0.0; n];
    for j in 0..n {
        x_pert.copy_from_slice(x);
        let h = fd_eps * x[j].abs().max(1e-5);
        x_pert[j] += h;
        m.deriv(0.0, &x_pert, &mut f_pert);
        for i in 0..n {
            jac[(i, j)] = (f_pert[i] - fx[i]) / h;
        }
    }
    jac
}

/// Refill `pattern` at `x` with `colouring`, as the polish does, and
/// compare it with the per-column dense Jacobian there: every pattern
/// entry must match bit for bit. Returns the largest dense entry outside
/// the pattern relative to the largest overall.
fn refill_against_dense<M: MeanFieldModel>(
    name: &str,
    m: &M,
    pattern: &SparseJacobian,
    colouring: &Colouring,
    x: &[f64],
) -> f64 {
    let fd_eps = NewtonOptions::default().fd_eps;
    let mut fx = vec![0.0; x.len()];
    m.deriv(0.0, x, &mut fx);
    let dense = dense_jacobian(m, x, &fx, fd_eps);
    let mut coloured = pattern.clone();
    coloured.refill(|v, out| m.deriv(0.0, v, out), x, &fx, fd_eps, colouring);
    let mut in_pattern = DenseMatrix::zeros(x.len());
    for (i, j, v) in coloured.entries() {
        in_pattern[(i, j)] = 1.0;
        assert_eq!(
            v.to_bits(),
            dense[(i, j)].to_bits(),
            "{name} (dim {}): entry ({i}, {j}) coloured {v} vs dense {}",
            x.len(),
            dense[(i, j)],
        );
    }
    let (mut outside, mut scale) = (0.0_f64, 0.0_f64);
    for i in 0..x.len() {
        for j in 0..x.len() {
            scale = scale.max(dense[(i, j)].abs());
            if in_pattern[(i, j)] == 0.0 {
                outside = outside.max(dense[(i, j)].abs());
            }
        }
    }
    outside / scale
}

#[test]
fn coloured_jacobian_equals_the_dense_one_for_every_preset() {
    let fd_eps = NewtonOptions::default().fd_eps;
    for p in ModelRegistry::standard().presets() {
        let model = p.spec.mean_field().unwrap();
        for levels in [24, 60] {
            // Some models keep a floor above these (Erlang stages need
            // several tasks' worth of stages).
            let m = model.with_truncation(levels);
            let a = interior_state(&m, 1);
            let mut fa = vec![0.0; a.len()];
            m.deriv(0.0, &a, &mut fa);
            let probed = SparseJacobian::probe(|v, out| m.deriv(0.0, v, out), &a, &fa, fd_eps);
            let colouring = probed.colour(BorderedBanded::analyse(&probed).border());
            // At the probe point nothing lies outside the pattern.
            assert_eq!(
                refill_against_dense(p.name, &m, &probed, &colouring, &a),
                0.0,
                "{}",
                p.name
            );
            // At a second point, where the polish reuses the pattern, only
            // rounding noise may: rebalance's telescoping prefix sums move
            // by an ulp or so under perturbations they cancel exactly.
            let b = interior_state(&m, 2);
            let outside = refill_against_dense(p.name, &m, &probed, &colouring, &b);
            assert!(
                outside < 1e-8,
                "{}: entry {outside:e} outside the pattern",
                p.name
            );
        }
    }
}

/// A solve's pilot pass at `m`: pseudo-transient continuation from
/// [`continuation_start`], then the Newton polish. Returns the polished
/// state and the Jacobian structure the continuation probed at its
/// start.
fn pilot<M: MeanFieldModel>(m: &M) -> (Vec<f64>, JacobianStructure) {
    let mut x = continuation_start(m);
    let mut structure = None;
    let f = |v: &[f64], out: &mut [f64]| m.deriv(0.0, v, out);
    let opts = NewtonOptions::default();
    pseudo_transient(f, &mut x, &opts, &mut structure, &mut NullRecorder)
        .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
    newton_solve_from(f, &mut x, &opts, &mut structure)
        .unwrap_or_else(|e| panic!("{}: {e}", m.name()));
    (x, structure.expect("the continuation probed"))
}

/// The pilot pass the solver ran before the continuation: integrate
/// from empty in chunks of 50 time units until a Newton polish
/// converges. Returns the polished state and the Jacobian structure the
/// polish probed.
fn integrated_pilot<M: MeanFieldModel>(m: &M) -> (Vec<f64>, JacobianStructure) {
    let mut y = m.empty_state();
    let mut dp = DormandPrince45::new(AdaptiveOptions::default());
    for chunk in 0..40 {
        let t = 50.0 * chunk as f64;
        dp.integrate(m, t, t + 50.0, &mut y).unwrap();
        let mut x = y.clone();
        let mut structure = None;
        let f = |v: &[f64], out: &mut [f64]| m.deriv(0.0, v, out);
        if newton_solve_from(f, &mut x, &NewtonOptions::default(), &mut structure).is_ok() {
            return (x, structure.expect("the polish probed"));
        }
    }
    panic!("{}: no polish within 2000 time units", m.name());
}

#[test]
fn extended_jacobian_equals_the_dense_one_for_every_preset() {
    for p in ModelRegistry::standard().presets() {
        let model = p.spec.mean_field().unwrap();
        // The pilot floor: 32 levels, or the model's structural minimum.
        // Its structure probed at the continuation's start, and probed
        // after integrating from empty.
        let pilot_model = model.with_truncation(32);
        for (probe, (fixed, probed)) in [
            ("continuation start", pilot(&pilot_model)),
            ("after integration", integrated_pilot(&pilot_model)),
        ] {
            for levels in [120, 400] {
                let m = model.with_truncation(levels);
                let blocks = m.block_layout();
                let extended = probed.extend(blocks, blocks.levels(m.dim()));
                // The warm start a grown pass polishes from (the pilot's
                // fixed point, new levels empty) and an interior state.
                for (at, x) in [
                    ("warm start", m.embed_state(&fixed)),
                    ("interior", interior_state(&m, 3)),
                ] {
                    let pattern = extended.jacobian();
                    let outside =
                        refill_against_dense(p.name, &m, pattern, extended.colouring(), &x);
                    assert!(
                        outside < 1e-8,
                        "{} probed at the {probe}, at {levels} levels, {at}: \
                         entry {outside:e} outside the pattern",
                        p.name
                    );
                }
            }
        }
    }
}

#[test]
fn every_preset_at_lambda_0_5_polishes_to_the_rounding_floor() {
    // Seven of these solves end on their pilot pass, whose polish stops
    // once the residual is inside the Newton tolerance (1e-13).
    for p in ModelRegistry::standard().presets() {
        let spec = ModelSpec::parse(&format!("{},lambda=0.5", p.name)).unwrap();
        let fp = spec.fixed_point().unwrap();
        assert!(
            fp.residual <= 1e-14,
            "{spec}: residual {:e} at truncation {}",
            fp.residual,
            fp.truncation
        );
    }
}

fn assert_polished(spec: &ModelSpec) {
    let fp = spec.fixed_point().unwrap_or_else(|e| panic!("{spec}: {e}"));
    assert!(
        fp.polished,
        "{spec}: not polished (truncation {})",
        fp.truncation
    );
    assert!(
        fp.residual <= 1e-12,
        "{spec}: residual {} at truncation {}",
        fp.residual,
        fp.truncation
    );
}

#[test]
fn every_preset_polishes_at_its_pinned_lambda() {
    for p in ModelRegistry::standard().presets() {
        assert_polished(&p.spec);
    }
}

#[test]
fn every_preset_polishes_at_lambda_0_9_and_0_95() {
    for p in ModelRegistry::standard().presets() {
        for lambda in [0.9, 0.95] {
            assert_polished(&ModelSpec::parse(&format!("{},lambda={lambda}", p.name)).unwrap());
        }
    }
}

#[test]
fn every_preset_polishes_at_lambda_0_99() {
    // Rebalancing's Jacobian is dense; it polishes here because the
    // solver sizes its truncation by the fast tail (~55 levels).
    for p in ModelRegistry::standard().presets() {
        assert_polished(&ModelSpec::parse(&format!("{},lambda=0.99", p.name)).unwrap());
    }
}

#[test]
fn no_steal_at_lambda_0_99_is_mm1() {
    let fp = ModelSpec::parse("no-steal,lambda=0.99")
        .unwrap()
        .fixed_point()
        .unwrap();
    assert!(fp.polished);
    let exact = 1.0 / (1.0 - 0.99);
    let rel = (fp.mean_time_in_system - exact).abs() / exact;
    assert!(
        rel < 1e-9,
        "W = {} vs {exact} (rel {rel:e})",
        fp.mean_time_in_system
    );
}

#[test]
fn simple_ws_at_lambda_0_99_matches_the_closed_form() {
    let fp = ModelSpec::parse("simple-ws,lambda=0.99")
        .unwrap()
        .fixed_point()
        .unwrap();
    assert!(fp.polished);
    let exact = SimpleWs::new(0.99).unwrap().closed_form_mean_time();
    let rel = (fp.mean_time_in_system - exact).abs() / exact;
    assert!(
        rel < 1e-9,
        "W = {} vs {exact} (rel {rel:e})",
        fp.mean_time_in_system
    );
}

#[test]
fn dense_cap_bounds_the_border_not_the_dimension() {
    // No-steal is tridiagonal: no dense part at all, so even a cap of 1
    // lets a 3000-level system polish.
    let m = NoSteal::new(0.99).unwrap();
    assert!(m.dim() > 3000);
    let opts = FixedPointOptions {
        newton: NewtonOptions {
            max_dense_dim: 1,
            ..NewtonOptions::default()
        },
        ..FixedPointOptions::default()
    };
    assert!(solve(&m, &opts).unwrap().polished);
    // Simple WS carries two dense columns (s₁ and s₂): a cap of 1 leaves
    // it to integration.
    let m = SimpleWs::new(0.7).unwrap();
    assert!(!solve(&m, &opts).unwrap().polished);
}

//! The pilot's pseudo-transient continuation on the registry: where it
//! starts, how many steps it takes, and what a solve's trace records.

use loadsteal_core::fixed_point::{continuation_start, solve_traced, FixedPointOptions};
use loadsteal_core::{MeanFieldModel, ModelRegistry, ModelSpec};
use loadsteal_obs::{CountingRecorder, Event, Recorder};
use loadsteal_ode::OdeSystem;

#[test]
fn every_preset_reaches_the_hand_off_in_few_steps() {
    // Every step the solve records is a continuation step: a fallback
    // integration would add hundreds of Dormand–Prince steps. One step
    // is rejected in all 48 solves: hyper-service at λ = 0.99 tries
    // δ ≈ 70, which raises ‖F‖∞ by 1.27×, and hands off after ten
    // accepted steps instead.
    let mut rejected = 0;
    for p in ModelRegistry::standard().presets() {
        for lambda in [0.5, 0.9, 0.99] {
            let spec = ModelSpec::parse(&format!("{},lambda={lambda}", p.name)).unwrap();
            let model = spec.mean_field().unwrap();
            let mut rec = CountingRecorder::new();
            let fp = solve_traced(&model, &FixedPointOptions::default(), &mut rec).unwrap();
            let c = rec.counts();
            assert!(fp.polished, "{spec}");
            let steps = c.solver_accepted + c.solver_rejected;
            assert!((1..=14).contains(&steps), "{spec}: {c:?}");
            assert_eq!(c.solver_steady, c.solver_accepted, "{spec}");
            assert_eq!(c.solver_done, 1, "{spec}");
            rejected += c.solver_rejected;
        }
    }
    assert!(rejected <= 1, "{rejected} steps rejected");
}

#[test]
fn erlang_stage_counts_past_the_presets_hand_off_in_few_steps() {
    // With the start's levels at 2^−l, the probe lost most of s₁'s
    // column from 26 stages on, and the continuation crawled or gave up.
    for c in [26, 40, 75] {
        let spec = ModelSpec::parse(&format!("lambda=0.9,service=erlang:{c}")).unwrap();
        let model = spec.mean_field().unwrap();
        let mut rec = CountingRecorder::new();
        let fp = solve_traced(&model, &FixedPointOptions::default(), &mut rec).unwrap();
        let c = rec.counts();
        assert!(fp.polished, "{spec}");
        assert!(c.solver_accepted + c.solver_rejected <= 14, "{spec}: {c:?}");
    }
}

#[test]
fn a_failed_grown_polish_integrates_briefly_before_it_polishes_again() {
    // This spec's grown pass fails both its polishes and falls back to
    // integration. Polishing after 50 time units takes ~1,200 steps;
    // integrating to steady state first took ~40,000.
    let spec = ModelSpec::parse("lambda=0.95,policy=steal,T=5,service=erlang:30").unwrap();
    let model = spec.mean_field().unwrap();
    let mut rec = CountingRecorder::new();
    let fp = solve_traced(&model, &FixedPointOptions::default(), &mut rec).unwrap();
    assert!(fp.polished);
    let c = rec.counts();
    assert!(c.solver_accepted < 10_000, "{c:?}");
}

/// Every event it is given.
#[derive(Default)]
struct Events(Vec<Event>);

impl Recorder for Events {
    fn record(&mut self, ev: &Event) {
        self.0.push(*ev);
    }
}

#[test]
fn a_solve_ends_with_one_summary_of_what_it_returns() {
    let model = ModelSpec::parse("transfer,lambda=0.9")
        .unwrap()
        .mean_field()
        .unwrap();
    let mut events = Events::default();
    let fp = solve_traced(&model, &FixedPointOptions::default(), &mut events).unwrap();
    let Some(&Event::SolverDone {
        accepted,
        rejected,
        min_h,
        max_h,
        converged,
        residual,
        ..
    }) = events.0.last()
    else {
        panic!("the last event is not a summary: {:?}", events.0.last());
    };
    assert!(converged);
    assert_eq!(residual, fp.residual);
    let steps: Vec<(f64, f64, f64)> = events
        .0
        .iter()
        .filter_map(|e| match *e {
            Event::SolverStep {
                accepted: true,
                t,
                h,
                err_norm,
            } => Some((t, h, err_norm)),
            _ => None,
        })
        .collect();
    assert_eq!((steps.len() as u64, rejected), (accepted, 0));
    // Pseudo-time: each step starts where the last one ended, the first
    // with δ = 1, and every accepted step lowers the residual.
    assert_eq!(steps[0].0, 0.0);
    assert_eq!(min_h, 1.0);
    for w in steps.windows(2) {
        assert_eq!(w[1].0, w[0].0 + w[0].1);
        assert!(w[1].1 >= w[0].1);
    }
    assert!(steps.iter().all(|s| s.2 <= 1.0));
    assert_eq!(max_h, steps.last().unwrap().1);
}

#[test]
fn the_start_is_nonzero_and_normal_at_every_pilot() {
    let presets = ModelRegistry::standard();
    let specs = presets
        .presets()
        .iter()
        .map(|p| p.spec.clone())
        // The largest Erlang-stage pilot the grammar admits: 4c = 30,000
        // stage levels, where 2^−l would be subnormal past l ≈ 1,022.
        .chain([ModelSpec::parse("lambda=0.9,service=erlang:7500").unwrap()]);
    for spec in specs {
        let m = spec.mean_field().unwrap().with_truncation(32);
        let y = continuation_start(&m);
        assert_eq!(y.len(), m.dim(), "{spec}");
        assert!(y.iter().all(|v| v.is_normal() && *v > 0.0), "{spec}");
    }
}

/// Independent levels, each flowing from near 0 to the root
/// `y* ≈ −1.7693` of `y³ − 2y + 2` while `‖F‖∞` first rises from 2 to
/// 3.09: a continuation that accepts only steps that do not raise it
/// cannot follow that flow.
#[derive(Debug, Clone)]
struct Uphill {
    levels: usize,
}

impl OdeSystem for Uphill {
    fn dim(&self) -> usize {
        self.levels
    }

    fn deriv(&self, _t: f64, y: &[f64], dy: &mut [f64]) {
        for (d, &v) in dy.iter_mut().zip(y) {
            *d = -(v * v * v - 2.0 * v + 2.0);
        }
    }
}

impl MeanFieldModel for Uphill {
    fn name(&self) -> String {
        "uphill".into()
    }

    fn lambda(&self) -> f64 {
        0.5
    }

    fn truncation(&self) -> usize {
        self.levels
    }

    fn with_truncation(&self, levels: usize) -> Self {
        Self { levels }
    }
}

#[test]
fn a_failed_continuation_falls_back_to_integration_then_polishes() {
    let mut events = Events::default();
    let fp = solve_traced(
        &Uphill { levels: 4 },
        &FixedPointOptions::default(),
        &mut events,
    )
    .unwrap();
    assert!(fp.polished);
    assert!(fp.residual < 1e-13, "residual {:e}", fp.residual);
    let root = -1.769_292_354_238_631;
    assert!(
        fp.state.iter().all(|v| (v - root).abs() < 1e-12),
        "{:?}",
        fp.state
    );
    // The continuation gives up after 20 halvings of δ in a row, none
    // of which lowers `‖F‖∞`; the integration then takes steps of its
    // own.
    let steps: Vec<f64> = events
        .0
        .iter()
        .filter_map(|e| match *e {
            Event::SolverStep { err_norm, .. } => Some(err_norm),
            _ => None,
        })
        .collect();
    let continuation = steps.iter().take_while(|&&r| r >= 1.0).count();
    assert!(continuation <= 25, "{steps:?}");
    assert!(steps.len() > continuation + 10, "{} steps", steps.len());
    let summaries: Vec<&Event> = events
        .0
        .iter()
        .filter(|e| matches!(e, Event::SolverDone { .. }))
        .collect();
    assert_eq!(summaries.len(), 1);
    assert!(matches!(
        summaries[0],
        Event::SolverDone {
            converged: true,
            ..
        }
    ));
}

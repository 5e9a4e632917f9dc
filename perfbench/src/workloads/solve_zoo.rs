//! `solve-zoo`: `ModelSpec::parse("<preset>,lambda=0.9")` →
//! `fixed_point()` for every `ModelRegistry::standard()` preset, one at
//! a time. No simulation runs.
//!
//! This is the mean-field side of `solve`, `models`, `report` and every
//! verify layer, and it uses the ODE layer two ways: most presets solve
//! at truncation 306 and spend most of their time in the Newton polish
//! (finite-difference Jacobian plus dense LU), while the four whose
//! dimension exceeds the polish limit spend nearly all of it in DOPRI5
//! steps. A Jacobian change shows on the first group and not the second.

use std::cell::Cell;
use std::time::Instant;

use loadsteal_core::models::SimpleWs;
use loadsteal_core::{FixedPoint, FixedPointOptions, MeanFieldModel, ModelRegistry, ModelSpec};
use loadsteal_ode::solver::SteadyStateOptions;
use loadsteal_ode::{newton_solve, DormandPrince45, NewtonOptions, OdeSystem};

use super::{ensure, BatchOut, Checks, Workload};
use crate::calib;
use crate::measure::{median, Metric};
use crate::span::{Span, Tracer};

const LAMBDA: f64 = 0.9;
/// `busy_is_lambda` tolerance: the unpolished presets land 1e-9…3e-9
/// off λ.
const BUSY_TOL: f64 = 1e-8;
/// Simple-WS tails against the closed form (7e-15 measured).
const CLOSED_FORM_TOL: f64 = 1e-12;

struct Preset {
    name: &'static str,
    spec: ModelSpec,
}

pub struct SolveZoo {
    presets: Vec<Preset>,
    closed_form: Vec<f64>,
    first: Option<Vec<Vec<u64>>>,
    solved: Vec<Option<FixedPoint>>,
    solve_ms: Vec<Vec<f64>>,
}

fn fp_fingerprint(fp: &FixedPoint) -> Vec<u64> {
    let mut v = vec![
        fp.truncation as u64,
        u64::from(fp.polished),
        fp.residual.to_bits(),
        fp.mean_time_in_system.to_bits(),
    ];
    v.extend(fp.state.iter().map(|x| x.to_bits()));
    v
}

impl SolveZoo {
    pub fn setup() -> Result<Self, String> {
        let presets = ModelRegistry::standard()
            .presets()
            .iter()
            .map(|p| {
                Ok(Preset {
                    name: p.name,
                    spec: ModelSpec::parse(&format!("{},lambda={LAMBDA}", p.name))?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let closed_form = SimpleWs::new(LAMBDA)?.closed_form_tails().into_vec();
        // Warm-up: the cheapest preset.
        presets[0].spec.fixed_point()?;
        let n = presets.len();
        Ok(Self {
            presets,
            closed_form,
            first: None,
            solved: vec![None; n],
            solve_ms: vec![Vec::new(); n],
        })
    }

    fn check(&self, p: &Preset, fp: &FixedPoint, problems: &mut Vec<String>) {
        ensure(problems, fp.residual.is_finite(), || {
            format!("residual {} not finite", fp.residual)
        });
        let s1 = fp.task_tails.get(1).copied().unwrap_or(f64::NAN);
        if p.spec.busy_is_lambda() {
            ensure(problems, (s1 - LAMBDA).abs() <= BUSY_TOL, || {
                format!("s1 = {s1} is not λ = {LAMBDA}")
            });
        }
        if p.spec.dominates_no_steal() {
            let bound = 1.0 / (1.0 - LAMBDA);
            ensure(problems, fp.mean_time_in_system < bound, || {
                format!(
                    "W = {} not below the no-steal 1/(1-λ) = {bound}",
                    fp.mean_time_in_system
                )
            });
        }
        if p.name == "simple-ws" {
            let off = fp.task_tails[1..]
                .iter()
                .zip(&self.closed_form)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            ensure(problems, off <= CLOSED_FORM_TOL, || {
                format!("tails off the closed form by {off:e}")
            });
        }
    }
}

impl Workload for SolveZoo {
    fn batch(&mut self, tracer: &Tracer, checks: &mut Checks) -> BatchOut {
        let mut items_ms = Vec::with_capacity(self.presets.len());
        let mut kernel_s = Vec::with_capacity(self.presets.len());
        let mut prints = Vec::with_capacity(self.presets.len());
        for (i, p) in self.presets.iter().enumerate() {
            let t = Instant::now();
            let fp = tracer.span("core", "fixed_point", || p.spec.fixed_point());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            items_ms.push(ms);
            self.solve_ms[i].push(ms);
            let mut problems = Vec::new();
            match &fp {
                Ok(fp) => {
                    self.check(p, fp, &mut problems);
                    prints.push(fp_fingerprint(fp));
                }
                Err(e) => {
                    problems.push(format!("solve failed: {e}"));
                    prints.push(Vec::new());
                }
            }
            if let Some(first) = &self.first {
                ensure(&mut problems, prints[i] == first[i], || {
                    "differs from the first batch's solve".into()
                });
            }
            checks.item(|| p.name.to_string(), &problems);
            if self.solved[i].is_none() {
                self.solved[i] = fp.ok();
            }
            // A batch lasts seconds, longer than the host's fast and slow
            // states, so each solve gets calibration slices of its own.
            kernel_s.push(calib::time_slice(1));
        }
        self.first.get_or_insert(prints);
        BatchOut {
            work: items_ms.len() as u64,
            items_ms,
            kernel_s,
        }
    }

    fn layer_metrics(&self, _batch_spans: &[Span], _traced: usize) -> Vec<Metric> {
        let mut m: Vec<Metric> = self
            .presets
            .iter()
            .zip(&self.solve_ms)
            .map(|(p, ms)| Metric::new(format!("core.solve_ms.{}", p.name), median(ms), "ms"))
            .collect();
        let solved: Vec<&FixedPoint> = self.solved.iter().flatten().collect();
        let polished = solved.iter().filter(|f| f.polished).count();
        m.push(Metric::new(
            "core.truncation_max",
            solved.iter().map(|f| f.truncation).max().unwrap_or(0) as f64,
            "count",
        ));
        m.push(Metric::new(
            "core.polished_frac",
            polished as f64 / self.presets.len() as f64,
            "ratio",
        ));
        m
    }

    /// The ODE layer's share, timed from outside. Presets the solver
    /// polished (the Newton group) integrate for the solver's first
    /// chunk (50 time units) and then run `newton_solve` from there;
    /// the rest (the integration group) integrate to steady state at
    /// their solved truncation. Both count right-hand-side calls.
    fn breakdown(&mut self) -> Vec<Metric> {
        let opts = FixedPointOptions::default();
        let (mut int_ms, mut accepted, mut rejected, mut int_evals) = (0.0, 0, 0, 0);
        let (mut newton_ms, mut iters, mut newton_evals, mut converged) = (0.0, 0, 0, 0);
        for (p, fp) in self.presets.iter().zip(&self.solved) {
            let (Some(fp), Ok(model)) = (fp, p.spec.mean_field()) else {
                continue;
            };
            let model = model.with_truncation(fp.truncation);
            let counted = Counted {
                inner: &model,
                calls: Cell::new(0),
            };
            let mut y = model.empty_state();
            let mut dp = DormandPrince45::new(opts.adaptive);
            let steady = if fp.polished {
                SteadyStateOptions {
                    t_max: 50.0,
                    ..opts.steady
                }
            } else {
                opts.steady
            };
            let t = Instant::now();
            let report = dp.integrate_to_steady(&counted, 0.0, &mut y, &steady);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if report.is_err() || !fp.polished {
                let stats = dp.last_run_stats();
                int_ms += ms;
                accepted += stats.accepted;
                rejected += stats.rejected;
                int_evals += counted.calls.get();
                continue;
            }
            let newton_opts = NewtonOptions {
                max_iters: opts.newton.max_iters.min(25),
                ..opts.newton
            };
            let mut evals = 0u64;
            let t = Instant::now();
            let r = newton_solve(
                |x, out| {
                    evals += 1;
                    model.deriv(0.0, x, out)
                },
                &mut y,
                &newton_opts,
            );
            newton_ms += t.elapsed().as_secs_f64() * 1e3;
            newton_evals += evals;
            match r {
                Ok(rep) => {
                    iters += rep.iterations as u64;
                    converged += 1;
                }
                Err(_) => iters += newton_opts.max_iters as u64,
            }
        }
        vec![
            Metric::new("ode.integrate_ms", int_ms, "ms"),
            Metric::new("ode.steps_accepted", accepted as f64, "count"),
            Metric::new("ode.steps_rejected", rejected as f64, "count"),
            Metric::new("ode.deriv_evals", int_evals as f64, "count"),
            Metric::new("ode.newton_ms", newton_ms, "ms"),
            Metric::new("ode.newton_iters", iters as f64, "count"),
            Metric::new("ode.newton_deriv_evals", newton_evals as f64, "count"),
            Metric::new("ode.newton_converged", converged as f64, "count"),
        ]
    }
}

/// An `OdeSystem` that counts right-hand-side evaluations.
struct Counted<'a, S> {
    inner: &'a S,
    calls: Cell<u64>,
}

impl<S: OdeSystem> OdeSystem for Counted<'_, S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn deriv(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        self.calls.set(self.calls.get() + 1);
        self.inner.deriv(t, y, dy);
    }

    fn project(&self, y: &mut [f64]) {
        self.inner.project(y);
    }
}

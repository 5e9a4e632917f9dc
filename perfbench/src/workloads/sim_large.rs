//! `sim-large`: simple WS at n = 65536, λ = 0.9, from the empty state
//! over a short horizon, one run at a time.
//!
//! About 2n = 131k events are pending at once and the task arena spans
//! several MB, so the calendar queue and the SoA arrays no longer fit
//! in L2. Sampling is a small share of the per-event cost here: a
//! sampling change should show on `sim-paper` and not here, an event-
//! list or layout change the reverse.

use std::time::Instant;

use loadsteal_core::models::SimpleWs;
use loadsteal_core::MeanFieldModel;
use loadsteal_ode::{AdaptiveOptions, DormandPrince45};
use loadsteal_sim::{run, SimConfig, SimResult};

use super::{check_counters, derive_seed, ensure, fingerprint, BatchOut, Checks, Workload};
use crate::measure::Metric;
use crate::span::{Span, Tracer};

const N: usize = 65_536;
const LAMBDA: f64 = 0.9;
const HORIZON: f64 = 8.0;
/// Tail levels ŝ₁..ŝ₃ compared with the mean-field trajectory.
const LEVELS: usize = 3;
/// Sup-norm tolerance on |ŝᵢ(T) − sᵢ(T)|, i = 1..3: mean + 6 sd over
/// `calibrate`'s sweep of seeds 1..=60 (0.0097; maximum seen 0.0053).
pub const TAIL_TOL: f64 = 0.01;

pub fn config() -> SimConfig {
    let mut cfg = SimConfig::paper_default(N, LAMBDA);
    cfg.horizon = HORIZON;
    cfg.warmup = 0.0;
    cfg.snapshot_interval = Some(1.0);
    cfg
}

/// Mean-field tails s₁..s₃ at t = 1, 2, …, HORIZON, integrated from the
/// empty state. (A fixed-point comparison would be wrong here: the
/// system is still filling at t = HORIZON.)
pub fn reference_tails() -> Result<Vec<(f64, Vec<f64>)>, String> {
    let model = SimpleWs::new(LAMBDA)?;
    let mut y = model.empty_state();
    let mut dp = DormandPrince45::new(AdaptiveOptions::default());
    let mut out = Vec::new();
    let mut t = 0.0;
    while t < HORIZON {
        dp.integrate(&model, t, t + 1.0, &mut y)
            .map_err(|e| e.to_string())?;
        t += 1.0;
        out.push((t, model.task_tails(&y)[1..=LEVELS].to_vec()));
    }
    Ok(out)
}

/// Sup-norm distance between the run's last snapshot and the
/// trajectory at the same time.
pub fn tail_distance(r: &SimResult, reference: &[(f64, Vec<f64>)]) -> Option<f64> {
    let (t, tails) = r.snapshots.last()?;
    let (_, s) = reference.iter().find(|(rt, _)| rt == t)?;
    Some(
        (1..=LEVELS)
            .map(|i| (tails.get(i).copied().unwrap_or(0.0) - s[i - 1]).abs())
            .fold(0.0, f64::max),
    )
}

pub struct SimLarge {
    cfg: SimConfig,
    seed: u64,
    reference: Vec<(f64, Vec<f64>)>,
    /// The first batch's run; every later batch must repeat it.
    first: Option<SimResult>,
    ns_per_event: Vec<f64>,
    distance: f64,
}

impl SimLarge {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let cfg = config();
        let reference = reference_tails()?;
        // Warm-up: the same engine and sizes over a tenth of the horizon.
        let mut warm = cfg.clone();
        warm.horizon = HORIZON / 10.0;
        warm.snapshot_interval = None;
        std::hint::black_box(run(&warm, seed));
        Ok(Self {
            cfg,
            seed: derive_seed(seed, 0),
            reference,
            first: None,
            ns_per_event: Vec::new(),
            distance: f64::NAN,
        })
    }
}

impl Workload for SimLarge {
    fn batch(&mut self, tracer: &Tracer, checks: &mut Checks) -> BatchOut {
        let t = Instant::now();
        let r = tracer.span("sim", "run", || run(&self.cfg, self.seed));
        let ms = t.elapsed().as_secs_f64() * 1e3;

        let mut problems = Vec::new();
        check_counters(&r, &mut problems);
        let first = self.first.get_or_insert_with(|| r.clone());
        ensure(&mut problems, fingerprint(&r) == fingerprint(first), || {
            "differs from the first batch's run of the same seed".into()
        });
        match tail_distance(&r, &self.reference) {
            Some(d) => {
                self.distance = d;
                ensure(&mut problems, d <= TAIL_TOL, || {
                    format!(
                        "end-state tails off the ODE trajectory by {d:.4} (tolerance {TAIL_TOL})"
                    )
                });
            }
            None => problems.push("no snapshot on the reference grid".into()),
        }
        checks.item(|| format!("n={N} run"), &problems);
        self.ns_per_event
            .push(super::ns_per_event(std::slice::from_ref(&r)));
        BatchOut {
            items_ms: vec![ms],
            work: r.events_processed,
            kernel_s: Vec::new(),
        }
    }

    fn layer_metrics(&self, _batch_spans: &[Span], _traced: usize) -> Vec<Metric> {
        let first = self.first.as_slice();
        let mut m = super::sim_metrics(first, &self.ns_per_event);
        m.push(Metric::new("sim.tail_supnorm", self.distance, "ratio"));
        m
    }

    fn pending_events(&self) -> usize {
        2 * N
    }
}

//! Drive the pool with the paper's workload and record what really
//! happens.
//!
//! Each worker plays the role of one processor in the load-stealing
//! model: an open-loop driver submits a Poisson(λ) stream of tasks to
//! each worker's inbox, every task "serves" for an Exp(1) duration
//! (scaled by `tau` seconds per model time unit), and idle workers
//! probe one random victim per transition-to-empty
//! ([`StealMode::OnEmptyOnce`]). With a tracer attached the pool
//! emits `loadsteal.trace.v1` arrival/completion/steal events with
//! measured wall-clock timestamps mapped back to model time, so the
//! exact pipeline that analyzes simulator traces — `loadsteal report`,
//! the transient comparator, the verify harness — consumes *measured
//! executor* behavior unchanged.
//!
//! Timing discipline (the part that makes λ and μ land where they
//! were asked to):
//!
//! * the arrival schedule is pre-generated and driven by **absolute**
//!   deadlines from the pool epoch, so scheduling jitter never
//!   accumulates into rate drift;
//! * "service" is `thread::sleep`, which keeps a worker's task slot
//!   occupied without burning the CPU other workers need — the
//!   executor stays honest even when workers outnumber cores;
//! * `thread::sleep` only ever oversleeps, so a startup calibration
//!   measures the typical overshoot, sleeps short by that much, and
//!   spins the residual microseconds to the deadline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use loadsteal_obs::ShardSink;

use crate::pool::{Pool, PoolBuilder, PoolStats, StealMode};
use crate::rng::{splitmix64, Rng};

/// Workload parameters for one measured run.
#[derive(Debug, Clone)]
pub struct StealBenchConfig {
    /// Number of pool workers (model processors).
    pub workers: usize,
    /// Per-worker arrival rate in tasks per model time unit (the
    /// paper's λ; service rate is fixed at μ = 1).
    pub lambda: f64,
    /// How long to drive arrivals, in model time units.
    pub horizon: f64,
    /// Seconds of wall clock per model time unit. The default of 4 ms
    /// keeps scheduler jitter (tens of µs) below 2% of a mean service
    /// time while a 400-unit run still fits in ~1.6 s.
    pub tau: f64,
    /// Seed for the arrival/service streams and victim selection.
    pub seed: u64,
}

impl Default for StealBenchConfig {
    fn default() -> Self {
        StealBenchConfig {
            workers: 16,
            lambda: 0.9,
            horizon: 400.0,
            tau: 0.004,
            seed: 0x5eed,
        }
    }
}

impl StealBenchConfig {
    /// Validate ranges (λ ∈ (0,1) for a stable system, sane τ, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        // NaN fails every range test below (is_finite guards), so a
        // poisoned config cannot slip through as "in range".
        if !self.lambda.is_finite() || self.lambda <= 0.0 || self.lambda >= 1.0 {
            return Err(format!(
                "lambda must be in (0, 1) for a stable system, got {}",
                self.lambda
            ));
        }
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err("horizon must be positive".into());
        }
        if !self.tau.is_finite() || self.tau < 0.0005 {
            return Err(format!(
                "tau must be at least 0.5 ms (OS timer resolution), got {} s",
                self.tau
            ));
        }
        Ok(())
    }

    /// Expected number of task arrivals over the horizon.
    pub fn expected_arrivals(&self) -> f64 {
        self.workers as f64 * self.lambda * self.horizon
    }
}

/// What a measured run produced (the trace itself goes to the
/// recorder).
#[derive(Debug, Clone, Copy)]
pub struct StealBenchOutcome {
    /// Pool counters at shutdown.
    pub stats: PoolStats,
    /// Tasks actually submitted by the driver.
    pub submitted: u64,
    /// Tasks completed before the horizon cut execution off.
    pub completed: u64,
    /// Wall-clock duration of the driven phase, seconds.
    pub wall_secs: f64,
    /// Calibrated `thread::sleep` overshoot, seconds.
    pub sleep_overshoot: f64,
}

impl StealBenchOutcome {
    /// Fraction of steal probes that brought back a task.
    pub fn steal_success_rate(&self) -> f64 {
        if self.stats.steal_attempts == 0 {
            0.0
        } else {
            self.stats.steal_successes as f64 / self.stats.steal_attempts as f64
        }
    }
}

/// One scheduled arrival.
struct Arrival {
    /// Model time of submission.
    t: f64,
    /// Destination worker.
    worker: usize,
    /// Exp(1) service requirement, model time units.
    service: f64,
}

/// Measure how far `thread::sleep` typically overshoots, so service
/// sleeps can compensate. Returns a high quantile (sleeping *short* by
/// this much and spinning the residue hits deadlines within a few µs).
fn calibrate_sleep_overshoot() -> f64 {
    let probe = Duration::from_micros(500);
    let mut overshoots: Vec<f64> = (0..24)
        .map(|_| {
            let start = Instant::now();
            std::thread::sleep(probe);
            (start.elapsed() - probe).as_secs_f64()
        })
        .collect();
    overshoots.sort_by(f64::total_cmp);
    // p90, clamped to something sane in case the host is pathological.
    overshoots[21].clamp(0.0, 0.002)
}

/// Sleep until `deadline` with overshoot compensation plus a short
/// spin for the residue.
fn sleep_until(deadline: Instant, overshoot: f64) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = (deadline - now).as_secs_f64();
        if remaining > overshoot {
            std::thread::sleep(Duration::from_secs_f64(remaining - overshoot));
        } else {
            // Residue: spin out the final microseconds.
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
            return;
        }
    }
}

/// Pre-generate the merged arrival schedule: one Poisson(λ) stream per
/// worker, each with i.i.d. Exp(1) service draws, merged in time
/// order. Deterministic per seed.
fn schedule(cfg: &StealBenchConfig) -> Vec<Arrival> {
    let mut all = Vec::with_capacity(cfg.expected_arrivals() as usize + 64);
    for w in 0..cfg.workers {
        let mut st = cfg.seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut rng = Rng::new(splitmix64(&mut st));
        let mut t = rng.exp(cfg.lambda);
        while t < cfg.horizon {
            all.push(Arrival {
                t,
                worker: w,
                service: rng.exp(1.0),
            });
            t += rng.exp(cfg.lambda);
        }
    }
    all.sort_by(|a, b| a.t.total_cmp(&b.t));
    all
}

/// A measured steal-bench with its pool already built: construct,
/// [`drive`](StealBench::drive) the Poisson schedule, then
/// [`finish`](StealBench::finish) to join the workers and collect the
/// outcome. Between construction and finish, any thread may poll
/// [`pool`](StealBench::pool)`().worker_stats()` — the live view the
/// `loadsteal top` dashboard renders while the workload runs.
pub struct StealBench {
    cfg: StealBenchConfig,
    plan: Vec<Arrival>,
    overshoot: f64,
    pool: Pool,
    submitted: AtomicU64,
    wall_secs: Mutex<f64>,
}

impl StealBench {
    /// Build the bench around a sharded sink: workers trace into their
    /// own shards, the driver into shard `workers` — no global sink
    /// lock on the hot path. `sink` needs at least `workers + 1`
    /// shards (see [`PoolBuilder::tracer`]).
    pub fn new(cfg: &StealBenchConfig, sink: Arc<dyn ShardSink>) -> Result<Self, String> {
        Self::build(cfg, |b| b.tracer(sink, cfg.tau))
    }

    /// Build the bench without any tracer: the pool emits nothing, so
    /// the workload runs at full speed while an observer polls
    /// [`pool`](Self::pool)`().worker_stats()` — what `loadsteal top`
    /// renders.
    pub fn new_untraced(cfg: &StealBenchConfig) -> Result<Self, String> {
        Self::build(cfg, |b| b)
    }

    fn build(
        cfg: &StealBenchConfig,
        attach: impl FnOnce(PoolBuilder) -> PoolBuilder,
    ) -> Result<Self, String> {
        cfg.validate()?;
        let plan = schedule(cfg);
        let overshoot = calibrate_sleep_overshoot();
        let builder = Pool::builder()
            .num_threads(cfg.workers)
            .steal_mode(StealMode::OnEmptyOnce)
            .seed(cfg.seed ^ 0xD1FF_57EA);
        let pool = attach(builder).build();
        Ok(StealBench {
            cfg: cfg.clone(),
            plan,
            overshoot,
            pool,
            submitted: AtomicU64::new(0),
            wall_secs: Mutex::new(0.0),
        })
    }

    /// The pool under measurement (poll `worker_stats()` from here).
    pub fn pool(&self) -> &Pool {
        &self.pool
    }

    /// Arrivals submitted so far (grows while [`drive`](Self::drive)
    /// runs — the dashboard's λ-estimate numerator).
    pub fn submitted_so_far(&self) -> u64 {
        self.submitted.load(Ordering::SeqCst)
    }

    /// Play the pre-generated schedule against the pool: submit each
    /// arrival at its absolute deadline, then sleep out the horizon.
    /// Call exactly once, from any one thread.
    pub fn drive(&self) {
        let epoch = self.pool.epoch();
        for a in &self.plan {
            sleep_until(
                epoch + Duration::from_secs_f64(a.t * self.cfg.tau),
                self.overshoot,
            );
            let service_wall = Duration::from_secs_f64(a.service * self.cfg.tau);
            let overshoot = self.overshoot;
            self.pool.submit_to(a.worker, move || {
                let deadline = Instant::now() + service_wall;
                sleep_until(deadline, overshoot);
            });
            self.submitted.fetch_add(1, Ordering::SeqCst);
        }
        sleep_until(
            epoch + Duration::from_secs_f64(self.cfg.horizon * self.cfg.tau),
            self.overshoot,
        );
        *self.wall_secs.lock().unwrap() = epoch.elapsed().as_secs_f64();
    }

    /// Join the workers (in-flight tasks finish and are traced;
    /// undelivered backlog is discarded) and collect the outcome.
    pub fn finish(self) -> StealBenchOutcome {
        self.finish_detailed().0
    }

    /// [`finish`](Self::finish), also returning the final per-worker
    /// stats (read after the workers joined, so the counters are
    /// settled — the `exec.worker.<i>.*` metric source).
    pub fn finish_detailed(self) -> (StealBenchOutcome, Vec<crate::pool::WorkerStats>) {
        let submitted = self.submitted.load(Ordering::SeqCst);
        let wall_secs = *self.wall_secs.lock().unwrap();
        let overshoot = self.overshoot;
        let (stats, per_worker) = self.pool.shutdown_detailed();
        (
            StealBenchOutcome {
                stats,
                submitted,
                completed: stats.executed,
                wall_secs,
                sleep_overshoot: overshoot,
            },
            per_worker,
        )
    }
}

/// Run one measured steal-bench: build an [`StealMode::OnEmptyOnce`]
/// pool tracing into `sink`, drive the Poisson schedule against it,
/// and return the counters. The sink's drain recovers the full event
/// stream, monotone in model time `t`.
pub fn run_once(
    cfg: &StealBenchConfig,
    sink: Arc<dyn ShardSink>,
) -> Result<StealBenchOutcome, String> {
    let bench = StealBench::new(cfg, sink)?;
    bench.drive();
    Ok(bench.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StealBenchConfig {
        StealBenchConfig {
            workers: 4,
            lambda: 0.7,
            horizon: 40.0,
            tau: 0.002,
            seed: 11,
        }
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = tiny();
        c.lambda = 1.2;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.workers = 0;
        assert!(c.validate().is_err());
        let mut c = tiny();
        c.tau = 1e-5;
        assert!(c.validate().is_err());
        assert!(StealBenchConfig::default().validate().is_ok());
    }

    #[test]
    fn schedule_is_deterministic_and_roughly_poisson() {
        let cfg = tiny();
        let a = schedule(&cfg);
        let b = schedule(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.t, y.t);
            assert_eq!(x.worker, y.worker);
            assert_eq!(x.service, y.service);
        }
        // Count within 5 sigma of the Poisson mean.
        let mean = cfg.expected_arrivals();
        assert!(
            (a.len() as f64 - mean).abs() < 5.0 * mean.sqrt() + 5.0,
            "got {} arrivals, expected ≈{mean}",
            a.len()
        );
        // Sorted by time, workers covered.
        assert!(a.windows(2).all(|w| w[0].t <= w[1].t));
    }
}

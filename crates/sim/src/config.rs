//! Simulation configuration: the dynamic work-stealing system of the
//! paper with every variant it analyzes.

use loadsteal_queueing::ServiceDistribution;

/// How an idle (or nearly idle) processor acquires work.
#[derive(Debug, Clone, PartialEq)]
pub enum StealPolicy {
    /// No stealing: `n` independent queues (the paper's eq. (1) baseline).
    None,
    /// Steal when the queue empties (Sections 2.2–2.3, 3.3, 3.4).
    ///
    /// The thief samples `choices` victims independently and uniformly at
    /// random, picks the most loaded, and — if that victim holds at least
    /// `threshold` tasks — takes `batch` tasks from the tail of its
    /// queue. The paper's simple WS algorithm is
    /// `threshold = 2, choices = 1, batch = 1`.
    OnEmpty {
        /// Minimum victim load `T ≥ 2` for a steal to happen.
        threshold: usize,
        /// Number of iid victim candidates `d ≥ 1` (Section 3.3).
        choices: usize,
        /// Tasks taken per successful steal, `k ≥ 1`, `2k ≤ T`
        /// (Section 3.4).
        batch: usize,
    },
    /// Preemptive stealing (Section 2.4): when a service completion
    /// leaves `j ≤ begin_at` tasks, attempt to steal one task from a
    /// victim with at least `j + rel_threshold` tasks.
    Preemptive {
        /// `B`: start stealing when the queue drops to this many tasks.
        begin_at: usize,
        /// `T`: required victim surplus over the thief's current load.
        rel_threshold: usize,
    },
    /// Repeated attempts (Section 2.5): empty processors retry failed
    /// steals at exponential rate `rate`; a victim must hold at least
    /// `threshold` tasks.
    Repeated {
        /// Retry rate `r > 0` per empty processor.
        rate: f64,
        /// Minimum victim load `T ≥ 2`.
        threshold: usize,
    },
    /// Pairwise rebalancing (Section 3.4, after Rudolph–Slivkin-Allalouf–
    /// Upfal): at rate `rate(i)` a processor with `i` tasks picks a
    /// uniform partner and the two equalize their loads (the initially
    /// larger keeps the ceiling).
    Rebalance {
        /// Rate at which a processor initiates a rebalance.
        rate: RebalanceRate,
    },
    /// Sender-initiated work *sharing* (the paper's Introduction foil):
    /// an arrival landing on a processor already holding at least
    /// `send_threshold` tasks probes one uniform target and is forwarded
    /// there if the target holds fewer than `recv_threshold` tasks.
    Share {
        /// Forward arrivals when the local queue is at least this long.
        send_threshold: usize,
        /// The probed target accepts if its queue is shorter than this.
        recv_threshold: usize,
    },
}

impl StealPolicy {
    /// The paper's simple WS policy (steal one task whenever a random
    /// victim has at least two).
    pub fn simple_ws() -> Self {
        Self::OnEmpty {
            threshold: 2,
            choices: 1,
            batch: 1,
        }
    }
}

/// Load-dependent rebalance initiation rate `r(i)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RebalanceRate {
    /// `r(i) = rate` for every processor regardless of load.
    Constant(f64),
    /// `r(i) = rate · i`: busier processors rebalance more often.
    PerTask(f64),
}

impl RebalanceRate {
    /// Evaluate `r(i)`.
    #[inline]
    pub fn rate(&self, load: usize) -> f64 {
        match *self {
            Self::Constant(r) => r,
            Self::PerTask(r) => r * load as f64,
        }
    }
}

/// Which future-event-list implementation orders the simulation's
/// timed events (the clocks that are not superposed into the engine's
/// one exponential clock).
///
/// Both engines share one core (state layout, RNG call sites, recorder
/// semantics) and one event total-order ([`crate::event::event_order`]:
/// time, then sequence number), so a given `(SimConfig, seed)` produces
/// a bit-identical trace under either choice. The calendar queue is the
/// default because its push/pop cost is O(1) amortized instead of the
/// heap's O(log m); the heap remains available as a differential-testing
/// oracle and a fallback for pathological event-time distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Binary min-heap future-event list (the original engine).
    Heap,
    /// Calendar-queue (timing-wheel) future-event list.
    #[default]
    Calendar,
}

/// Time for a stolen task to move from victim to thief (Section 3.2).
/// While a transfer is outstanding the thief does not steal again.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferTime {
    /// Transfer-duration distribution; the paper uses `Exp(rate r)`.
    pub dist: ServiceDistribution,
}

impl TransferTime {
    /// Exponential transfers with the given rate (paper's default form).
    pub fn exponential(rate: f64) -> Self {
        Self {
            dist: ServiceDistribution::Exponential { rate },
        }
    }
}

/// Processor speed profile (Section 3.5).
#[derive(Debug, Clone, PartialEq)]
pub enum SpeedProfile {
    /// All processors serve at rate 1.
    Homogeneous,
    /// Speed classes `(fraction, speed)`; fractions must sum to 1.
    /// Processor `p` belongs to the class covering index `p` when the
    /// fractions are laid out contiguously over `0..n`.
    Classes(Vec<(f64, f64)>),
}

impl SpeedProfile {
    /// Mean service capacity per processor: `Σ fraction × speed`
    /// (1 for the homogeneous profile). Stability of a horizon run
    /// requires `λ` strictly below this.
    pub fn mean_capacity(&self) -> f64 {
        match self {
            Self::Homogeneous => 1.0,
            Self::Classes(classes) => classes.iter().map(|&(f, s)| f * s).sum(),
        }
    }

    /// Speed of processor `p` out of `n`.
    pub fn speed_of(&self, p: usize, n: usize) -> f64 {
        match self {
            Self::Homogeneous => 1.0,
            Self::Classes(classes) => {
                let mut boundary = 0.0;
                for &(frac, speed) in classes {
                    boundary += frac;
                    if (p as f64) < boundary * n as f64 - 1e-9 || boundary >= 1.0 {
                        return speed;
                    }
                }
                classes.last().map_or(1.0, |c| c.1)
            }
        }
    }
}

/// Full configuration of one simulated system.
///
/// ```
/// use loadsteal_sim::{SimConfig, StealPolicy};
/// let mut cfg = SimConfig::paper_default(128, 0.9);
/// cfg.policy = StealPolicy::OnEmpty { threshold: 4, choices: 2, batch: 2 };
/// cfg.validate().unwrap();
/// // Inconsistent knobs are caught before a long run starts:
/// cfg.policy = StealPolicy::OnEmpty { threshold: 4, choices: 2, batch: 3 };
/// assert!(cfg.validate().is_err()); // 2k > T
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Number of processors `n`.
    pub n: usize,
    /// External Poisson arrival rate per processor (`λ` or `λ_ext`).
    pub lambda: f64,
    /// Internal arrival rate (`λ_int`): new tasks spawned by a processor
    /// while it has at least one task (Section 3.5). Usually 0.
    pub internal_lambda: f64,
    /// Service requirement distribution (mean 1 in the paper).
    pub service: ServiceDistribution,
    /// Inter-arrival distribution per processor. `None` means
    /// exponential with rate `lambda` (Poisson arrivals, the paper's
    /// base model); `Some(d)` must have mean `1/lambda` so Little's-law
    /// accounting stays consistent (e.g. Erlang stages approximating
    /// constant inter-arrival times, Section 3.1).
    pub arrival: Option<ServiceDistribution>,
    /// Stealing policy.
    pub policy: StealPolicy,
    /// Optional transfer delay for stolen tasks.
    pub transfer: Option<TransferTime>,
    /// Processor speed profile.
    pub speeds: SpeedProfile,
    /// Tasks pre-loaded on every processor at `t = 0` (static
    /// experiments; their arrival time is 0).
    pub initial_load: usize,
    /// Simulated time horizon.
    pub horizon: f64,
    /// Tasks completing before this time are not measured (the paper
    /// throws away the first 10% of each run).
    pub warmup: f64,
    /// Stop when the system has drained (no queued or in-flight tasks).
    /// Requires `lambda == 0`; used for makespan experiments.
    pub run_until_drained: bool,
    /// Record instantaneous occupancy tails every this many simulated
    /// seconds (for transient/convergence studies against the ODE
    /// trajectory). `None` disables snapshots.
    pub snapshot_interval: Option<f64>,
    /// Emit a progress heartbeat every this many processed events when a
    /// recorder is attached; `0` disables heartbeats entirely.
    pub heartbeat_every: u64,
    /// Collect post-warmup sojourn times into a mergeable quantile
    /// digest (reported in [`crate::SimResult::sojourn_digest`]).
    /// Off by default: the digest costs one branch plus a bucket
    /// increment per completion, which benchmark configurations avoid.
    pub sojourn_digest: bool,
    /// Emit per-job lifecycle events (`job_arrival`, `job_migrate`,
    /// `job_service_start`, `job_completion`) to the attached recorder,
    /// so traces can be decomposed into per-job sojourn components.
    /// Off by default: the identity counter always runs (it draws no
    /// randomness), but event construction is skipped entirely, keeping
    /// the disabled path inside the benchmark overhead budget.
    pub trace_jobs: bool,
    /// Emit a `tail_sample` event carrying the instantaneous empirical
    /// tail vector `ŝ₁…ŝ_k` every this many simulated seconds (for
    /// live transient comparison against the ODE trajectory). `None`
    /// disables sampling; the disabled path shares `trace_jobs`'
    /// benchmark budget.
    pub sample_tails: Option<f64>,
    /// Future-event-list implementation. Pure mechanism: any value
    /// yields the same trace for the same seed (see [`EngineKind`]).
    pub engine: EngineKind,
}

/// Default heartbeat cadence (every 65,536 processed events).
pub const DEFAULT_HEARTBEAT_EVERY: u64 = 1 << 16;

/// Typed reason a [`SimConfig`] failed [`SimConfig::validate`].
///
/// Each variant names one inconsistency; [`std::fmt::Display`] renders
/// the same human-readable diagnostics callers saw when `validate`
/// returned bare strings, so `panic!("... {e}")` call sites and CLI
/// error output are unchanged.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `n == 0`: there is nothing to simulate.
    ZeroProcessors,
    /// `n` exceeds the engine's u32 processor-index space
    /// (`n > 2³² − 1`); the struct-of-arrays core addresses processors
    /// with 32-bit indices.
    TooManyProcessors(usize),
    /// `λ` is negative, NaN, or infinite.
    BadLambda(f64),
    /// `λ` is at or above the aggregate service capacity
    /// `Σ fraction × speed`, so queues grow without bound and horizon
    /// statistics are meaningless.
    UnstableLambda {
        /// The offending arrival rate.
        lambda: f64,
        /// Mean per-processor service capacity of the speed profile.
        capacity: f64,
    },
    /// `λ_int` is negative, NaN, or infinite.
    BadInternalLambda(f64),
    /// A service, arrival, or transfer distribution rejected its own
    /// parameters (message from [`ServiceDistribution::validate`]).
    Distribution(String),
    /// An explicit arrival distribution was given with `λ ≤ 0`.
    ArrivalNeedsLambda,
    /// The arrival distribution's mean is not `1/λ`.
    ArrivalMeanMismatch {
        /// Mean of the supplied inter-arrival distribution.
        mean: f64,
        /// The configured arrival rate.
        lambda: f64,
    },
    /// Steal threshold `T < 2` (a steal from a 1-task victim is a swap).
    ThresholdTooLow,
    /// `choices == 0`: no victim is ever sampled.
    ZeroChoices,
    /// Batch size outside `1 ≤ k ≤ T/2` (Section 3.4's constraint).
    BadBatch {
        /// The offending batch size `k`.
        batch: usize,
        /// The configured steal threshold `T`.
        threshold: usize,
    },
    /// Transfer delays combined with multi-task steals.
    TransferBatchSteals,
    /// Transfer delays combined with a policy that does not model them;
    /// the payload names the policy.
    TransferNotModeled(&'static str),
    /// Preemptive relative threshold `< 2`.
    BadPreemptiveThreshold,
    /// Repeated-steal retry rate not a positive finite number.
    BadRepeatedRate,
    /// A work-sharing threshold of zero.
    BadShareThresholds,
    /// Rebalance rate not a positive finite number.
    BadRebalanceRate,
    /// `SpeedProfile::Classes` with no classes.
    EmptySpeedClasses,
    /// Speed-class fractions do not sum to 1 (payload: actual sum).
    SpeedFractionsSum(f64),
    /// A speed class with a negative fraction or non-positive speed.
    BadSpeedClass,
    /// Snapshot interval not a positive finite number.
    BadSnapshotInterval(f64),
    /// Tail-sample interval not a positive finite number.
    BadSampleInterval(f64),
    /// Drained mode with external arrivals still switched on.
    DrainedNeedsZeroLambda(f64),
    /// Drained mode with no initial load and no internal arrivals.
    DrainedEndsImmediately,
    /// Horizon not a positive finite number.
    BadHorizon(f64),
    /// Warmup outside `[0, horizon)`.
    BadWarmup {
        /// The offending warmup time.
        warmup: f64,
        /// The configured horizon.
        horizon: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroProcessors => write!(f, "need at least one processor"),
            Self::TooManyProcessors(n) => write!(
                f,
                "n = {n} exceeds the engine's 32-bit processor index space \
                 (max {})",
                u32::MAX
            ),
            Self::BadLambda(l) => write!(f, "lambda must be finite and >= 0, got {l}"),
            Self::UnstableLambda { lambda, capacity } => write!(
                f,
                "lambda {lambda} is at or above the mean service capacity {capacity}; \
                 the system is unstable and horizon statistics diverge"
            ),
            Self::BadInternalLambda(l) => {
                write!(f, "internal_lambda must be finite and >= 0, got {l}")
            }
            Self::Distribution(msg) => write!(f, "{msg}"),
            Self::ArrivalNeedsLambda => {
                write!(f, "an explicit arrival distribution needs lambda > 0")
            }
            Self::ArrivalMeanMismatch { mean, lambda } => write!(
                f,
                "arrival distribution mean {mean} is inconsistent with lambda {lambda} \
                 (need mean = 1/lambda)"
            ),
            Self::ThresholdTooLow => write!(f, "steal threshold must be >= 2"),
            Self::ZeroChoices => write!(f, "need at least one victim choice"),
            Self::BadBatch { batch, threshold } => write!(
                f,
                "batch k must satisfy 1 <= k <= T/2 (got k = {batch}, T = {threshold})"
            ),
            Self::TransferBatchSteals => {
                write!(f, "transfer delays are modeled for single-task steals only")
            }
            Self::TransferNotModeled(policy) => {
                write!(f, "{policy} with transfer delays is not modeled")
            }
            Self::BadPreemptiveThreshold => {
                write!(f, "preemptive relative threshold must be >= 2")
            }
            Self::BadRepeatedRate => write!(f, "repeated steal rate must be > 0"),
            Self::BadShareThresholds => write!(f, "sharing thresholds must be >= 1"),
            Self::BadRebalanceRate => write!(f, "rebalance rate must be > 0"),
            Self::EmptySpeedClasses => write!(f, "speed classes must be non-empty"),
            Self::SpeedFractionsSum(total) => {
                write!(f, "speed-class fractions must sum to 1, got {total}")
            }
            Self::BadSpeedClass => {
                write!(f, "speed-class fractions must be >= 0 and speeds > 0")
            }
            Self::BadSnapshotInterval(dt) => {
                write!(f, "snapshot interval must be > 0, got {dt}")
            }
            Self::BadSampleInterval(dt) => {
                write!(f, "tail-sample interval must be > 0, got {dt}")
            }
            Self::DrainedNeedsZeroLambda(l) => {
                write!(f, "drained mode requires lambda = 0, got {l}")
            }
            Self::DrainedEndsImmediately => {
                write!(f, "drained mode with no initial load ends immediately")
            }
            Self::BadHorizon(h) => write!(f, "horizon must be positive and finite, got {h}"),
            Self::BadWarmup { warmup, horizon } => write!(
                f,
                "warmup must lie in [0, horizon), got warmup {warmup} with horizon {horizon}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<String> for ConfigError {
    /// Lets distribution validators (which report plain strings) be
    /// `?`-propagated out of [`SimConfig::validate`].
    fn from(msg: String) -> Self {
        Self::Distribution(msg)
    }
}

impl SimConfig {
    /// A paper-default configuration: `n` processors, arrival rate
    /// `lambda`, unit-exponential service, simple WS stealing,
    /// 100,000 s horizon with 10,000 s warmup.
    pub fn paper_default(n: usize, lambda: f64) -> Self {
        Self {
            n,
            lambda,
            internal_lambda: 0.0,
            service: ServiceDistribution::unit_exponential(),
            arrival: None,
            policy: StealPolicy::simple_ws(),
            transfer: None,
            speeds: SpeedProfile::Homogeneous,
            initial_load: 0,
            horizon: 100_000.0,
            warmup: 10_000.0,
            run_until_drained: false,
            snapshot_interval: None,
            heartbeat_every: DEFAULT_HEARTBEAT_EVERY,
            sojourn_digest: false,
            trace_jobs: false,
            sample_tails: None,
            engine: EngineKind::default(),
        }
    }

    /// Validate the configuration; returns a typed [`ConfigError`]
    /// (whose `Display` is the human-readable reason) when it is
    /// inconsistent.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n == 0 {
            return Err(ConfigError::ZeroProcessors);
        }
        if self.n > u32::MAX as usize {
            return Err(ConfigError::TooManyProcessors(self.n));
        }
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(ConfigError::BadLambda(self.lambda));
        }
        if !(self.internal_lambda >= 0.0 && self.internal_lambda.is_finite()) {
            return Err(ConfigError::BadInternalLambda(self.internal_lambda));
        }
        self.service.validate()?;
        if let Some(arrival) = &self.arrival {
            arrival.validate()?;
            if self.lambda <= 0.0 {
                return Err(ConfigError::ArrivalNeedsLambda);
            }
            let mean = arrival.mean();
            if (mean * self.lambda - 1.0).abs() > 1e-9 {
                return Err(ConfigError::ArrivalMeanMismatch {
                    mean,
                    lambda: self.lambda,
                });
            }
        }
        if let Some(t) = &self.transfer {
            t.dist.validate()?;
        }
        match &self.policy {
            StealPolicy::None => {}
            StealPolicy::OnEmpty {
                threshold,
                choices,
                batch,
            } => {
                if *threshold < 2 {
                    return Err(ConfigError::ThresholdTooLow);
                }
                if *choices == 0 {
                    return Err(ConfigError::ZeroChoices);
                }
                if *batch == 0 || batch * 2 > *threshold {
                    return Err(ConfigError::BadBatch {
                        batch: *batch,
                        threshold: *threshold,
                    });
                }
                if self.transfer.is_some() && *batch != 1 {
                    return Err(ConfigError::TransferBatchSteals);
                }
            }
            StealPolicy::Preemptive {
                rel_threshold: t, ..
            } => {
                if *t < 2 {
                    return Err(ConfigError::BadPreemptiveThreshold);
                }
            }
            StealPolicy::Repeated { rate, threshold } => {
                if !rate.is_finite() || *rate <= 0.0 {
                    return Err(ConfigError::BadRepeatedRate);
                }
                if *threshold < 2 {
                    return Err(ConfigError::ThresholdTooLow);
                }
                if self.transfer.is_some() {
                    return Err(ConfigError::TransferNotModeled("repeated stealing"));
                }
            }
            StealPolicy::Share {
                send_threshold,
                recv_threshold,
            } => {
                if *send_threshold == 0 || *recv_threshold == 0 {
                    return Err(ConfigError::BadShareThresholds);
                }
                if self.transfer.is_some() {
                    return Err(ConfigError::TransferNotModeled("sharing"));
                }
            }
            StealPolicy::Rebalance { rate } => {
                let r = match rate {
                    RebalanceRate::Constant(r) | RebalanceRate::PerTask(r) => *r,
                };
                if !(r > 0.0 && r.is_finite()) {
                    return Err(ConfigError::BadRebalanceRate);
                }
                if self.transfer.is_some() {
                    return Err(ConfigError::TransferNotModeled("rebalancing"));
                }
            }
        }
        if let SpeedProfile::Classes(classes) = &self.speeds {
            if classes.is_empty() {
                return Err(ConfigError::EmptySpeedClasses);
            }
            let total: f64 = classes.iter().map(|c| c.0).sum();
            if (total - 1.0).abs() > 1e-9 {
                return Err(ConfigError::SpeedFractionsSum(total));
            }
            if classes.iter().any(|c| c.0 < 0.0 || c.1 <= 0.0) {
                return Err(ConfigError::BadSpeedClass);
            }
        }
        if let Some(dt) = self.snapshot_interval {
            if !(dt > 0.0 && dt.is_finite()) {
                return Err(ConfigError::BadSnapshotInterval(dt));
            }
        }
        if let Some(dt) = self.sample_tails {
            if !(dt > 0.0 && dt.is_finite()) {
                return Err(ConfigError::BadSampleInterval(dt));
            }
        }
        if self.run_until_drained {
            if self.lambda > 0.0 {
                return Err(ConfigError::DrainedNeedsZeroLambda(self.lambda));
            }
            if self.initial_load == 0 && self.internal_lambda == 0.0 {
                return Err(ConfigError::DrainedEndsImmediately);
            }
        } else {
            let capacity = self.speeds.mean_capacity();
            if self.lambda >= capacity {
                return Err(ConfigError::UnstableLambda {
                    lambda: self.lambda,
                    capacity,
                });
            }
            if !(self.horizon > 0.0 && self.horizon.is_finite()) {
                return Err(ConfigError::BadHorizon(self.horizon));
            }
            if !(0.0..self.horizon).contains(&self.warmup) {
                return Err(ConfigError::BadWarmup {
                    warmup: self.warmup,
                    horizon: self.horizon,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        SimConfig::paper_default(128, 0.9).validate().unwrap();
    }

    #[test]
    fn rejects_bad_thresholds() {
        let mut cfg = SimConfig::paper_default(8, 0.5);
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 1,
            choices: 1,
            batch: 1,
        };
        assert!(cfg.validate().is_err());
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 4,
            choices: 1,
            batch: 3, // 2k > T
        };
        assert!(cfg.validate().is_err());
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 4,
            choices: 1,
            batch: 2,
        };
        cfg.validate().unwrap();
    }

    #[test]
    fn typed_errors_for_nonsensical_configs() {
        assert_eq!(
            SimConfig::paper_default(0, 0.5).validate(),
            Err(ConfigError::ZeroProcessors)
        );
        assert_eq!(
            SimConfig::paper_default(8, -0.1).validate(),
            Err(ConfigError::BadLambda(-0.1))
        );
        assert!(matches!(
            SimConfig::paper_default(8, f64::NAN).validate(),
            Err(ConfigError::BadLambda(l)) if l.is_nan()
        ));
        let mut cfg = SimConfig::paper_default(8, 0.5);
        cfg.speeds = SpeedProfile::Classes(vec![]);
        assert_eq!(cfg.validate(), Err(ConfigError::EmptySpeedClasses));
    }

    #[test]
    fn rejects_unstable_lambda() {
        // λ = 1 saturates unit-speed processors: no stationary regime.
        assert_eq!(
            SimConfig::paper_default(8, 1.0).validate(),
            Err(ConfigError::UnstableLambda {
                lambda: 1.0,
                capacity: 1.0
            })
        );
        // Drained mode has no arrivals, so no stability requirement.
        let mut drained = SimConfig::paper_default(8, 0.0);
        drained.run_until_drained = true;
        drained.initial_load = 10;
        drained.validate().unwrap();
    }

    #[test]
    fn fast_speed_classes_raise_the_stability_ceiling() {
        // The heterogeneous figure drives λ = 0.9 into a profile of
        // aggregate capacity 1.15; λ may exceed 1 there, but not 1.15.
        let mut cfg = SimConfig::paper_default(8, 1.05);
        cfg.speeds = SpeedProfile::Classes(vec![(0.5, 1.5), (0.5, 0.8)]);
        assert_eq!(cfg.speeds.mean_capacity(), 1.15);
        cfg.validate().unwrap();
        cfg.lambda = 1.15;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::UnstableLambda { .. })
        ));
    }

    #[test]
    fn error_display_keeps_legacy_wording() {
        assert_eq!(
            ConfigError::ZeroProcessors.to_string(),
            "need at least one processor"
        );
        assert_eq!(
            ConfigError::BadBatch {
                batch: 3,
                threshold: 4
            }
            .to_string(),
            "batch k must satisfy 1 <= k <= T/2 (got k = 3, T = 4)"
        );
        assert_eq!(
            ConfigError::SpeedFractionsSum(0.9).to_string(),
            "speed-class fractions must sum to 1, got 0.9"
        );
    }

    #[test]
    fn rejects_bad_sample_interval() {
        let mut cfg = SimConfig::paper_default(8, 0.5);
        cfg.sample_tails = Some(0.0);
        assert_eq!(cfg.validate(), Err(ConfigError::BadSampleInterval(0.0)));
        cfg.sample_tails = Some(f64::INFINITY);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadSampleInterval(_))
        ));
        cfg.sample_tails = Some(0.5);
        cfg.validate().unwrap();
    }

    #[test]
    fn rejects_transfer_with_batch_steals() {
        let mut cfg = SimConfig::paper_default(8, 0.5);
        cfg.transfer = Some(TransferTime::exponential(0.25));
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 4,
            choices: 1,
            batch: 2,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn drained_mode_requires_zero_lambda() {
        let mut cfg = SimConfig::paper_default(8, 0.5);
        cfg.run_until_drained = true;
        cfg.initial_load = 10;
        assert!(cfg.validate().is_err());
        cfg.lambda = 0.0;
        cfg.validate().unwrap();
    }

    #[test]
    fn speed_classes_must_sum_to_one() {
        let mut cfg = SimConfig::paper_default(8, 0.5);
        cfg.speeds = SpeedProfile::Classes(vec![(0.5, 2.0), (0.4, 1.0)]);
        assert!(cfg.validate().is_err());
        cfg.speeds = SpeedProfile::Classes(vec![(0.5, 2.0), (0.5, 1.0)]);
        cfg.validate().unwrap();
    }

    #[test]
    fn speed_of_assigns_contiguous_classes() {
        let profile = SpeedProfile::Classes(vec![(0.25, 2.0), (0.75, 1.0)]);
        let n = 8;
        let speeds: Vec<f64> = (0..n).map(|p| profile.speed_of(p, n)).collect();
        assert_eq!(speeds, vec![2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn homogeneous_speed_is_one() {
        assert_eq!(SpeedProfile::Homogeneous.speed_of(3, 10), 1.0);
    }

    #[test]
    fn rebalance_rate_forms() {
        assert_eq!(RebalanceRate::Constant(0.5).rate(7), 0.5);
        assert_eq!(RebalanceRate::PerTask(0.5).rate(4), 2.0);
    }

    #[test]
    fn engine_kind_defaults_to_calendar() {
        assert_eq!(
            SimConfig::paper_default(8, 0.5).engine,
            EngineKind::Calendar
        );
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn rejects_n_beyond_u32_index_space() {
        let mut cfg = SimConfig::paper_default(8, 0.5);
        cfg.n = u32::MAX as usize + 1;
        assert_eq!(cfg.validate(), Err(ConfigError::TooManyProcessors(cfg.n)));
        // The boundary itself is addressable (validation is pure; no
        // allocation happens here).
        cfg.n = u32::MAX as usize;
        cfg.validate().unwrap();
    }
}

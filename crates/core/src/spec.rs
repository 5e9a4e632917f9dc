//! Declarative model specifications: one typed description of a
//! load-stealing variant from which every layer derives its view.
//!
//! A [`ModelSpec`] names the *system* — arrival process, service
//! distribution, steal policy (threshold, victim choices, batch size),
//! transfer delay, and processor speed profile — without committing to
//! any particular representation. From one spec the rest of the stack
//! derives:
//!
//! * [`ModelSpec::mean_field`] — the matching differential-equation
//!   model from [`crate::models`], as an [`AnyModel`], or a typed
//!   [`UnsupportedSpec`] when the paper has no equations for that
//!   combination;
//! * [`ModelSpec::fixed_point`] — the solved fixed point (predictor for
//!   `verify` and `report`);
//! * `spec.sim_config(n)` in `loadsteal-sim` — the event-driven
//!   simulator configuration;
//! * [`ModelSpec::parse`] / [`std::fmt::Display`] — the CLI's
//!   `--model <name|key=val,...>` grammar. The canonical string
//!   round-trips exactly: `ModelSpec::parse(&spec.to_string()) ==
//!   Ok(spec)`.
//!
//! Named presets covering every system the paper analyzes live in
//! [`crate::registry::ModelRegistry`].
//!
//! # Grammar
//!
//! A spec string is a comma-separated list of `key=value` pairs; the
//! first segment may instead be a preset name from the registry, with
//! later pairs overriding its fields. Later occurrences of a key win.
//!
//! ```text
//! simple-ws,lambda=0.8
//! lambda=0.9,policy=steal,T=6,d=2,k=3
//! lambda=0.8,policy=steal,T=4,service=erlang:10      # threshold × Erlang
//! lambda=0.8,policy=steal,T=4,transfer=0.25
//! lambda=0.8,speeds=classes:0.5:1.2:0.9
//! ```
//!
//! | key | meaning |
//! |-----|---------|
//! | `lambda` (`l`) | external arrival rate per processor |
//! | `policy` | `none`, `steal`, `preemptive`, `repeated`, `rebalance`, `share` |
//! | `T` (`threshold`) | victim/steal threshold (`steal`, `repeated`) or relative threshold (`preemptive`) |
//! | `d` (`choices`) | victim candidates per steal attempt (`steal`) |
//! | `k` (`batch`) | tasks moved per steal (`steal`) |
//! | `B` (`begin`) | tasks left when preemptive stealing starts |
//! | `r` (`rate`) | retry rate (`repeated`) or rebalance rate (`rebalance`) |
//! | `per-task` | `true`: rebalance rate is per unit of load imbalance |
//! | `send`, `recv` | work-sharing thresholds |
//! | `service` | `exp`, `erlang:<stages>`, `det`, `hyper:<p>:<rate1>:<rate2>` (unit mean) |
//! | `arrival` | `poisson`, `erlang:<phases>` |
//! | `transfer` | stolen tasks travel for `Exp(rate)` time |
//! | `speeds` | `homogeneous`, `classes:<fast-fraction>:<fast-rate>:<slow-rate>` |

use loadsteal_obs::Recorder;
use loadsteal_ode::jacobian::BlockLayout;
use loadsteal_ode::OdeSystem;

use crate::fixed_point::{solve, solve_traced, FixedPoint, FixedPointOptions};
use crate::models::{
    check_lambda, ErlangArrivals, ErlangStages, GeneralWs, Heterogeneous, HyperService,
    MeanFieldModel, NoSteal, Preemptive, Rebalance, RebalanceRateFn, RepeatedSteal, TransferWs,
    WorkSharing,
};

/// Tolerance for the unit-mean check on service distributions.
const UNIT_MEAN_TOL: f64 = 1e-9;

/// The task arrival process at each processor (unit: tasks per second,
/// mean rate fixed by [`ModelSpec::lambda`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson arrivals (the paper's default).
    Poisson,
    /// Erlang inter-arrival times with the given number of phases
    /// (§3.1's "more regular arrivals"; phase rate is `phases × λ` so
    /// the mean rate stays λ).
    Erlang {
        /// Number of exponential phases per inter-arrival time.
        phases: u32,
    },
}

/// The task service distribution (always unit mean, so λ is also the
/// offered load).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceSpec {
    /// Exponential(1) service (the paper's default).
    Exponential,
    /// Erlang with the given stage count, stage rate `stages` (§3.1's
    /// nearly-constant service as `stages` grows).
    Erlang {
        /// Number of exponential stages per task.
        stages: u32,
    },
    /// Deterministic unit service (simulable; no mean-field model).
    Deterministic,
    /// Two-branch hyperexponential: rate `rate1` with probability `p`,
    /// else `rate2` (§3.1's bursty service). The mean
    /// `p/rate1 + (1−p)/rate2` must be 1.
    HyperExp {
        /// Probability of the first branch.
        p: f64,
        /// Service rate of the first branch.
        rate1: f64,
        /// Service rate of the second branch.
        rate2: f64,
    },
}

impl ServiceSpec {
    /// Squared coefficient of variation of the service time; the
    /// stealing-beats-no-stealing comparison only holds when this is
    /// ≤ 1 (bursty service can invert it).
    pub fn scv(&self) -> f64 {
        match *self {
            Self::Exponential => 1.0,
            Self::Erlang { stages } => 1.0 / stages.max(1) as f64,
            Self::Deterministic => 0.0,
            Self::HyperExp { p, rate1, rate2 } => {
                let mean = p / rate1 + (1.0 - p) / rate2;
                let second = 2.0 * p / (rate1 * rate1) + 2.0 * (1.0 - p) / (rate2 * rate2);
                second / (mean * mean) - 1.0
            }
        }
    }
}

/// How (and whether) idle processors acquire work from others.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// No stealing: `n` independent queues (the eq. (1) baseline).
    NoSteal,
    /// Steal when empty: the paper's receiver-initiated family
    /// (§2.2–§2.3, §3.3–§3.4 combined as desired).
    OnEmpty {
        /// Minimum victim load `T` for a steal to succeed (§2.3).
        threshold: usize,
        /// Victim candidates examined per attempt, best of `d` (§3.3).
        choices: u32,
        /// Tasks moved per successful steal (§3.4); `1 ≤ k ≤ T/2`.
        batch: usize,
    },
    /// Preemptive stealing: start when `begin_at` tasks remain, steal
    /// only from victims with ≥ `rel_threshold` more tasks (§2.4).
    Preemptive {
        /// Tasks left in the local queue when stealing begins.
        begin_at: usize,
        /// Required victim excess over the thief.
        rel_threshold: usize,
    },
    /// Empty processors retry failed steals at rate `rate` (§2.5).
    Repeated {
        /// Steal-attempt rate while empty.
        rate: f64,
        /// Minimum victim load for success.
        threshold: usize,
    },
    /// Pairwise load rebalancing at rate `rate` (§3.4).
    Rebalance {
        /// Rebalance-attempt rate per processor (or per task, below).
        rate: f64,
        /// `true`: attempts scale with the local load.
        per_task: bool,
    },
    /// Sender-initiated work sharing (§1's foil): processors at ≥
    /// `send_threshold` push a task to one at < `recv_threshold`.
    Share {
        /// Queue length at which a processor tries to shed work.
        send_threshold: usize,
        /// Maximum receiver load for a push to land.
        recv_threshold: usize,
    },
}

/// Relative processor speeds (§3.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedSpec {
    /// All processors serve at rate 1.
    Homogeneous,
    /// Two classes: a `fast_fraction` of processors at `fast_rate`, the
    /// rest at `slow_rate`.
    TwoClass {
        /// Fraction of processors in the fast class, in `(0, 1)`.
        fast_fraction: f64,
        /// Service rate of the fast class.
        fast_rate: f64,
        /// Service rate of the slow class.
        slow_rate: f64,
    },
}

/// A complete declarative description of one load-stealing system.
///
/// See the [module docs](self) for the grammar and the derivations.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// External arrival rate λ per processor.
    pub lambda: f64,
    /// Arrival process shape.
    pub arrival: ArrivalSpec,
    /// Service distribution (unit mean).
    pub service: ServiceSpec,
    /// Steal policy.
    pub policy: PolicySpec,
    /// Stolen tasks travel for `Exp(rate)` time before arriving (§3.2);
    /// `None` means instantaneous transfer.
    pub transfer_rate: Option<f64>,
    /// Processor speed profile.
    pub speeds: SpeedSpec,
}

/// A spec field combination the mean-field layer has no equations for.
///
/// The variant is usually still *simulable* — the simulator composes
/// knobs freely — it just has no differential-equation predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct UnsupportedSpec {
    /// The spec field no model consumes in this combination.
    pub field: &'static str,
    /// What about the combination is unsupported.
    pub detail: String,
}

impl std::fmt::Display for UnsupportedSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no mean-field model for this spec ({}): {}",
            self.field, self.detail
        )
    }
}

impl std::error::Error for UnsupportedSpec {}

fn unsupported(field: &'static str, detail: impl Into<String>) -> UnsupportedSpec {
    UnsupportedSpec {
        field,
        detail: detail.into(),
    }
}

/// Which auxiliary spec fields a dispatch target consumes; anything
/// left non-default and unconsumed is an [`UnsupportedSpec`].
#[derive(Default)]
struct Consumes {
    service: bool,
    arrival: bool,
    transfer: bool,
    speeds: bool,
}

impl ModelSpec {
    /// A simple-WS spec at rate `lambda`: Poisson arrivals, exponential
    /// service, steal-one-on-empty with victim threshold 2 — the §2.2
    /// baseline every other variant perturbs.
    pub fn simple_ws(lambda: f64) -> Self {
        Self {
            lambda,
            arrival: ArrivalSpec::Poisson,
            service: ServiceSpec::Exponential,
            policy: PolicySpec::OnEmpty {
                threshold: 2,
                choices: 1,
                batch: 1,
            },
            transfer_rate: None,
            speeds: SpeedSpec::Homogeneous,
        }
    }

    /// The same spec at a different arrival rate (used by the verify
    /// harness to sweep the paper's table grids from one preset).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Whether the fixed-point busy fraction must equal λ exactly
    /// (throughput balance; breaks once speed classes differ because
    /// the folded tail mixes rates).
    pub fn busy_is_lambda(&self) -> bool {
        matches!(self.speeds, SpeedSpec::Homogeneous)
    }

    /// Whether the §2.2 dominance comparison `W < 1/(1−λ)` applies:
    /// some form of redistribution, homogeneous speeds, and service no
    /// burstier than exponential.
    pub fn dominates_no_steal(&self) -> bool {
        !matches!(self.policy, PolicySpec::NoSteal)
            && matches!(self.speeds, SpeedSpec::Homogeneous)
            && self.service.scv() <= 1.0
    }

    /// Validate field ranges and cross-field constraints (mirrors
    /// `SimConfig::validate` so a valid spec yields a valid config).
    pub fn validate(&self) -> Result<(), String> {
        if !self.lambda.is_finite() || self.lambda < 0.0 {
            return Err(format!(
                "arrival rate must be finite and non-negative, got {}",
                self.lambda
            ));
        }
        match self.arrival {
            ArrivalSpec::Poisson => {}
            ArrivalSpec::Erlang { phases } => {
                if phases == 0 {
                    return Err("arrival=erlang needs at least 1 phase".into());
                }
            }
        }
        match self.service {
            ServiceSpec::Exponential | ServiceSpec::Deterministic => {}
            ServiceSpec::Erlang { stages } => {
                if stages == 0 {
                    return Err("service=erlang needs at least 1 stage".into());
                }
            }
            ServiceSpec::HyperExp { p, rate1, rate2 } => {
                if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                    return Err(format!(
                        "hyperexponential branch probability {p} not in [0, 1]"
                    ));
                }
                if rate1 <= 0.0 || rate2 <= 0.0 || !rate1.is_finite() || !rate2.is_finite() {
                    return Err("hyperexponential rates must be positive and finite".into());
                }
                let mean = p / rate1 + (1.0 - p) / rate2;
                if (mean - 1.0).abs() > UNIT_MEAN_TOL {
                    return Err(format!(
                        "hyperexponential service mean must be 1, got {mean}"
                    ));
                }
            }
        }
        match self.policy {
            PolicySpec::NoSteal => {}
            PolicySpec::OnEmpty {
                threshold,
                choices,
                batch,
            } => {
                if threshold < 2 {
                    return Err(format!("steal threshold must be ≥ 2, got {threshold}"));
                }
                if choices == 0 {
                    return Err("victim choices must be ≥ 1".into());
                }
                if batch == 0 || batch > threshold / 2 {
                    return Err(format!(
                        "steal batch must satisfy 1 ≤ k ≤ T/2, got k = {batch}, T = {threshold}"
                    ));
                }
            }
            PolicySpec::Preemptive {
                begin_at,
                rel_threshold,
            } => {
                if begin_at == 0 {
                    return Err("preemptive begin-at must be ≥ 1".into());
                }
                if rel_threshold < 2 {
                    return Err(format!(
                        "preemptive relative threshold must be ≥ 2, got {rel_threshold}"
                    ));
                }
            }
            PolicySpec::Repeated { rate, threshold } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("repeated-steal rate must be positive, got {rate}"));
                }
                if threshold < 2 {
                    return Err(format!("steal threshold must be ≥ 2, got {threshold}"));
                }
            }
            PolicySpec::Rebalance { rate, .. } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("rebalance rate must be positive, got {rate}"));
                }
            }
            PolicySpec::Share {
                send_threshold,
                recv_threshold,
            } => {
                if send_threshold < 2 {
                    return Err(format!(
                        "share send threshold must be ≥ 2, got {send_threshold}"
                    ));
                }
                if recv_threshold == 0 {
                    return Err("share receive threshold must be ≥ 1".into());
                }
            }
        }
        if let Some(rate) = self.transfer_rate {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(format!("transfer rate must be positive, got {rate}"));
            }
            match self.policy {
                PolicySpec::OnEmpty { batch: 1, .. }
                | PolicySpec::Preemptive { .. }
                | PolicySpec::NoSteal => {}
                PolicySpec::OnEmpty { batch, .. } => {
                    return Err(format!(
                        "transfer delays are only modeled for single-task steals, got batch {batch}"
                    ));
                }
                _ => {
                    return Err("transfer delays are only modeled for on-empty stealing".into());
                }
            }
        }
        if let SpeedSpec::TwoClass {
            fast_fraction,
            fast_rate,
            slow_rate,
        } = self.speeds
        {
            if !(fast_fraction > 0.0 && fast_fraction < 1.0) {
                return Err(format!(
                    "fast fraction must be in (0, 1), got {fast_fraction}"
                ));
            }
            if fast_rate <= 0.0 || slow_rate <= 0.0 {
                return Err("speed-class rates must be positive".into());
            }
        }
        Ok(())
    }

    fn check_unconsumed(&self, consumes: Consumes) -> Result<(), UnsupportedSpec> {
        if !consumes.service && self.service != ServiceSpec::Exponential {
            return Err(unsupported(
                "service",
                "this policy's equations assume exponential service",
            ));
        }
        if !consumes.arrival && self.arrival != ArrivalSpec::Poisson {
            return Err(unsupported(
                "arrival",
                "this combination's equations assume Poisson arrivals",
            ));
        }
        if !consumes.transfer && self.transfer_rate.is_some() {
            return Err(unsupported(
                "transfer",
                "transfer delays are only modeled for single-choice, single-task on-empty steals",
            ));
        }
        if !consumes.speeds && self.speeds != SpeedSpec::Homogeneous {
            return Err(unsupported(
                "speeds",
                "heterogeneous speeds are only modeled with threshold on-empty stealing",
            ));
        }
        Ok(())
    }

    /// Label a model-constructor error with the spec field it concerns:
    /// `lambda` when the arrival rate is outside `0 < λ < 1`, otherwise
    /// `knob`, the field the dispatch target consumes besides the rate.
    fn constructor_error(&self, knob: &'static str) -> impl Fn(String) -> UnsupportedSpec {
        let field = if check_lambda(self.lambda).is_ok() {
            knob
        } else {
            "lambda"
        };
        move |e| unsupported(field, e)
    }

    /// Dispatch to the differential-equation model matching this spec.
    ///
    /// Every constructor consumes exactly the fields it supports; a
    /// non-default field nothing consumes is a typed
    /// [`UnsupportedSpec`] (the variant may still be simulable).
    pub fn mean_field(&self) -> Result<AnyModel, UnsupportedSpec> {
        match self.policy {
            PolicySpec::NoSteal => {
                self.check_unconsumed(Consumes::default())?;
                NoSteal::new(self.lambda)
                    .map(AnyModel::NoSteal)
                    .map_err(self.constructor_error("lambda"))
            }
            PolicySpec::OnEmpty {
                threshold,
                choices,
                batch,
            } => self.on_empty_mean_field(threshold, choices, batch),
            PolicySpec::Preemptive {
                begin_at,
                rel_threshold,
            } => {
                self.check_unconsumed(Consumes::default())?;
                Preemptive::new(self.lambda, begin_at, rel_threshold)
                    .map(AnyModel::Preemptive)
                    .map_err(self.constructor_error("policy"))
            }
            PolicySpec::Repeated { rate, threshold } => {
                self.check_unconsumed(Consumes::default())?;
                RepeatedSteal::new(self.lambda, rate, threshold)
                    .map(AnyModel::Repeated)
                    .map_err(self.constructor_error("policy"))
            }
            PolicySpec::Rebalance { rate, per_task } => {
                self.check_unconsumed(Consumes::default())?;
                let rate_fn = if per_task {
                    RebalanceRateFn::PerTask(rate)
                } else {
                    RebalanceRateFn::Constant(rate)
                };
                Rebalance::new(self.lambda, rate_fn)
                    .map(AnyModel::Rebalance)
                    .map_err(self.constructor_error("policy"))
            }
            PolicySpec::Share {
                send_threshold,
                recv_threshold,
            } => {
                self.check_unconsumed(Consumes::default())?;
                WorkSharing::new(self.lambda, send_threshold, recv_threshold)
                    .map(AnyModel::Share)
                    .map_err(self.constructor_error("policy"))
            }
        }
    }

    /// Dispatch within the on-empty steal family, where the §3
    /// refinements (service shape, arrival shape, transfer delay, speed
    /// classes) each have their own equations. Without them every
    /// `(T, d, k)` solves the one combined ODE, [`GeneralWs`].
    fn on_empty_mean_field(
        &self,
        threshold: usize,
        choices: u32,
        batch: usize,
    ) -> Result<AnyModel, UnsupportedSpec> {
        // The §3 refinements' equations steal one task from one victim.
        let one_task_one_victim = |equations: &str| {
            if choices == 1 && batch == 1 {
                Ok(())
            } else {
                Err(unsupported(
                    if batch == 1 { "choices" } else { "batch" },
                    format!("the {equations} equations steal one task from one victim"),
                ))
            }
        };
        if let Some(rate) = self.transfer_rate {
            one_task_one_victim("§3.2 transfer-delay")?;
            self.check_unconsumed(Consumes {
                transfer: true,
                ..Consumes::default()
            })?;
            return TransferWs::new(self.lambda, rate, threshold)
                .map(AnyModel::Transfer)
                .map_err(self.constructor_error("transfer"));
        }
        match self.service {
            ServiceSpec::Erlang { stages } => {
                one_task_one_victim("§3.1 Erlang-stage")?;
                self.check_unconsumed(Consumes {
                    service: true,
                    ..Consumes::default()
                })?;
                return ErlangStages::with_threshold(self.lambda, stages as usize, threshold)
                    .map(AnyModel::ErlangStages)
                    .map_err(self.constructor_error("service"));
            }
            ServiceSpec::HyperExp { p, rate1, rate2 } => {
                one_task_one_victim("§3.1 hyperexponential")?;
                self.check_unconsumed(Consumes {
                    service: true,
                    ..Consumes::default()
                })?;
                return HyperService::new(self.lambda, p, rate1, rate2, threshold)
                    .map(AnyModel::HyperService)
                    .map_err(self.constructor_error("service"));
            }
            ServiceSpec::Deterministic => {
                return Err(unsupported(
                    "service",
                    "deterministic service has no exact mean-field model; \
                     approximate it with service=erlang:<large c>",
                ));
            }
            ServiceSpec::Exponential => {}
        }
        if let ArrivalSpec::Erlang { phases } = self.arrival {
            one_task_one_victim("§3.1 Erlang-arrival")?;
            self.check_unconsumed(Consumes {
                arrival: true,
                ..Consumes::default()
            })?;
            return ErlangArrivals::new(self.lambda, phases as usize, threshold)
                .map(AnyModel::ErlangArrivals)
                .map_err(self.constructor_error("arrival"));
        }
        if let SpeedSpec::TwoClass {
            fast_fraction,
            fast_rate,
            slow_rate,
        } = self.speeds
        {
            one_task_one_victim("§3.5 heterogeneous")?;
            self.check_unconsumed(Consumes {
                speeds: true,
                ..Consumes::default()
            })?;
            return Heterogeneous::new(self.lambda, fast_fraction, fast_rate, slow_rate, threshold)
                .map(AnyModel::Heterogeneous)
                .map_err(self.constructor_error("speeds"));
        }
        self.check_unconsumed(Consumes::default())?;
        GeneralWs::new(self.lambda, threshold, choices, batch)
            .map(AnyModel::GeneralWs)
            .map_err(self.constructor_error("policy"))
    }

    /// Solve the fixed point of this spec's mean-field model with
    /// default options.
    pub fn fixed_point(&self) -> Result<FixedPoint, String> {
        let model = self.mean_field().map_err(|e| e.to_string())?;
        solve(&model, &FixedPointOptions::default()).map_err(|e| e.to_string())
    }

    /// [`ModelSpec::fixed_point`] with explicit options and a trace
    /// recorder for solver events.
    pub fn fixed_point_traced(
        &self,
        opts: &FixedPointOptions,
        rec: &mut dyn Recorder,
    ) -> Result<FixedPoint, String> {
        let model = self.mean_field().map_err(|e| e.to_string())?;
        solve_traced(&model, opts, rec).map_err(|e| e.to_string())
    }

    /// Parse the `--model` grammar (see the [module docs](self)). A
    /// leading preset name resolves through
    /// [`crate::registry::ModelRegistry::standard`]; later `key=value`
    /// pairs override. The result is validated.
    pub fn parse(s: &str) -> Result<Self, String> {
        parse::parse(s)
    }
}

impl std::str::FromStr for ModelSpec {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

impl std::fmt::Display for ModelSpec {
    /// The canonical spec string: `lambda` first, then the policy with
    /// all of its parameters, then only the non-default shape fields.
    /// Parsing this string reproduces the spec exactly (`f64` display
    /// round-trips).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lambda={}", self.lambda)?;
        match self.policy {
            PolicySpec::NoSteal => write!(f, ",policy=none")?,
            PolicySpec::OnEmpty {
                threshold,
                choices,
                batch,
            } => write!(f, ",policy=steal,T={threshold},d={choices},k={batch}")?,
            PolicySpec::Preemptive {
                begin_at,
                rel_threshold,
            } => write!(f, ",policy=preemptive,B={begin_at},T={rel_threshold}")?,
            PolicySpec::Repeated { rate, threshold } => {
                write!(f, ",policy=repeated,r={rate},T={threshold}")?
            }
            PolicySpec::Rebalance { rate, per_task } => {
                write!(f, ",policy=rebalance,r={rate}")?;
                if per_task {
                    write!(f, ",per-task=true")?;
                }
            }
            PolicySpec::Share {
                send_threshold,
                recv_threshold,
            } => write!(
                f,
                ",policy=share,send={send_threshold},recv={recv_threshold}"
            )?,
        }
        match self.service {
            ServiceSpec::Exponential => {}
            ServiceSpec::Erlang { stages } => write!(f, ",service=erlang:{stages}")?,
            ServiceSpec::Deterministic => write!(f, ",service=det")?,
            ServiceSpec::HyperExp { p, rate1, rate2 } => {
                write!(f, ",service=hyper:{p}:{rate1}:{rate2}")?
            }
        }
        if let ArrivalSpec::Erlang { phases } = self.arrival {
            write!(f, ",arrival=erlang:{phases}")?;
        }
        if let Some(rate) = self.transfer_rate {
            write!(f, ",transfer={rate}")?;
        }
        if let SpeedSpec::TwoClass {
            fast_fraction,
            fast_rate,
            slow_rate,
        } = self.speeds
        {
            write!(f, ",speeds=classes:{fast_fraction}:{fast_rate}:{slow_rate}")?;
        }
        Ok(())
    }
}

/// A mean-field model dispatched from a [`ModelSpec`].
///
/// [`MeanFieldModel`] is not object-safe (`with_truncation` returns
/// `Self`), so dynamic dispatch goes through this enum; every method
/// delegates to the wrapped concrete model.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // variants mirror the concrete model names
pub enum AnyModel {
    NoSteal(NoSteal),
    GeneralWs(GeneralWs),
    Preemptive(Preemptive),
    Repeated(RepeatedSteal),
    Rebalance(Rebalance),
    Share(WorkSharing),
    ErlangStages(ErlangStages),
    ErlangArrivals(ErlangArrivals),
    HyperService(HyperService),
    Transfer(TransferWs),
    Heterogeneous(Heterogeneous),
}

macro_rules! delegate {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyModel::NoSteal($m) => $body,
            AnyModel::GeneralWs($m) => $body,
            AnyModel::Preemptive($m) => $body,
            AnyModel::Repeated($m) => $body,
            AnyModel::Rebalance($m) => $body,
            AnyModel::Share($m) => $body,
            AnyModel::ErlangStages($m) => $body,
            AnyModel::ErlangArrivals($m) => $body,
            AnyModel::HyperService($m) => $body,
            AnyModel::Transfer($m) => $body,
            AnyModel::Heterogeneous($m) => $body,
        }
    };
}

macro_rules! delegate_rewrap {
    ($self:expr, $m:ident => $body:expr) => {
        match $self {
            AnyModel::NoSteal($m) => AnyModel::NoSteal($body),
            AnyModel::GeneralWs($m) => AnyModel::GeneralWs($body),
            AnyModel::Preemptive($m) => AnyModel::Preemptive($body),
            AnyModel::Repeated($m) => AnyModel::Repeated($body),
            AnyModel::Rebalance($m) => AnyModel::Rebalance($body),
            AnyModel::Share($m) => AnyModel::Share($body),
            AnyModel::ErlangStages($m) => AnyModel::ErlangStages($body),
            AnyModel::ErlangArrivals($m) => AnyModel::ErlangArrivals($body),
            AnyModel::HyperService($m) => AnyModel::HyperService($body),
            AnyModel::Transfer($m) => AnyModel::Transfer($body),
            AnyModel::Heterogeneous($m) => AnyModel::Heterogeneous($body),
        }
    };
}

impl OdeSystem for AnyModel {
    fn dim(&self) -> usize {
        delegate!(self, m => m.dim())
    }
    fn deriv(&self, t: f64, y: &[f64], dy: &mut [f64]) {
        delegate!(self, m => m.deriv(t, y, dy))
    }
    fn project(&self, y: &mut [f64]) {
        delegate!(self, m => m.project(y))
    }
}

impl MeanFieldModel for AnyModel {
    fn name(&self) -> String {
        delegate!(self, m => m.name())
    }
    fn lambda(&self) -> f64 {
        delegate!(self, m => m.lambda())
    }
    fn truncation(&self) -> usize {
        delegate!(self, m => m.truncation())
    }
    fn with_truncation(&self, levels: usize) -> Self {
        delegate_rewrap!(self, m => m.with_truncation(levels))
    }
    fn empty_state(&self) -> Vec<f64> {
        delegate!(self, m => m.empty_state())
    }
    fn mean_tasks(&self, y: &[f64]) -> f64 {
        delegate!(self, m => m.mean_tasks(y))
    }
    fn task_tails(&self, y: &[f64]) -> Vec<f64> {
        delegate!(self, m => m.task_tails(y))
    }
    fn boundary_mass(&self, y: &[f64]) -> f64 {
        delegate!(self, m => m.boundary_mass(y))
    }
    fn block_layout(&self) -> BlockLayout {
        delegate!(self, m => m.block_layout())
    }
    fn mean_time_in_system(&self, y: &[f64]) -> f64 {
        delegate!(self, m => m.mean_time_in_system(y))
    }
}

mod parse {
    use super::*;

    /// One `key=value` segment, position-tagged for error messages.
    struct Pair<'a> {
        key: &'a str,
        value: &'a str,
    }

    pub(super) fn parse(s: &str) -> Result<ModelSpec, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty model spec".into());
        }
        let mut segments = s.split(',');
        let first = segments.next().unwrap_or_default().trim();
        let (mut spec, mut lambda_set) = if first.contains('=') {
            (ModelSpec::simple_ws(f64::NAN), false)
        } else {
            let registry = crate::registry::ModelRegistry::standard();
            match registry.get(first) {
                Some(preset) => (preset.spec.clone(), true),
                None => {
                    return Err(format!(
                        "unknown model preset {first:?} (run `loadsteal models` to list presets, \
                         or pass key=val pairs like lambda=0.9,policy=steal,T=4)"
                    ));
                }
            }
        };
        let mut pairs: Vec<Pair> = Vec::new();
        let rest = if first.contains('=') {
            std::iter::once(first).chain(segments)
        } else {
            // Consumed the preset name; iterate the remaining segments.
            #[allow(clippy::iter_skip_zero)]
            std::iter::once("").chain(segments)
        };
        for seg in rest {
            let seg = seg.trim();
            if seg.is_empty() {
                continue;
            }
            let Some((key, value)) = seg.split_once('=') else {
                return Err(format!(
                    "expected key=value, got {seg:?} (only the first segment may be a preset name)"
                ));
            };
            pairs.push(Pair {
                key: key.trim(),
                value: value.trim(),
            });
        }

        // Policy first: it decides which parameter keys are meaningful.
        // Later occurrences of any key win (that is what makes
        // `preset,lambda=0.8` overrides work).
        if let Some(p) = pairs.iter().rev().find(|p| p.key == "policy") {
            spec.policy = default_policy(p.value)?;
        }
        let mut consumed = vec![false; pairs.len()];
        for (i, p) in pairs.iter().enumerate() {
            if p.key == "policy" {
                consumed[i] = true;
            }
        }
        // Everything else, last occurrence wins: walk in order so a
        // later pair simply overwrites.
        for (i, p) in pairs.iter().enumerate() {
            if consumed[i] {
                continue;
            }
            let used = apply_pair(&mut spec, p, &mut lambda_set)?;
            if used {
                consumed[i] = true;
            }
        }
        for (i, p) in pairs.iter().enumerate() {
            if !consumed[i] {
                return Err(format!(
                    "key {:?} does not apply to policy {:?}",
                    p.key,
                    policy_name(&spec.policy)
                ));
            }
        }
        if !lambda_set {
            return Err("model spec needs lambda=<rate> (or a preset name)".into());
        }
        spec.validate()?;
        Ok(spec)
    }

    fn policy_name(p: &PolicySpec) -> &'static str {
        match p {
            PolicySpec::NoSteal => "none",
            PolicySpec::OnEmpty { .. } => "steal",
            PolicySpec::Preemptive { .. } => "preemptive",
            PolicySpec::Repeated { .. } => "repeated",
            PolicySpec::Rebalance { .. } => "rebalance",
            PolicySpec::Share { .. } => "share",
        }
    }

    /// A policy keyword with its parameter defaults; `T=`/`r=`/… pairs
    /// then overwrite individual fields.
    fn default_policy(name: &str) -> Result<PolicySpec, String> {
        Ok(match name {
            "none" => PolicySpec::NoSteal,
            "steal" => PolicySpec::OnEmpty {
                threshold: 2,
                choices: 1,
                batch: 1,
            },
            "preemptive" => PolicySpec::Preemptive {
                begin_at: 1,
                rel_threshold: 2,
            },
            "repeated" => PolicySpec::Repeated {
                rate: 1.0,
                threshold: 2,
            },
            "rebalance" => PolicySpec::Rebalance {
                rate: 1.0,
                per_task: false,
            },
            "share" => PolicySpec::Share {
                send_threshold: 2,
                recv_threshold: 1,
            },
            other => {
                return Err(format!(
                    "unknown policy {other:?} (none|steal|preemptive|repeated|rebalance|share)"
                ))
            }
        })
    }

    fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{key}={value:?} is not a valid number"))
    }

    /// Apply one pair to the spec; returns whether the key applied.
    fn apply_pair(spec: &mut ModelSpec, p: &Pair, lambda_set: &mut bool) -> Result<bool, String> {
        let Pair { key, value } = *p;
        match key {
            "lambda" | "l" => {
                spec.lambda = num(key, value)?;
                *lambda_set = true;
            }
            "T" | "threshold" => match &mut spec.policy {
                PolicySpec::OnEmpty { threshold, .. } | PolicySpec::Repeated { threshold, .. } => {
                    *threshold = num(key, value)?
                }
                PolicySpec::Preemptive { rel_threshold, .. } => *rel_threshold = num(key, value)?,
                _ => return Ok(false),
            },
            "d" | "choices" => match &mut spec.policy {
                PolicySpec::OnEmpty { choices, .. } => *choices = num(key, value)?,
                _ => return Ok(false),
            },
            "k" | "batch" => match &mut spec.policy {
                PolicySpec::OnEmpty { batch, .. } => *batch = num(key, value)?,
                _ => return Ok(false),
            },
            "B" | "begin" => match &mut spec.policy {
                PolicySpec::Preemptive { begin_at, .. } => *begin_at = num(key, value)?,
                _ => return Ok(false),
            },
            "r" | "rate" => match &mut spec.policy {
                PolicySpec::Repeated { rate, .. } | PolicySpec::Rebalance { rate, .. } => {
                    *rate = num(key, value)?
                }
                _ => return Ok(false),
            },
            "per-task" => match &mut spec.policy {
                PolicySpec::Rebalance { per_task, .. } => {
                    *per_task = match value {
                        "true" => true,
                        "false" => false,
                        _ => return Err(format!("per-task={value:?} must be true or false")),
                    }
                }
                _ => return Ok(false),
            },
            "send" => match &mut spec.policy {
                PolicySpec::Share { send_threshold, .. } => *send_threshold = num(key, value)?,
                _ => return Ok(false),
            },
            "recv" => match &mut spec.policy {
                PolicySpec::Share { recv_threshold, .. } => *recv_threshold = num(key, value)?,
                _ => return Ok(false),
            },
            "service" => spec.service = parse_service(value)?,
            "arrival" => spec.arrival = parse_arrival(value)?,
            "transfer" => spec.transfer_rate = Some(num(key, value)?),
            "speeds" => spec.speeds = parse_speeds(value)?,
            other => return Err(format!("unknown spec key {other:?}")),
        }
        Ok(true)
    }

    fn parse_service(value: &str) -> Result<ServiceSpec, String> {
        let mut parts = value.split(':');
        let kind = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        match (kind, args.as_slice()) {
            ("exp", []) => Ok(ServiceSpec::Exponential),
            ("det", []) => Ok(ServiceSpec::Deterministic),
            ("erlang", [stages]) => Ok(ServiceSpec::Erlang {
                stages: num("service=erlang", stages)?,
            }),
            ("hyper", [p, rate1, rate2]) => Ok(ServiceSpec::HyperExp {
                p: num("service=hyper p", p)?,
                rate1: num("service=hyper rate1", rate1)?,
                rate2: num("service=hyper rate2", rate2)?,
            }),
            _ => Err(format!(
                "service={value:?} must be exp, det, erlang:<stages>, or hyper:<p>:<rate1>:<rate2>"
            )),
        }
    }

    fn parse_arrival(value: &str) -> Result<ArrivalSpec, String> {
        let mut parts = value.split(':');
        let kind = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        match (kind, args.as_slice()) {
            ("poisson", []) => Ok(ArrivalSpec::Poisson),
            ("erlang", [phases]) => Ok(ArrivalSpec::Erlang {
                phases: num("arrival=erlang", phases)?,
            }),
            _ => Err(format!(
                "arrival={value:?} must be poisson or erlang:<phases>"
            )),
        }
    }

    fn parse_speeds(value: &str) -> Result<SpeedSpec, String> {
        let mut parts = value.split(':');
        let kind = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        match (kind, args.as_slice()) {
            ("homogeneous", []) => Ok(SpeedSpec::Homogeneous),
            ("classes", [frac, fast, slow]) => Ok(SpeedSpec::TwoClass {
                fast_fraction: num("speeds=classes fraction", frac)?,
                fast_rate: num("speeds=classes fast", fast)?,
                slow_rate: num("speeds=classes slow", slow)?,
            }),
            _ => Err(format!(
                "speeds={value:?} must be homogeneous or classes:<fraction>:<fast>:<slow>"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_elides_defaults() {
        let spec = ModelSpec::simple_ws(0.9);
        assert_eq!(spec.to_string(), "lambda=0.9,policy=steal,T=2,d=1,k=1");
    }

    #[test]
    fn parse_roundtrips_canonical_string() {
        let spec = ModelSpec {
            lambda: 0.85,
            arrival: ArrivalSpec::Erlang { phases: 5 },
            service: ServiceSpec::Erlang { stages: 10 },
            policy: PolicySpec::OnEmpty {
                threshold: 6,
                choices: 1,
                batch: 3,
            },
            transfer_rate: None,
            speeds: SpeedSpec::Homogeneous,
        };
        // This combination has no mean-field model, but it must still
        // round-trip through the grammar.
        assert_eq!(ModelSpec::parse(&spec.to_string()), Ok(spec));
    }

    #[test]
    fn preset_name_with_override() {
        let spec = ModelSpec::parse("simple-ws,lambda=0.5").unwrap();
        assert_eq!(spec, ModelSpec::simple_ws(0.5));
    }

    #[test]
    fn later_keys_win() {
        let spec = ModelSpec::parse("lambda=0.9,lambda=0.7").unwrap();
        assert_eq!(spec.lambda, 0.7);
    }

    #[test]
    fn policy_param_for_wrong_policy_rejected() {
        let err = ModelSpec::parse("lambda=0.9,policy=none,T=4").unwrap_err();
        assert!(err.contains("does not apply"), "{err}");
    }

    #[test]
    fn unknown_key_rejected() {
        let err = ModelSpec::parse("lambda=0.9,frobnicate=2").unwrap_err();
        assert!(err.contains("unknown spec key"), "{err}");
    }

    #[test]
    fn unknown_preset_rejected() {
        let err = ModelSpec::parse("bogus-preset").unwrap_err();
        assert!(err.contains("unknown model preset"), "{err}");
    }

    #[test]
    fn missing_lambda_rejected() {
        let err = ModelSpec::parse("policy=steal,T=4").unwrap_err();
        assert!(err.contains("lambda"), "{err}");
    }

    #[test]
    fn invalid_batch_rejected_by_validate() {
        let err = ModelSpec::parse("lambda=0.9,policy=steal,T=4,k=3").unwrap_err();
        assert!(err.contains("1 ≤ k ≤ T/2"), "{err}");
    }

    #[test]
    fn simple_ws_dispatch_matches_closed_form() {
        let spec = ModelSpec::simple_ws(0.9);
        let fp = spec.fixed_point().unwrap();
        assert!((fp.mean_time_in_system - 3.541).abs() < 5e-3);
    }

    #[test]
    fn dispatch_covers_every_policy() {
        let cases = [
            ("lambda=0.8,policy=none", "no stealing"),
            // Every on-empty spec without a §3 refinement solves the
            // one combined ODE.
            (
                "lambda=0.9,policy=steal,T=2",
                "general WS (λ = 0.9, T = 2, d = 1, k = 1)",
            ),
            (
                "lambda=0.85,policy=steal,T=4",
                "general WS (λ = 0.85, T = 4, d = 1, k = 1)",
            ),
            (
                "lambda=0.9,policy=steal,T=2,d=2",
                "general WS (λ = 0.9, T = 2, d = 2, k = 1)",
            ),
            (
                "lambda=0.85,policy=steal,T=6,k=3",
                "general WS (λ = 0.85, T = 6, d = 1, k = 3)",
            ),
            ("lambda=0.9,policy=steal,T=6,d=2,k=3", "general WS"),
            ("lambda=0.85,policy=preemptive,B=1,T=3", "preemptive WS"),
            ("lambda=0.9,policy=repeated,r=2,T=2", "repeated-attempt WS"),
            ("lambda=0.8,policy=rebalance,r=0.5", "rebalanc"),
            ("lambda=0.9,policy=share,send=2,recv=2", "work sharing"),
            (
                "lambda=0.8,policy=steal,T=2,service=erlang:20",
                "erlang-stage WS",
            ),
            (
                "lambda=0.8,policy=steal,T=2,arrival=erlang:5",
                "erlang-arrival WS",
            ),
            ("lambda=0.8,policy=steal,T=4,transfer=0.25", "transfer WS"),
            (
                "lambda=0.8,policy=steal,T=2,service=hyper:0.1:0.2:1.8",
                "hyperexp-service WS",
            ),
            (
                "lambda=0.8,policy=steal,T=2,speeds=classes:0.5:1.2:0.9",
                "heterogeneous WS",
            ),
        ];
        for (s, name_fragment) in cases {
            let spec = ModelSpec::parse(s).unwrap();
            let model = spec.mean_field().unwrap_or_else(|e| panic!("{s}: {e}"));
            let name = model.name();
            assert!(
                name.contains(name_fragment),
                "{s} dispatched to {name:?}, expected a name containing {name_fragment:?}"
            );
        }
    }

    #[test]
    fn cross_product_threshold_erlang_dispatches() {
        let spec = ModelSpec::parse("lambda=0.8,policy=steal,T=4,service=erlang:10").unwrap();
        let fp = spec.fixed_point().unwrap();
        // Busy fraction equals λ for any conservative unit-speed system.
        assert!((fp.task_tails[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn unsupported_combination_is_typed() {
        // Multi-choice stealing with transfer delays has no equations.
        let spec = ModelSpec::parse("lambda=0.8,policy=steal,T=4,d=2,transfer=0.25").unwrap();
        let err = spec.mean_field().unwrap_err();
        assert_eq!(err.field, "choices");
        // ... but bursty service with rebalancing fails on the service field.
        let spec = ModelSpec::parse("lambda=0.8,policy=rebalance,r=0.5,service=erlang:4").unwrap();
        assert_eq!(spec.mean_field().unwrap_err().field, "service");
    }

    #[test]
    fn constructor_errors_name_the_field_at_fault() {
        // Too many Erlang stages is the service field's fault ...
        let spec = ModelSpec::parse("lambda=0.9,service=erlang:7501").unwrap();
        let err = spec.mean_field().unwrap_err();
        assert_eq!(err.field, "service", "{err}");
        // ... while an unstable arrival rate stays the rate's fault.
        let spec = ModelSpec::parse("lambda=1.2,service=erlang:4").unwrap();
        let err = spec.mean_field().unwrap_err();
        assert_eq!(err.field, "lambda", "{err}");
    }

    #[test]
    fn deterministic_service_unsupported_but_parsable() {
        let spec = ModelSpec::parse("lambda=0.8,policy=steal,T=2,service=det").unwrap();
        let err = spec.mean_field().unwrap_err();
        assert_eq!(err.field, "service");
    }

    #[test]
    fn dominance_flags_match_zoo_conventions() {
        let hetero =
            ModelSpec::parse("lambda=0.8,policy=steal,T=2,speeds=classes:0.5:1.2:0.9").unwrap();
        assert!(!hetero.busy_is_lambda());
        assert!(!hetero.dominates_no_steal());
        let hyper =
            ModelSpec::parse("lambda=0.8,policy=steal,T=2,service=hyper:0.1:0.2:1.8").unwrap();
        assert!(hyper.busy_is_lambda());
        assert!(!hyper.dominates_no_steal(), "scv {}", hyper.service.scv());
        assert!(ModelSpec::simple_ws(0.9).dominates_no_steal());
        assert!(!ModelSpec::parse("lambda=0.8,policy=none")
            .unwrap()
            .dominates_no_steal());
    }

    #[test]
    fn any_model_retruncates_in_place() {
        let spec = ModelSpec::simple_ws(0.9);
        let m = spec.mean_field().unwrap();
        let bigger = m.with_truncation(m.truncation() + 8);
        assert_eq!(bigger.truncation(), m.truncation() + 8);
        assert_eq!(bigger.name(), m.name());
    }
}

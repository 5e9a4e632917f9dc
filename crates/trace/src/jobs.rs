//! Per-job causal reconstruction: from a `job_*` event stream back to
//! individual job timelines, migration chains, and a three-way sojourn
//! decomposition.
//!
//! The simulator's opt-in job tracing (`--trace-jobs`) gives every task
//! a stable identity and reports four lifecycle moments: `job_arrival`
//! (the job enters the system), `job_migrate` (it is stolen, shared, or
//! rebalanced from one processor to another, with the transfer delay it
//! paid), `job_service_start` (it reaches the front of a queue and
//! begins service), and `job_completion` (it leaves). Because steals in
//! the paper's models only ever move *tail* tasks, the in-service task
//! never migrates: every job has exactly one service start, and all of
//! its migrations precede it. The sojourn therefore decomposes exactly:
//!
//! ```text
//! sojourn  =  queue wait  +  transfer time  +  service time
//! service  =  completion − service_start
//! transfer =  Σ migration delays
//! wait     =  (service_start − arrival) − transfer
//! ```
//!
//! [`JobAnalysis::build`] replays a trace into this decomposition plus
//! migration-chain statistics (hops per job, chain shape, per-hop
//! delays) and migrated-vs-local sojourn distributions — the
//! measurement side of the paper's claim that stealing trades a little
//! transfer time for a lot of queueing time.
//!
//! The reconstructor is tolerant by design: traces may be truncated
//! (jobs still in flight at the horizon), lossy-read (lines dropped by
//! `ReadMode::Lossy`), or interleaved from `--runs > 1` (job ids
//! collide across runs). Inconsistencies are counted in
//! [`JobAnomalies`], never panicked on, and anomalous jobs are excluded
//! from the aggregates.

use std::collections::BTreeMap;

use loadsteal_obs::{Digest, Event, JobEventKind};

/// One migration hop in a job's causal chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// When the job landed on the destination.
    pub t: f64,
    /// Donor processor.
    pub src: u32,
    /// Receiving processor.
    pub dst: u32,
    /// Transfer delay paid for this hop (0 for instantaneous moves).
    pub delay: f64,
}

/// The reconstructed lifecycle of a single job.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Arrival time, once observed.
    pub arrival_t: Option<f64>,
    /// Processor the job first arrived at.
    pub arrival_proc: u32,
    /// Migration hops in trace order.
    pub hops: Vec<Hop>,
    /// Service start time, once observed.
    pub service_start_t: Option<f64>,
    /// Processor that served the job.
    pub service_proc: u32,
    /// Completion time, once observed.
    pub completion_t: Option<f64>,
    /// Processor the completion was reported on.
    pub completion_proc: u32,
    /// Set when this job's event sequence violated the lifecycle
    /// (duplicate arrival, migration after service start, …); such
    /// jobs are excluded from the aggregates.
    pub anomalous: bool,
}

impl JobRecord {
    /// Where the job currently sits according to the chain so far:
    /// arrival processor, then the destination of the last hop.
    fn location(&self) -> u32 {
        self.hops.last().map_or(self.arrival_proc, |h| h.dst)
    }

    /// Total transfer delay across all hops.
    pub fn transfer(&self) -> f64 {
        self.hops.iter().map(|h| h.delay).sum()
    }

    /// The three-way decomposition `(wait, transfer, service)`, when
    /// the lifecycle is complete and consistent.
    pub fn decompose(&self) -> Option<(f64, f64, f64)> {
        let (a, s, c) = (self.arrival_t?, self.service_start_t?, self.completion_t?);
        if self.anomalous {
            return None;
        }
        let transfer = self.transfer();
        Some((s - a - transfer, transfer, c - s))
    }

    /// Full sojourn `completion − arrival`, when both ends were seen.
    pub fn sojourn(&self) -> Option<f64> {
        Some(self.completion_t? - self.arrival_t?)
    }
}

/// Lifecycle inconsistencies observed during replay. Nonzero fields
/// mean the trace is truncated, lossy-read, or interleaves multiple
/// runs (`--runs > 1` reuses job ids across replications).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobAnomalies {
    /// `job_arrival` seen for an id that already arrived.
    pub duplicate_arrivals: u64,
    /// `job_migrate` after the job's service had started.
    pub migrations_after_service: u64,
    /// `job_migrate` whose `src` does not match the job's current
    /// location (broken causal chain — usually a dropped line).
    pub chain_breaks: u64,
    /// `job_service_start` seen twice for one id.
    pub duplicate_service_starts: u64,
    /// `job_completion` seen twice for one id.
    pub duplicate_completions: u64,
    /// Lifecycle events for ids with no observed `job_arrival`.
    pub orphan_events: u64,
    /// Events whose timestamp ran backwards within one job's chain.
    pub time_regressions: u64,
}

impl JobAnomalies {
    /// Total inconsistencies of any kind.
    pub fn total(&self) -> u64 {
        self.duplicate_arrivals
            + self.migrations_after_service
            + self.chain_breaks
            + self.duplicate_service_starts
            + self.duplicate_completions
            + self.orphan_events
            + self.time_regressions
    }
}

/// Aggregated decomposition and chain statistics over completed,
/// consistent jobs (optionally restricted to completions at or after a
/// warmup boundary).
#[derive(Debug, Clone, Default)]
pub struct JobAnalysis {
    /// Jobs whose `job_arrival` was observed.
    pub arrived: u64,
    /// Jobs with a full consistent lifecycle inside the measurement
    /// window (these feed every digest below).
    pub completed: u64,
    /// Completed jobs that migrated at least once.
    pub migrated: u64,
    /// Total migration hops across completed jobs.
    pub hops: u64,
    /// Longest migration chain (hops) seen on a completed job.
    pub longest_chain: u64,
    /// Id of a job attaining `longest_chain`: the lowest among ties,
    /// which is the first to arrive, since ids are minted at admission.
    pub longest_chain_job: Option<u64>,
    /// Queue-wait component distribution.
    pub wait: Digest,
    /// Transfer component distribution.
    pub transfer: Digest,
    /// Service component distribution.
    pub service: Digest,
    /// Full sojourn distribution (all completed jobs).
    pub sojourn: Digest,
    /// Sojourns of jobs that migrated at least once.
    pub sojourn_migrated: Digest,
    /// Sojourns of jobs served where they arrived.
    pub sojourn_local: Digest,
    /// Per-hop transfer delays (zero-delay hops included).
    pub hop_delay: Digest,
    /// Inconsistencies found during replay.
    pub anomalies: JobAnomalies,
    /// Warmup boundary applied (completions before it are replayed for
    /// causality but excluded from the aggregates, mirroring the
    /// simulator's own online statistics).
    pub warmup: f64,
}

impl JobAnalysis {
    /// Replay `events` into per-job timelines and aggregate the
    /// decomposition over jobs completing at or after `warmup`.
    pub fn build(events: &[Event], warmup: f64) -> Self {
        let (analysis, _) = Self::build_with_records(events, warmup);
        analysis
    }

    /// As [`build`](Self::build), additionally returning the raw
    /// per-job records (keyed by job id) for callers that need the
    /// individual timelines — tests, invariant checks, drill-downs.
    ///
    /// Jobs are folded into the aggregates in id order, so the result
    /// does not depend on anything but the events.
    pub fn build_with_records(events: &[Event], warmup: f64) -> (Self, BTreeMap<u64, JobRecord>) {
        let mut jobs: BTreeMap<u64, JobRecord> = BTreeMap::new();
        let mut an = JobAnomalies::default();

        for ev in events {
            let Event::Job {
                kind,
                t,
                job,
                proc,
                src,
                delay,
            } = *ev
            else {
                continue;
            };
            match kind {
                JobEventKind::Arrival => {
                    let rec = jobs.entry(job).or_default();
                    if rec.arrival_t.is_some() {
                        an.duplicate_arrivals += 1;
                        rec.anomalous = true;
                    } else {
                        rec.arrival_t = Some(t);
                        rec.arrival_proc = proc;
                    }
                }
                JobEventKind::Migrate => {
                    let rec = match jobs.get_mut(&job) {
                        Some(r) if r.arrival_t.is_some() => r,
                        _ => {
                            an.orphan_events += 1;
                            continue;
                        }
                    };
                    if rec.service_start_t.is_some() {
                        an.migrations_after_service += 1;
                        rec.anomalous = true;
                    }
                    let from = src.unwrap_or(rec.location());
                    if from != rec.location() {
                        an.chain_breaks += 1;
                        rec.anomalous = true;
                    }
                    let last_t = rec.hops.last().map_or(rec.arrival_t.unwrap(), |h| h.t);
                    if t < last_t {
                        an.time_regressions += 1;
                        rec.anomalous = true;
                    }
                    rec.hops.push(Hop {
                        t,
                        src: from,
                        dst: proc,
                        delay,
                    });
                }
                JobEventKind::ServiceStart => {
                    let rec = match jobs.get_mut(&job) {
                        Some(r) if r.arrival_t.is_some() => r,
                        _ => {
                            an.orphan_events += 1;
                            continue;
                        }
                    };
                    if rec.service_start_t.is_some() {
                        an.duplicate_service_starts += 1;
                        rec.anomalous = true;
                        continue;
                    }
                    let last_t = rec.hops.last().map_or(rec.arrival_t.unwrap(), |h| h.t);
                    if t < last_t {
                        an.time_regressions += 1;
                        rec.anomalous = true;
                    }
                    rec.service_start_t = Some(t);
                    rec.service_proc = proc;
                }
                JobEventKind::Completion => {
                    let rec = match jobs.get_mut(&job) {
                        Some(r) if r.arrival_t.is_some() => r,
                        _ => {
                            an.orphan_events += 1;
                            continue;
                        }
                    };
                    if rec.completion_t.is_some() {
                        an.duplicate_completions += 1;
                        rec.anomalous = true;
                        continue;
                    }
                    match rec.service_start_t {
                        Some(s) if t >= s => {}
                        _ => {
                            an.time_regressions += 1;
                            rec.anomalous = true;
                        }
                    }
                    rec.completion_t = Some(t);
                    rec.completion_proc = proc;
                }
            }
        }

        let mut out = JobAnalysis {
            warmup,
            anomalies: an,
            ..JobAnalysis::default()
        };
        for (&id, rec) in &jobs {
            if rec.arrival_t.is_some() {
                out.arrived += 1;
            }
            let Some((wait, transfer, service)) = rec.decompose() else {
                continue;
            };
            let completion = rec.completion_t.unwrap();
            if completion < warmup {
                continue;
            }
            // A consistent lifecycle can still have a (numerically)
            // negative wait only through float cancellation; clamp the
            // digest input, the identity check elsewhere uses raw sums.
            out.completed += 1;
            out.wait.record(wait.max(0.0));
            out.transfer.record(transfer);
            out.service.record(service);
            let sojourn = rec.sojourn().unwrap();
            out.sojourn.record(sojourn);
            if rec.hops.is_empty() {
                out.sojourn_local.record(sojourn);
            } else {
                out.migrated += 1;
                out.sojourn_migrated.record(sojourn);
                out.hops += rec.hops.len() as u64;
                for h in &rec.hops {
                    out.hop_delay.record(h.delay);
                }
                if rec.hops.len() as u64 > out.longest_chain {
                    out.longest_chain = rec.hops.len() as u64;
                    out.longest_chain_job = Some(id);
                }
            }
        }
        (out, jobs)
    }

    /// Fraction of completed jobs that migrated at least once.
    pub fn migrated_fraction(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.migrated as f64 / self.completed as f64
        }
    }

    /// Mean hops per migrated job.
    pub fn hops_per_migrated(&self) -> f64 {
        if self.migrated == 0 {
            0.0
        } else {
            self.hops as f64 / self.migrated as f64
        }
    }
}

/// Format a `(mean, p50, p90, p99)` digest row.
fn digest_row(out: &mut String, label: &str, d: &Digest, share_of: Option<f64>) {
    let q = |p: f64| match d.quantile(p) {
        // `+ 0.0` normalizes the interpolator's occasional -0.0.
        Some(v) => format!("{:>10.4}", v + 0.0),
        None => format!("{:>10}", "—"),
    };
    let share = match share_of {
        Some(total) if total > 0.0 => format!("{:>7.1}%", 100.0 * d.mean() / total),
        _ => format!("{:>8}", ""),
    };
    out.push_str(&format!(
        "  {label:<18}{:>10.4}{}{}{}{share}\n",
        d.mean(),
        q(0.5),
        q(0.9),
        q(0.99),
    ));
}

/// Render the job-level report: decomposition table, migrated-vs-local
/// comparison, and chain statistics.
pub fn render_jobs(a: &JobAnalysis) -> String {
    let mut out = String::new();
    out.push_str("job lifecycle summary\n");
    out.push_str(&format!("  jobs arrived        {:>10}\n", a.arrived));
    out.push_str(&format!(
        "  jobs completed      {:>10}  (measured from t ≥ {:.1})\n",
        a.completed, a.warmup
    ));
    out.push_str(&format!(
        "  jobs migrated       {:>10}  ({:.2}% of completed)\n",
        a.migrated,
        100.0 * a.migrated_fraction()
    ));
    if a.anomalies.total() > 0 {
        let an = &a.anomalies;
        out.push_str(&format!(
            "  WARNING: {} lifecycle inconsistencies (dup arrivals {}, post-service migrations {}, chain breaks {}, dup starts {}, dup completions {}, orphans {}, time regressions {}) — trace is truncated, lossy, or interleaves --runs > 1; anomalous jobs excluded\n",
            an.total(),
            an.duplicate_arrivals,
            an.migrations_after_service,
            an.chain_breaks,
            an.duplicate_service_starts,
            an.duplicate_completions,
            an.orphan_events,
            an.time_regressions,
        ));
    }
    if a.completed == 0 {
        out.push_str("  no completed jobs in the measurement window\n");
        return out;
    }

    out.push('\n');
    out.push_str("sojourn decomposition  (sojourn = wait + transfer + service)\n");
    out.push_str(&format!(
        "  {:<18}{:>10}{:>10}{:>10}{:>10}{:>8}\n",
        "component", "mean", "p50", "p90", "p99", "share"
    ));
    let total = a.sojourn.mean();
    digest_row(&mut out, "queue wait", &a.wait, Some(total));
    digest_row(&mut out, "transfer", &a.transfer, Some(total));
    digest_row(&mut out, "service", &a.service, Some(total));
    digest_row(&mut out, "sojourn", &a.sojourn, None);

    out.push('\n');
    out.push_str("migrated vs local jobs\n");
    out.push_str(&format!(
        "  {:<18}{:>10}{:>10}{:>10}{:>10}{:>8}\n",
        "sojourn of", "mean", "p50", "p90", "p99", "count"
    ));
    let count_row = |out: &mut String, label: &str, d: &Digest| {
        let q = |p: f64| match d.quantile(p) {
            Some(v) => format!("{v:>10.4}"),
            None => format!("{:>10}", "—"),
        };
        out.push_str(&format!(
            "  {label:<18}{:>10.4}{}{}{}{:>8}\n",
            d.mean(),
            q(0.5),
            q(0.9),
            q(0.99),
            d.count(),
        ));
    };
    count_row(&mut out, "local jobs", &a.sojourn_local);
    count_row(&mut out, "migrated jobs", &a.sojourn_migrated);

    if a.migrated > 0 {
        out.push('\n');
        out.push_str("migration chains\n");
        out.push_str(&format!(
            "  hops (total)        {:>10}  ({:.3} per migrated job)\n",
            a.hops,
            a.hops_per_migrated()
        ));
        let chain = match a.longest_chain_job {
            Some(id) => format!("  (job {id})"),
            None => String::new(),
        };
        out.push_str(&format!(
            "  longest chain       {:>10}{chain}\n",
            a.longest_chain
        ));
        out.push_str(&format!(
            "  hop delay           {:>10.4} mean, {:.4} max\n",
            a.hop_delay.mean(),
            a.hop_delay.max().unwrap_or(0.0)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(kind: JobEventKind, t: f64, job: u64, proc: u32) -> Event {
        Event::Job {
            kind,
            t,
            job,
            proc,
            src: None,
            delay: 0.0,
        }
    }

    fn migrate(t: f64, id: u64, dst: u32, src: u32, delay: f64) -> Event {
        Event::Job {
            kind: JobEventKind::Migrate,
            t,
            job: id,
            proc: dst,
            src: Some(src),
            delay,
        }
    }

    /// A deterministic SplitMix64 so property tests need no external
    /// randomness crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Generate a random but causally-valid trace of `n` jobs; returns
    /// the events plus each job's expected (wait, transfer, service).
    fn synthetic_trace(seed: u64, n: u64) -> (Vec<Event>, Vec<(f64, f64, f64)>) {
        let mut rng = Rng(seed);
        let mut events = Vec::new();
        let mut expected = Vec::new();
        for id in 0..n {
            let arrival = rng.f64() * 100.0;
            let mut proc = rng.below(16) as u32;
            events.push(job(JobEventKind::Arrival, arrival, id, proc));
            let mut t = arrival;
            let mut transfer = 0.0;
            for _ in 0..rng.below(4) {
                let dst = (proc + 1 + rng.below(15) as u32) % 16;
                let delay = if rng.below(3) == 0 { 0.0 } else { rng.f64() };
                t += delay + rng.f64() * 0.5; // queueing between hops
                events.push(migrate(t, id, dst, proc, delay));
                transfer += delay;
                proc = dst;
            }
            let start = t + rng.f64();
            events.push(job(JobEventKind::ServiceStart, start, id, proc));
            let service = rng.f64() + 0.01;
            events.push(job(JobEventKind::Completion, start + service, id, proc));
            expected.push((start - arrival - transfer, transfer, service));
        }
        (events, expected)
    }

    #[test]
    fn single_job_decomposes_exactly() {
        let events = [
            job(JobEventKind::Arrival, 1.0, 7, 3),
            migrate(2.5, 7, 9, 3, 0.75),
            job(JobEventKind::ServiceStart, 4.0, 7, 9),
            job(JobEventKind::Completion, 6.0, 7, 9),
        ];
        let (a, recs) = JobAnalysis::build_with_records(&events, 0.0);
        assert_eq!(a.completed, 1);
        assert_eq!(a.migrated, 1);
        assert_eq!(a.anomalies.total(), 0);
        let (w, tr, s) = recs[&7].decompose().unwrap();
        assert!((w - 2.25).abs() < 1e-12, "wait {w}");
        assert!((tr - 0.75).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert!((w + tr + s - recs[&7].sojourn().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn local_job_has_zero_transfer() {
        let events = [
            job(JobEventKind::Arrival, 0.0, 1, 0),
            job(JobEventKind::ServiceStart, 0.5, 1, 0),
            job(JobEventKind::Completion, 1.5, 1, 0),
        ];
        let a = JobAnalysis::build(&events, 0.0);
        assert_eq!(a.migrated, 0);
        assert_eq!(a.transfer.mean(), 0.0);
        assert_eq!(a.sojourn_local.count(), 1);
        assert_eq!(a.sojourn_migrated.count(), 0);
    }

    #[test]
    fn warmup_excludes_early_completions() {
        let mut events = Vec::new();
        for (id, base) in [(0u64, 0.0), (1, 50.0)] {
            events.push(job(JobEventKind::Arrival, base, id, 0));
            events.push(job(JobEventKind::ServiceStart, base + 1.0, id, 0));
            events.push(job(JobEventKind::Completion, base + 2.0, id, 0));
        }
        let a = JobAnalysis::build(&events, 10.0);
        assert_eq!(a.arrived, 2);
        assert_eq!(a.completed, 1); // only the job completing at t = 52
    }

    #[test]
    fn incomplete_jobs_are_not_aggregated() {
        // Truncated trace: job 2 never completes, job 3 never starts.
        let events = [
            job(JobEventKind::Arrival, 0.0, 2, 0),
            job(JobEventKind::ServiceStart, 1.0, 2, 0),
            job(JobEventKind::Arrival, 0.5, 3, 1),
        ];
        let a = JobAnalysis::build(&events, 0.0);
        assert_eq!(a.arrived, 2);
        assert_eq!(a.completed, 0);
        assert_eq!(a.anomalies.total(), 0); // truncation is not an anomaly
    }

    #[test]
    fn longest_chain_ties_name_the_lowest_id_every_time() {
        // Sixteen jobs arrive in id order; the eight even ids take two
        // hops, the odd ones one.
        let mut events = Vec::new();
        for id in 3..19u64 {
            let t = id as f64;
            let hops = if id % 2 == 0 { 2 } else { 1 };
            events.push(job(JobEventKind::Arrival, t, id, 0));
            for h in 0..hops {
                events.push(migrate(t + 0.1 * f64::from(h + 1), id, h + 1, h, 0.0));
            }
            events.push(job(JobEventKind::ServiceStart, t + 0.5, id, hops));
            events.push(job(JobEventKind::Completion, t + 0.9, id, hops));
        }
        for _ in 0..32 {
            let a = JobAnalysis::build(&events, 0.0);
            assert_eq!((a.longest_chain, a.longest_chain_job), (2, Some(4)));
        }
    }

    #[test]
    fn lifecycle_violations_are_counted_and_quarantined() {
        let events = [
            job(JobEventKind::Arrival, 0.0, 1, 0),
            job(JobEventKind::Arrival, 0.1, 1, 2), // duplicate
            job(JobEventKind::ServiceStart, 1.0, 1, 0),
            migrate(2.0, 1, 3, 0, 0.5), // after service start
            job(JobEventKind::Completion, 3.0, 1, 3),
            job(JobEventKind::Completion, 4.0, 9, 0), // orphan: never arrived
        ];
        let (a, recs) = JobAnalysis::build_with_records(&events, 0.0);
        assert_eq!(a.anomalies.duplicate_arrivals, 1);
        assert_eq!(a.anomalies.migrations_after_service, 1);
        assert_eq!(a.anomalies.orphan_events, 1);
        assert!(recs[&1].anomalous);
        assert_eq!(a.completed, 0, "anomalous job must not feed aggregates");
    }

    #[test]
    fn chain_breaks_are_detected() {
        // Hop claims src = 5 but the job sits on proc 0.
        let events = [
            job(JobEventKind::Arrival, 0.0, 1, 0),
            migrate(1.0, 1, 2, 5, 0.1),
            job(JobEventKind::ServiceStart, 2.0, 1, 2),
            job(JobEventKind::Completion, 3.0, 1, 2),
        ];
        let a = JobAnalysis::build(&events, 0.0);
        assert_eq!(a.anomalies.chain_breaks, 1);
        assert_eq!(a.completed, 0);
    }

    #[test]
    fn property_every_completion_pairs_with_one_arrival() {
        for seed in 1..=8u64 {
            let (events, _) = synthetic_trace(seed, 50);
            let (a, recs) = JobAnalysis::build_with_records(&events, 0.0);
            assert_eq!(a.anomalies.total(), 0, "seed {seed}");
            assert_eq!(a.completed, 50, "seed {seed}");
            for (id, r) in &recs {
                assert!(r.arrival_t.is_some(), "job {id} completed sans arrival");
                assert!(r.completion_t.is_some());
            }
        }
    }

    #[test]
    fn property_chains_are_time_ordered_and_acyclic_in_time() {
        for seed in 11..=18u64 {
            let (events, _) = synthetic_trace(seed, 40);
            let (_, recs) = JobAnalysis::build_with_records(&events, 0.0);
            for (id, r) in &recs {
                let mut t = r.arrival_t.unwrap();
                let mut loc = r.arrival_proc;
                for h in &r.hops {
                    assert!(h.t >= t, "job {id}: hop time ran backwards");
                    assert_eq!(h.src, loc, "job {id}: chain broken");
                    assert_ne!(h.src, h.dst, "job {id}: self-hop");
                    t = h.t;
                    loc = h.dst;
                }
                assert!(r.service_start_t.unwrap() >= t, "job {id}");
                assert_eq!(r.service_proc, loc, "job {id}: served off-chain");
                assert!(r.completion_t.unwrap() >= r.service_start_t.unwrap());
            }
        }
    }

    #[test]
    fn property_components_nonnegative_and_sum_to_sojourn() {
        for seed in 21..=28u64 {
            let (events, expected) = synthetic_trace(seed, 60);
            let (_, recs) = JobAnalysis::build_with_records(&events, 0.0);
            for (id, want) in expected.iter().enumerate() {
                let r = &recs[&(id as u64)];
                let (w, tr, s) = r.decompose().unwrap();
                assert!(w >= -1e-9 && tr >= 0.0 && s >= 0.0, "job {id}");
                let sojourn = r.sojourn().unwrap();
                assert!(
                    (w + tr + s - sojourn).abs() < 1e-9,
                    "job {id}: {w} + {tr} + {s} != {sojourn}"
                );
                assert!((w - want.0).abs() < 1e-9, "job {id} wait");
                assert!((tr - want.1).abs() < 1e-9, "job {id} transfer");
                assert!((s - want.2).abs() < 1e-9, "job {id} service");
            }
        }
    }

    #[test]
    fn property_lossy_traces_degrade_to_counted_anomalies() {
        // Drop random lines (simulating ReadMode::Lossy survivors) and
        // require: no panic, anomaly counts consistent, surviving
        // complete jobs still decompose exactly.
        for seed in 31..=36u64 {
            let (events, _) = synthetic_trace(seed, 40);
            let mut rng = Rng(seed ^ 0xDEAD);
            let kept: Vec<Event> = events
                .iter()
                .copied()
                .filter(|_| rng.below(5) != 0) // drop ~20%
                .collect();
            let (a, recs) = JobAnalysis::build_with_records(&kept, 0.0);
            for r in recs.values() {
                if let Some((w, tr, s)) = r.decompose() {
                    let sojourn = r.sojourn().unwrap();
                    assert!((w + tr + s - sojourn).abs() < 1e-9);
                }
            }
            // Dropped arrivals orphan later events; dropped hops break
            // chains. Both must surface as counts, not silent misdata.
            let dropped = events.len() - kept.len();
            if dropped > 0 {
                assert!(a.completed <= 40);
            }
        }
    }

    #[test]
    fn render_mentions_every_section() {
        let (events, _) = synthetic_trace(5, 30);
        let a = JobAnalysis::build(&events, 0.0);
        let r = render_jobs(&a);
        assert!(r.contains("job lifecycle summary"), "{r}");
        assert!(r.contains("sojourn decomposition"), "{r}");
        assert!(r.contains("queue wait"), "{r}");
        assert!(r.contains("migrated vs local"), "{r}");
        assert!(r.contains("migration chains"), "{r}");
        assert!(!r.contains("WARNING"), "{r}");
    }

    #[test]
    fn render_handles_empty_analysis() {
        let a = JobAnalysis::build(&[], 0.0);
        let r = render_jobs(&a);
        assert!(r.contains("no completed jobs"), "{r}");
    }

    #[test]
    fn sim_events_are_ignored() {
        use loadsteal_obs::SimEventKind;
        let events = [
            Event::Sim {
                kind: SimEventKind::Arrival,
                t: 0.0,
                proc: 0,
                src: None,
                count: 1,
            },
            job(JobEventKind::Arrival, 0.0, 1, 0),
            job(JobEventKind::ServiceStart, 1.0, 1, 0),
            job(JobEventKind::Completion, 2.0, 1, 0),
        ];
        let a = JobAnalysis::build(&events, 0.0);
        assert_eq!(a.arrived, 1);
        assert_eq!(a.completed, 1);
    }
}

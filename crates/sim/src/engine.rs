//! The discrete-event engine: one run of the n-processor work-stealing
//! system, on a cache-compact core that scales to `n = 10⁶`.
//!
//! Design notes:
//!
//! * Every memoryless clock whose rate is a constant per member of a
//!   set is superposed into one exponential clock (Gillespie's direct
//!   method): the n Poisson(λ) arrival streams are one Poisson(nλ)
//!   stream with a uniform target, the busy processors of a speed class
//!   serve at one Exp(μ·speed·|busy|) clock with a uniform target, and
//!   likewise internal arrivals (λ_int per busy processor) and
//!   repeated-steal retries (r per idle processor). Each step draws
//!   `t + Exp(R)` with `R` recomputed from integer set sizes, and one
//!   uniform picks the stream and its target. This is the same Markov
//!   chain in law as one clock per processor, with no per-processor
//!   event pending.
//! * Clocks that are not memoryless, or whose rate depends on a
//!   processor's load, stay timed events on a future-event list
//!   ([`EventQueue`]): deterministic, uniform, Erlang and
//!   hyperexponential service, non-exponential arrivals, rebalance
//!   ticks and transfer arrivals. A step fires the list's head when it
//!   comes before the superposed draw, and discards the draw, which
//!   memorylessness makes exact. The list is the calendar queue
//!   ([`crate::calendar`]) by default, the original `BinaryHeap` as a
//!   differential oracle. Both pop in the pinned event total order
//!   ([`crate::event::event_order`]: time, then sequence), so the
//!   engine choice cannot change a run's trajectory — `(config, seed)`
//!   determines the trace bit-for-bit.
//! * Processor state is struct-of-arrays with u32 indices
//!   (`n ≤ 2³² − 1`, enforced by `SimConfig::validate`): queue lengths
//!   live in their own array so the O(1) uniform victim sampling of a
//!   steal probe touches one cache line, not a processor struct. Tasks
//!   live in one arena of 32-byte nodes forming intrusive doubly-linked
//!   deques — pushes, pops, and tail-segment steals relink indices and
//!   never allocate on the hot path. Busy and idle processors sit in
//!   dense lists with swap-remove and a position index, so the
//!   superposed clock's targets are O(1) picks.
//! * Timed completions are never stale — steals and rebalances only
//!   move *tail* tasks, so the task at the head of a queue can only
//!   leave by completing. Rebalance ticks, whose rate depends on the
//!   load, carry an epoch and are lazily invalidated; a stale tick acts
//!   on nothing and is not counted in `events_processed`.
//! * Victims are sampled uniformly over all `n` processors by default
//!   (a self-draw simply fails), which is exactly the limiting
//!   probability `s_T` used by the differential equations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use loadsteal_obs::span;
use loadsteal_obs::{
    Digest, Event as ObsEvent, JobEventKind, NullRecorder, Recorder, SimEventKind,
    TAIL_SAMPLE_DEPTH,
};
use loadsteal_queueing::dist::exp_sample;
use loadsteal_queueing::{OnlineStats, ServiceDistribution};

use crate::calendar::{CalendarQueue, EventQueue};
use crate::config::{EngineKind, SimConfig, SpeedProfile, StealPolicy};
use crate::event::{event_order, Event, EventKind};
use crate::metrics::{LoadHistogram, SimResult};

/// Sentinel index: "no node".
const NIL: u32 = u32::MAX;

/// One task in the arena: identity, arrival time, service requirement,
/// and the intrusive deque links. 32 bytes.
#[derive(Debug, Clone, Copy)]
struct TaskNode {
    /// Job id, assigned from a per-run counter at admission. The
    /// counter runs unconditionally (it draws no randomness), so ids
    /// are identical whether or not job tracing is on.
    id: u64,
    arrived: f64,
    /// Service requirement; 0 under exponential service, whose
    /// completions the superposed clock draws.
    work: f64,
    /// Towards the tail (also the free-list link).
    next: u32,
    /// Towards the head.
    prev: u32,
}

/// All processor queues: struct-of-arrays deque state over one shared
/// task arena. `len` is deliberately its own array — victim sampling
/// reads nothing else.
#[derive(Debug)]
struct Queues {
    len: Vec<u32>,
    head: Vec<u32>,
    tail: Vec<u32>,
    nodes: Vec<TaskNode>,
    free: u32,
}

impl Queues {
    fn new(n: usize) -> Self {
        Self {
            len: vec![0; n],
            head: vec![NIL; n],
            tail: vec![NIL; n],
            nodes: Vec::new(),
            free: NIL,
        }
    }

    #[inline]
    fn alloc(&mut self, id: u64, arrived: f64, work: f64) -> u32 {
        let node = TaskNode {
            id,
            arrived,
            work,
            next: NIL,
            prev: NIL,
        };
        if self.free != NIL {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        } else {
            let i = self.nodes.len() as u32;
            self.nodes.push(node);
            i
        }
    }

    #[inline]
    fn dealloc(&mut self, i: u32) {
        self.nodes[i as usize].next = self.free;
        self.free = i;
    }

    #[inline]
    fn node(&self, i: u32) -> &TaskNode {
        &self.nodes[i as usize]
    }

    #[inline]
    fn push_back(&mut self, p: usize, i: u32) {
        let t = self.tail[p];
        self.nodes[i as usize].prev = t;
        self.nodes[i as usize].next = NIL;
        if t == NIL {
            self.head[p] = i;
        } else {
            self.nodes[t as usize].next = i;
        }
        self.tail[p] = i;
        self.len[p] += 1;
    }

    #[inline]
    fn pop_front(&mut self, p: usize) -> u32 {
        let h = self.head[p];
        debug_assert_ne!(h, NIL, "pop_front on an empty queue");
        let next = self.nodes[h as usize].next;
        self.head[p] = next;
        if next == NIL {
            self.tail[p] = NIL;
        } else {
            self.nodes[next as usize].prev = NIL;
        }
        self.len[p] -= 1;
        h
    }

    #[inline]
    fn pop_back(&mut self, p: usize) -> u32 {
        let t = self.tail[p];
        debug_assert_ne!(t, NIL, "pop_back on an empty queue");
        let prev = self.nodes[t as usize].prev;
        self.tail[p] = prev;
        if prev == NIL {
            self.head[p] = NIL;
        } else {
            self.nodes[prev as usize].next = NIL;
        }
        self.len[p] -= 1;
        t
    }

    /// Detach the last `take` tasks of `src` and append them — relative
    /// order preserved — to the back of `dst`. Pure pointer surgery:
    /// O(take) index walks, no allocation.
    fn splice_tail(&mut self, src: usize, dst: usize, take: usize) {
        debug_assert!(take >= 1 && take <= self.len[src] as usize);
        let seg_end = self.tail[src];
        let mut seg_start = seg_end;
        for _ in 1..take {
            seg_start = self.nodes[seg_start as usize].prev;
        }
        let before = self.nodes[seg_start as usize].prev;
        self.tail[src] = before;
        if before == NIL {
            self.head[src] = NIL;
        } else {
            self.nodes[before as usize].next = NIL;
        }
        self.len[src] -= take as u32;
        let dtail = self.tail[dst];
        self.nodes[seg_start as usize].prev = dtail;
        if dtail == NIL {
            self.head[dst] = seg_start;
        } else {
            self.nodes[dtail as usize].next = seg_start;
        }
        self.tail[dst] = seg_end;
        self.len[dst] += take as u32;
    }

    /// Job ids of the last `take` tasks of `p`, in front-to-back order
    /// (what a tail steal moves). Only called under job tracing.
    fn tail_ids(&self, p: usize, take: usize) -> Vec<u64> {
        let mut ids = vec![0u64; take];
        let mut cur = self.tail[p];
        for slot in ids.iter_mut().rev() {
            *slot = self.nodes[cur as usize].id;
            cur = self.nodes[cur as usize].prev;
        }
        ids
    }
}

/// Disjoint sets of processors, each a dense list with swap-remove and
/// one shared position index: O(1) insert, remove and uniform pick.
#[derive(Debug)]
struct ProcSets {
    lists: Vec<Vec<u32>>,
    /// Position of each processor in its list.
    pos: Vec<u32>,
}

impl ProcSets {
    /// `sets` empty sets over processors `0..n`.
    fn new(n: usize, sets: usize) -> Self {
        Self {
            lists: vec![Vec::new(); sets],
            pos: vec![NIL; n],
        }
    }

    #[inline]
    fn insert(&mut self, set: usize, p: usize) {
        self.pos[p] = self.lists[set].len() as u32;
        self.lists[set].push(p as u32);
    }

    #[inline]
    fn remove(&mut self, set: usize, p: usize) {
        let i = self.pos[p] as usize;
        let list = &mut self.lists[set];
        list.swap_remove(i);
        if let Some(&moved) = list.get(i) {
            self.pos[moved as usize] = i as u32;
        }
        self.pos[p] = NIL;
    }

    #[inline]
    fn len(&self, set: usize) -> usize {
        self.lists[set].len()
    }

    /// Members of every set.
    fn total(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// The `i`-th member counting through the sets in order.
    fn nth(&self, mut i: usize) -> usize {
        for list in &self.lists {
            if let Some(&p) = list.get(i) {
                return p as usize;
            }
            i -= list.len();
        }
        unreachable!("index past the members of every set")
    }
}

/// Payloads of stolen tasks currently in flight (Section 3.2's transfer
/// delays). Keeping them out of [`EventKind::TransferArrive`] keeps
/// every event at 32 bytes; slots are recycled through a free list.
#[derive(Debug, Default)]
struct TransferPool {
    slots: Vec<(u64, f64, f64)>,
    free: Vec<u32>,
}

impl TransferPool {
    fn put(&mut self, job: u64, arrived: f64, work: f64) -> u32 {
        if let Some(i) = self.free.pop() {
            self.slots[i as usize] = (job, arrived, work);
            i
        } else {
            self.slots.push((job, arrived, work));
            (self.slots.len() - 1) as u32
        }
    }

    fn take(&mut self, i: u32) -> (u64, f64, f64) {
        self.free.push(i);
        self.slots[i as usize]
    }
}

/// What one step of a run fires: the head of the timed list, or one
/// stream of the superposed clock (an external or internal arrival, a
/// completion, a retry) with its target processor.
#[derive(Debug, Clone, Copy)]
enum Step {
    Timed(EventKind),
    Arrival(usize),
    Completion(usize),
    Retry(usize),
}

/// Run one simulation to completion and collect its measurements.
///
/// # Panics
/// Panics if the configuration fails [`SimConfig::validate`].
pub fn run(cfg: &SimConfig, seed: u64) -> SimResult {
    run_recorded(cfg, seed, &mut NullRecorder)
}

/// [`run`] with per-event observations (arrivals, completions, steal
/// attempts/successes, migrations, heartbeats) sent to `rec`.
///
/// The recorder's [`Recorder::enabled`] hint is sampled once at engine
/// construction; a disabled recorder costs one predictable branch per
/// emission site and builds no events. The engine is monomorphized over
/// both `R` and the future-event list selected by `cfg.engine`, so the
/// [`NullRecorder`] path compiles to the uninstrumented loop.
///
/// # Panics
/// Panics if the configuration fails [`SimConfig::validate`].
pub fn run_recorded<R: Recorder>(cfg: &SimConfig, seed: u64, rec: &mut R) -> SimResult {
    if let Err(e) = cfg.validate() {
        panic!("invalid simulation config: {e}");
    }
    match cfg.engine {
        EngineKind::Heap => Engine::<R, BinaryHeap<Event>>::new(cfg, seed, rec).run(),
        EngineKind::Calendar => Engine::<R, CalendarQueue>::new(cfg, seed, rec).run(),
    }
}

/// The rate of an exponential law, `None` for any other.
fn exponential_rate(dist: &ServiceDistribution) -> Option<f64> {
    match *dist {
        ServiceDistribution::Exponential { rate } => Some(rate),
        _ => None,
    }
}

/// Processor speed classes: the class of every processor (empty for
/// the homogeneous profile, all of whose processors are class 0) and
/// the speed of every class.
fn speed_classes(cfg: &SimConfig) -> (Vec<u32>, Vec<f64>) {
    let mut speeds = Vec::new();
    let class = match &cfg.speeds {
        SpeedProfile::Homogeneous => Vec::new(),
        profile => (0..cfg.n)
            .map(|p| {
                let s = profile.speed_of(p, cfg.n);
                let c = speeds.iter().position(|&x| x == s).unwrap_or_else(|| {
                    speeds.push(s);
                    speeds.len() - 1
                });
                c as u32
            })
            .collect(),
    };
    if speeds.is_empty() {
        speeds.push(1.0);
    }
    (class, speeds)
}

/// The slot a uniform offset `u` into a stream of `count` slots of rate
/// `rate` each falls in (clamped against rounding at the top).
#[inline]
fn slot(u: f64, rate: f64, count: usize) -> usize {
    ((u / rate) as usize).min(count - 1)
}

struct Engine<'a, R: Recorder, Q: EventQueue> {
    cfg: &'a SimConfig,
    rec: &'a mut R,
    /// `rec.enabled()`, sampled once.
    tracing: bool,
    /// `tracing && cfg.trace_jobs`, sampled once.
    job_tracing: bool,
    /// `tracing && cfg.sample_tails.is_some()`, sampled once.
    tail_sampling: bool,
    /// Tail-sample grid spacing (`∞` when sampling is off, so the hot
    /// loop's grid check is one always-false comparison).
    sample_every: f64,
    /// Next tail-sample grid time.
    next_tail_sample: f64,
    /// Next job id to assign.
    next_job_id: u64,
    events_processed: u64,
    queues: Queues,
    /// Invalidates rebalance ticks.
    probe_epoch: Vec<u32>,
    /// A stolen task is in flight towards this processor.
    waiting_transfer: Vec<bool>,
    /// Speed class of each processor; empty for the homogeneous
    /// profile, whose unit speed is special-cased to skip the division.
    class: Vec<u32>,
    class_speed: Vec<f64>,
    /// Superposed per-processor rates, each 0 when its stream is timed
    /// or absent: Poisson arrivals (λ per processor), exponential
    /// completions (μ·speed per busy processor of each class) and
    /// repeated-steal retries (r per idle processor). Internal arrivals
    /// run at `cfg.internal_lambda` per busy processor.
    arrival_rate: f64,
    completion_rate: Vec<f64>,
    retry_rate: f64,
    /// Busy processors, one set per speed class.
    busy: ProcSets,
    /// Idle processors, which retry under the repeated policy (sized
    /// only then).
    idle: ProcSets,
    transfers: TransferPool,
    q: Q,
    /// The timed list's head, popped but not yet fired because the
    /// superposed clock came first.
    held: Option<Event>,
    rng: SmallRng,
    seq: u64,
    t: f64,
    tasks_in_system: u64,
    tasks_arrived: u64,
    tasks_completed: u64,
    steal_attempts: u64,
    steal_successes: u64,
    tasks_migrated: u64,
    sojourn: OnlineStats,
    sojourn_digest: Option<Digest>,
    hist: LoadHistogram,
    makespan: Option<f64>,
    snapshots: Vec<(f64, Vec<f64>)>,
    next_snapshot: f64,
    /// `min(next_snapshot, next_tail_sample)`: the single grid check
    /// the hot loop performs per event.
    next_wake: f64,
}

impl<'a, R: Recorder, Q: EventQueue> Engine<'a, R, Q> {
    fn new(cfg: &'a SimConfig, seed: u64, rec: &'a mut R) -> Self {
        let rng = SmallRng::seed_from_u64(seed);
        let tracing = rec.enabled();
        let (class, class_speed) = speed_classes(cfg);
        let arrival_rate = match &cfg.arrival {
            None => cfg.lambda,
            Some(dist) => exponential_rate(dist).unwrap_or(0.0),
        };
        let service_rate = exponential_rate(&cfg.service).unwrap_or(0.0);
        let retry_rate = match cfg.policy {
            StealPolicy::Repeated { rate, .. } => rate,
            _ => 0.0,
        };
        // Timed streams per processor size the timed list.
        let timed_streams = [
            service_rate == 0.0,
            arrival_rate == 0.0 && cfg.lambda > 0.0,
            matches!(cfg.policy, StealPolicy::Rebalance { .. }),
            cfg.transfer.is_some(),
        ]
        .into_iter()
        .filter(|&timed| timed)
        .count();
        Self {
            cfg,
            rec,
            tracing,
            job_tracing: tracing && cfg.trace_jobs,
            tail_sampling: tracing && cfg.sample_tails.is_some(),
            sample_every: if tracing {
                cfg.sample_tails.unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            },
            next_tail_sample: if tracing {
                cfg.sample_tails.unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            },
            next_job_id: 0,
            events_processed: 0,
            queues: Queues::new(cfg.n),
            probe_epoch: vec![0; cfg.n],
            waiting_transfer: vec![false; cfg.n],
            completion_rate: class_speed.iter().map(|s| service_rate * s).collect(),
            busy: ProcSets::new(cfg.n, class_speed.len()),
            idle: ProcSets::new(if retry_rate > 0.0 { cfg.n } else { 0 }, 1),
            class,
            class_speed,
            arrival_rate,
            retry_rate,
            transfers: TransferPool::default(),
            q: Q::with_hint(timed_streams * cfg.n),
            held: None,
            rng,
            seq: 0,
            t: 0.0,
            tasks_in_system: 0,
            tasks_arrived: 0,
            tasks_completed: 0,
            steal_attempts: 0,
            steal_successes: 0,
            tasks_migrated: 0,
            sojourn: OnlineStats::new(),
            sojourn_digest: cfg.sojourn_digest.then(Digest::new),
            hist: LoadHistogram::new(cfg.n, cfg.initial_load, cfg.warmup),
            makespan: None,
            snapshots: Vec::new(),
            next_snapshot: cfg.snapshot_interval.unwrap_or(f64::INFINITY),
            next_wake: f64::INFINITY,
        }
    }

    /// Add a timed event. One that precedes the held head takes its
    /// place, and the head goes back to the list.
    #[inline]
    fn schedule(&mut self, time: f64, kind: EventKind) {
        self.seq += 1;
        let mut ev = Event {
            time,
            seq: self.seq,
            kind,
        };
        if let Some(held) = self.held.as_mut() {
            if event_order(&ev, held) == Ordering::Less {
                std::mem::swap(held, &mut ev);
            }
        }
        self.q.push(ev);
    }

    /// A fresh task's service requirement. Exponential service draws
    /// none: the superposed clock draws its completions.
    #[inline]
    fn sample_work(&mut self) -> f64 {
        if self.exponential_service() {
            0.0
        } else {
            self.cfg.service.sample(&mut self.rng)
        }
    }

    /// Whether the superposed clock draws the completions.
    #[inline]
    fn exponential_service(&self) -> bool {
        self.completion_rate[0] > 0.0
    }

    /// Mint the next job id (the counter draws no randomness).
    #[inline]
    fn next_id(&mut self) -> u64 {
        let id = self.next_job_id;
        self.next_job_id += 1;
        id
    }

    #[inline]
    fn class_of(&self, p: usize) -> usize {
        if self.class.is_empty() {
            0
        } else {
            self.class[p] as usize
        }
    }

    /// Service duration of `work` on processor `p`.
    #[inline]
    fn service_time(&self, p: usize, work: f64) -> f64 {
        if self.class.is_empty() {
            work
        } else {
            work / self.class_speed[self.class[p] as usize]
        }
    }

    /// Report one job lifecycle stage (no-op unless job tracing).
    #[inline]
    fn emit_job(&mut self, kind: JobEventKind, job: u64, p: usize) {
        if self.job_tracing {
            self.rec.record(&ObsEvent::Job {
                kind,
                t: self.t,
                job,
                proc: p as u32,
                src: None,
                delay: 0.0,
            });
        }
    }

    /// Report one job hop from victim `src` to thief `dst` with its
    /// transfer delay (no-op unless job tracing).
    #[inline]
    fn emit_job_migrate(&mut self, job: u64, dst: usize, src: usize, delay: f64) {
        if self.job_tracing {
            self.rec.record(&ObsEvent::Job {
                kind: JobEventKind::Migrate,
                t: self.t,
                job,
                proc: dst as u32,
                src: Some(src as u32),
                delay,
            });
        }
    }

    /// Emit the instantaneous empirical tail vector at grid time `t`
    /// (callers gate on `tail_sampling`). O(k) in the histogram depth:
    /// the load histogram already maintains counts-per-depth, so no
    /// per-processor walk happens here.
    fn emit_tail_sample(&mut self, t: f64) {
        let inst = self.hist.instant_tails(self.cfg.n);
        let mut tails = [0.0f64; TAIL_SAMPLE_DEPTH];
        let mut depth = 0u32;
        for i in 1..=TAIL_SAMPLE_DEPTH {
            let s = inst.get(i).copied().unwrap_or(0.0);
            tails[i - 1] = s;
            if s != 0.0 {
                depth = i as u32;
            }
        }
        self.rec.record(&ObsEvent::TailSample { t, tails, depth });
    }

    /// Report one simulator observation (no-op unless tracing).
    #[inline]
    fn emit(&mut self, kind: SimEventKind, p: usize, count: u32) {
        if self.tracing {
            self.rec.record(&ObsEvent::Sim {
                kind,
                t: self.t,
                proc: p as u32,
                src: None,
                count,
            });
        }
    }

    /// Report a migration of `count` tasks from `src` to `dst` (no-op
    /// unless tracing). Recording the donor lets trace consumers rebuild
    /// per-processor queue timelines.
    #[inline]
    fn emit_migration(&mut self, dst: usize, src: usize, count: u32) {
        if self.tracing {
            self.rec.record(&ObsEvent::Sim {
                kind: SimEventKind::Migration,
                t: self.t,
                proc: dst as u32,
                src: Some(src as u32),
                count,
            });
        }
    }

    fn initialize(&mut self) {
        // Pre-loaded tasks (static experiments).
        if self.cfg.initial_load > 0 {
            for p in 0..self.cfg.n {
                for _ in 0..self.cfg.initial_load {
                    let work = self.sample_work();
                    let id = self.next_id();
                    let node = self.queues.alloc(id, 0.0, work);
                    self.queues.push_back(p, node);
                    self.emit(SimEventKind::Arrival, p, 1);
                    self.emit_job(JobEventKind::Arrival, id, p);
                }
                self.tasks_in_system += self.cfg.initial_load as u64;
                self.tasks_arrived += self.cfg.initial_load as u64;
                // The histogram was constructed at this initial load;
                // only service needs starting.
                self.busy.insert(self.class_of(p), p);
                self.start_service(p);
            }
        } else if self.retry_rate > 0.0 {
            // Every processor starts idle, retrying.
            for p in 0..self.cfg.n {
                self.idle.insert(0, p);
            }
        }
        // External arrival streams that are not Poisson.
        if self.arrival_rate == 0.0 && self.cfg.lambda > 0.0 {
            for p in 0..self.cfg.n {
                let dt = self.sample_interarrival();
                self.schedule(dt, EventKind::ExtArrival { proc: p as u32 });
            }
        }
        // Rebalance ticks for every processor.
        if let StealPolicy::Rebalance { rate } = self.cfg.policy {
            for p in 0..self.cfg.n {
                let r = rate.rate(self.queues.len[p] as usize);
                self.schedule_rebalance_tick(p, r);
            }
        }
    }

    /// Total rate of the superposed clock, from the current set sizes.
    #[inline]
    fn superposed_rate(&self) -> f64 {
        let mut rate = self.cfg.n as f64 * self.arrival_rate;
        for (c, r) in self.completion_rate.iter().enumerate() {
            rate += r * self.busy.len(c) as f64;
        }
        if self.cfg.internal_lambda > 0.0 {
            rate += self.cfg.internal_lambda * self.busy.total() as f64;
        }
        rate + self.retry_rate * self.idle.len(0) as f64
    }

    /// Pick the stream of the superposed clock that fires, and its
    /// target, with one uniform over the total rate `total`.
    fn pick(&mut self, total: f64) -> Step {
        let mut u = self.rng.random::<f64>() * total;
        // The last stream with a positive rate, which fires if rounding
        // puts `u` at or past the total.
        let mut last = None;
        let n = self.cfg.n;
        if self.arrival_rate > 0.0 {
            let w = n as f64 * self.arrival_rate;
            if u < w {
                return Step::Arrival(slot(u, self.arrival_rate, n));
            }
            u -= w;
            last = Some(Step::Arrival(n - 1));
        }
        for c in 0..self.completion_rate.len() {
            let (rate, len) = (self.completion_rate[c], self.busy.len(c));
            if rate > 0.0 && len > 0 {
                let w = rate * len as f64;
                let list = &self.busy.lists[c];
                if u < w {
                    return Step::Completion(list[slot(u, rate, len)] as usize);
                }
                u -= w;
                last = Some(Step::Completion(list[len - 1] as usize));
            }
        }
        let (rate, busy) = (self.cfg.internal_lambda, self.busy.total());
        if rate > 0.0 && busy > 0 {
            let w = rate * busy as f64;
            if u < w {
                return Step::Arrival(self.busy.nth(slot(u, rate, busy)));
            }
            u -= w;
            last = Some(Step::Arrival(self.busy.nth(busy - 1)));
        }
        let (rate, idle) = (self.retry_rate, self.idle.len(0));
        if rate > 0.0 && idle > 0 {
            let list = &self.idle.lists[0];
            if u < rate * idle as f64 {
                return Step::Retry(list[slot(u, rate, idle)] as usize);
            }
            last = Some(Step::Retry(list[idle - 1] as usize));
        }
        last.expect("a positive total rate has a stream")
    }

    fn run(mut self) -> SimResult {
        let _run_span = span::span("sim.run");
        let wall = std::time::Instant::now();
        self.initialize();
        self.next_wake = self.next_snapshot.min(self.next_tail_sample);
        let horizon = if self.cfg.run_until_drained {
            f64::INFINITY
        } else {
            self.cfg.horizon
        };
        loop {
            // One step: the superposed clock's next time against the
            // timed list's head. A draw the head beats is discarded,
            // which memorylessness makes exact.
            let total = self.superposed_rate();
            let t_clock = if total > 0.0 {
                self.t + exp_sample(&mut self.rng, total)
            } else {
                f64::INFINITY
            };
            // The head stays in a local unless the clock beats it, so a
            // step that fires it makes no round trip through `self.held`.
            let head = match self.held.take() {
                None => self.q.pop(),
                held => held,
            };
            let (time, timed) = match head {
                Some(ev) if ev.time <= t_clock => (ev.time, Some(ev.kind)),
                _ if total > 0.0 => {
                    self.held = head;
                    (t_clock, None)
                }
                _ => break,
            };
            // Snapshots and tail samples capture the state *just
            // before* the first event past each grid time (loads are
            // piecewise constant). Both grids fold into one wake time
            // so the per-event cost of the disabled features is a
            // single always-false comparison (`next_wake = ∞`).
            if self.next_wake <= time {
                while self.next_snapshot <= time && self.next_snapshot <= horizon {
                    let tails = self.hist.instant_tails(self.cfg.n);
                    self.snapshots.push((self.next_snapshot, tails));
                    self.next_snapshot += self.cfg.snapshot_interval.unwrap();
                }
                while self.next_tail_sample <= time && self.next_tail_sample <= horizon {
                    let t = self.next_tail_sample;
                    self.emit_tail_sample(t);
                    self.next_tail_sample += self.sample_every;
                }
                self.next_wake = self.next_snapshot.min(self.next_tail_sample);
            }
            if time > horizon {
                self.t = horizon;
                break;
            }
            self.t = time;
            let step = match timed {
                // A stale rebalance tick acts on nothing.
                Some(EventKind::RebalanceTick { proc, epoch })
                    if self.probe_epoch[proc as usize] != epoch =>
                {
                    continue
                }
                Some(kind) => Step::Timed(kind),
                None => self.pick(total),
            };
            self.events_processed += 1;
            if self.tracing
                && self.cfg.heartbeat_every != 0
                && self.events_processed % self.cfg.heartbeat_every == 0
            {
                let _hb_span = span::span("sim.heartbeat");
                self.rec.record(&ObsEvent::Heartbeat {
                    t: self.t,
                    events: self.events_processed,
                    tasks_in_system: self.tasks_in_system,
                });
                // Live transient consumers (piped `transient -`, the
                // serve endpoint) need samples at heartbeat cadence,
                // not batched until the run ends.
                if self.tail_sampling {
                    self.rec.flush();
                }
            }
            // One profiler span per simulated event, named by phase.
            // Disabled cost: selecting the static name plus one relaxed
            // atomic load — inside the bench gate's ≤2% budget.
            let _ev_span = span::span(match step {
                Step::Arrival(_) | Step::Timed(EventKind::ExtArrival { .. }) => "sim.arrival",
                Step::Completion(_) | Step::Timed(EventKind::Completion { .. }) => "sim.completion",
                Step::Retry(_) => "sim.steal_attempt",
                Step::Timed(EventKind::RebalanceTick { .. }) => "sim.rebalance",
                Step::Timed(EventKind::TransferArrive { .. }) => "sim.transfer",
            });
            match step {
                Step::Arrival(p) => self.arrive(p),
                Step::Completion(p) => self.on_completion(p),
                Step::Retry(p) => self.on_retry(p),
                Step::Timed(EventKind::ExtArrival { proc }) => self.on_ext_arrival(proc as usize),
                Step::Timed(EventKind::Completion { proc }) => self.on_completion(proc as usize),
                Step::Timed(EventKind::RebalanceTick { proc, .. }) => {
                    self.on_rebalance_tick(proc as usize)
                }
                Step::Timed(EventKind::TransferArrive { proc, slot }) => {
                    self.on_transfer_arrive(proc as usize, slot)
                }
            }
            drop(_ev_span);
            if self.cfg.run_until_drained && self.tasks_in_system == 0 {
                self.makespan = Some(self.t);
                break;
            }
        }
        let end = if self.cfg.run_until_drained {
            self.t
        } else {
            self.cfg.horizon
        };
        self.hist.finish(end);
        if self.tracing {
            self.rec.flush();
        }
        SimResult {
            sojourn: self.sojourn,
            sojourn_digest: self.sojourn_digest,
            tasks_arrived: self.tasks_arrived,
            tasks_completed: self.tasks_completed,
            steal_attempts: self.steal_attempts,
            steal_successes: self.steal_successes,
            tasks_migrated: self.tasks_migrated,
            events_processed: self.events_processed,
            wall_ms: wall.elapsed().as_secs_f64() * 1e3,
            load_tails: self.hist.tails(self.cfg.n),
            snapshots: self.snapshots,
            end_time: end,
            makespan: self.makespan,
            seed: 0, // filled by the caller-facing wrapper below
        }
    }

    // ----- event handlers -------------------------------------------------

    /// A task arrives at `p`, from outside or spawned by `p` itself.
    fn arrive(&mut self, p: usize) {
        let work = self.sample_work();
        let id = self.next_id();
        self.route_arrival(p, id, self.t, work);
    }

    /// A timed (non-Poisson) external arrival: deliver it and schedule
    /// the stream's next one.
    fn on_ext_arrival(&mut self, p: usize) {
        self.arrive(p);
        let dt = self.sample_interarrival();
        self.schedule(self.t + dt, EventKind::ExtArrival { proc: p as u32 });
    }

    /// Deliver a fresh arrival, applying the work-sharing forward rule
    /// when the `Share` policy is active.
    fn route_arrival(&mut self, p: usize, id: u64, arrived: f64, work: f64) {
        if let StealPolicy::Share {
            send_threshold,
            recv_threshold,
        } = self.cfg.policy
        {
            if self.queues.len[p] as usize >= send_threshold {
                self.steal_attempts += 1; // a probe message
                self.emit(SimEventKind::StealAttempt, p, 1);
                let target = self.pick_victim(1);
                if target != p && (self.queues.len[target] as usize) < recv_threshold {
                    self.steal_successes += 1;
                    self.tasks_migrated += 1;
                    self.emit(SimEventKind::StealSuccess, p, 1);
                    self.emit_migration(target, p, 1);
                    self.admit_task(target, id, arrived, work);
                    return;
                }
            }
        }
        self.admit_task(p, id, arrived, work);
    }

    #[inline]
    fn sample_interarrival(&mut self) -> f64 {
        match &self.cfg.arrival {
            None => exp_sample(&mut self.rng, self.cfg.lambda),
            Some(dist) => dist.sample(&mut self.rng),
        }
    }

    fn on_completion(&mut self, p: usize) {
        let old_len = self.queues.len[p] as usize;
        let node = self.queues.pop_front(p);
        let (id, arrived) = {
            let n = self.queues.node(node);
            (n.id, n.arrived)
        };
        self.queues.dealloc(node);
        self.tasks_in_system -= 1;
        self.tasks_completed += 1;
        self.emit(SimEventKind::Completion, p, 1);
        self.emit_job(JobEventKind::Completion, id, p);
        if self.t >= self.cfg.warmup {
            let dt = self.t - arrived;
            self.sojourn.push(dt);
            if let Some(d) = self.sojourn_digest.as_mut() {
                d.record(dt);
            }
        }
        // Start the next task before stealing: a steal sees a consistent
        // queue and can never take the in-service task.
        if self.queues.len[p] > 0 {
            self.start_service(p);
        }
        self.on_load_changed(p, old_len);

        let remaining = self.queues.len[p] as usize;
        match self.cfg.policy {
            StealPolicy::None | StealPolicy::Rebalance { .. } | StealPolicy::Share { .. } => {}
            StealPolicy::OnEmpty {
                threshold,
                choices,
                batch,
            } => {
                if remaining == 0 && !self.waiting_transfer[p] {
                    self.attempt_steal(p, threshold, choices, batch);
                }
            }
            StealPolicy::Preemptive {
                begin_at,
                rel_threshold,
            } => {
                if remaining <= begin_at && !self.waiting_transfer[p] {
                    self.attempt_steal(p, remaining + rel_threshold, 1, 1);
                }
            }
            // An idle processor joins the retrying set (in
            // `on_load_changed`); its first attempt is immediate.
            StealPolicy::Repeated { threshold, .. } => {
                if remaining == 0 {
                    self.attempt_steal(p, threshold, 1, 1);
                }
            }
        }
    }

    /// A repeated-steal retry by idle processor `p` (Section 2.5). A
    /// failed one leaves `p` idle and retrying.
    fn on_retry(&mut self, p: usize) {
        let StealPolicy::Repeated { threshold, .. } = self.cfg.policy else {
            return;
        };
        debug_assert!(self.queues.len[p] == 0);
        self.attempt_steal(p, threshold, 1, 1);
    }

    /// A live rebalance tick (stale ones never reach here).
    fn on_rebalance_tick(&mut self, p: usize) {
        let StealPolicy::Rebalance { rate } = self.cfg.policy else {
            return;
        };
        let epoch = self.probe_epoch[p];
        self.steal_attempts += 1;
        self.emit(SimEventKind::StealAttempt, p, 1);
        // Partner: uniform among the other processors.
        let partner = if self.cfg.n == 1 {
            p
        } else {
            let mut q = self.rng.random_range(0..self.cfg.n - 1);
            if q >= p {
                q += 1;
            }
            q
        };
        if partner != p {
            self.rebalance_pair(p, partner);
        }
        // If our load changed, `on_load_changed` already rescheduled the
        // tick under a fresh epoch; otherwise continue this stream.
        if self.probe_epoch[p] == epoch {
            let r = rate.rate(self.queues.len[p] as usize);
            self.schedule_rebalance_tick(p, r);
        }
    }

    fn on_transfer_arrive(&mut self, p: usize, slot: u32) {
        debug_assert!(self.waiting_transfer[p]);
        self.waiting_transfer[p] = false;
        let (id, arrived, work) = self.transfers.take(slot);
        // The task re-enters a queue; it was counted in-system throughout.
        let old_len = self.queues.len[p] as usize;
        let node = self.queues.alloc(id, arrived, work);
        self.queues.push_back(p, node);
        if old_len == 0 {
            self.start_service(p);
        }
        self.on_load_changed(p, old_len);
    }

    // ----- mechanics ------------------------------------------------------

    /// A genuinely new task enters the system at processor `p`.
    fn admit_task(&mut self, p: usize, id: u64, arrived: f64, work: f64) {
        self.tasks_in_system += 1;
        self.tasks_arrived += 1;
        self.emit(SimEventKind::Arrival, p, 1);
        self.emit_job(JobEventKind::Arrival, id, p);
        let old_len = self.queues.len[p] as usize;
        let node = self.queues.alloc(id, arrived, work);
        self.queues.push_back(p, node);
        if old_len == 0 {
            self.start_service(p);
        }
        self.on_load_changed(p, old_len);
    }

    /// The moment a task reaches the front of `p`'s queue: its service
    /// begins now, and a service time that is not exponential schedules
    /// its completion. The single site for `job_service_start` — steals
    /// only move tail tasks, so a job's service starts exactly once, on
    /// its final processor.
    fn start_service(&mut self, p: usize) {
        let front = self.queues.head[p];
        let (id, work) = {
            let n = self.queues.node(front);
            (n.id, n.work)
        };
        self.emit_job(JobEventKind::ServiceStart, id, p);
        if !self.exponential_service() {
            let duration = self.service_time(p, work);
            self.schedule(self.t + duration, EventKind::Completion { proc: p as u32 });
        }
    }

    fn schedule_rebalance_tick(&mut self, p: usize, rate: f64) {
        if rate <= 0.0 {
            return;
        }
        let dt = exp_sample(&mut self.rng, rate);
        let epoch = self.probe_epoch[p];
        self.schedule(
            self.t + dt,
            EventKind::RebalanceTick {
                proc: p as u32,
                epoch,
            },
        );
    }

    /// Bookkeeping after processor `p`'s queue length changed: the load
    /// histogram, the busy and idle sets, and the load-dependent
    /// rebalance tick.
    fn on_load_changed(&mut self, p: usize, old_len: usize) {
        let new_len = self.queues.len[p] as usize;
        if new_len == old_len {
            return;
        }
        self.hist.transition(old_len, new_len, self.t);
        if old_len == 0 {
            self.busy.insert(self.class_of(p), p);
            if self.retry_rate > 0.0 {
                self.idle.remove(0, p);
            }
        } else if new_len == 0 {
            self.busy.remove(self.class_of(p), p);
            if self.retry_rate > 0.0 {
                self.idle.insert(0, p);
            }
        }
        if let StealPolicy::Rebalance { rate } = self.cfg.policy {
            self.probe_epoch[p] = self.probe_epoch[p].wrapping_add(1);
            let r = rate.rate(new_len);
            self.schedule_rebalance_tick(p, r);
        }
    }

    /// Pick a victim: the most loaded of `choices` iid uniform draws
    /// over all `n` processors. O(1) per draw — only the length array is
    /// touched. A draw may hit the caller itself, which then fails to
    /// steal (or to share): that matches the mean-field probability
    /// `s_T` exactly.
    fn pick_victim(&mut self, choices: usize) -> usize {
        let mut best = usize::MAX;
        let mut best_load = 0;
        for _ in 0..choices {
            let v = self.rng.random_range(0..self.cfg.n);
            let load = self.queues.len[v];
            if best == usize::MAX || load > best_load {
                best = v;
                best_load = load;
            }
        }
        best
    }

    /// Attempt a steal of up to `batch` tasks for `thief` against a
    /// victim-load requirement. Returns whether tasks moved (or, with
    /// transfer delays, started moving).
    fn attempt_steal(
        &mut self,
        thief: usize,
        need_victim_load: usize,
        choices: usize,
        batch: usize,
    ) -> bool {
        self.steal_attempts += 1;
        self.emit(SimEventKind::StealAttempt, thief, 1);
        let victim = self.pick_victim(choices);
        if victim == thief {
            return false;
        }
        let victim_len = self.queues.len[victim] as usize;
        if victim_len < need_victim_load {
            return false;
        }
        self.steal_successes += 1;
        self.emit(SimEventKind::StealSuccess, thief, 1);

        if self.cfg.transfer.is_some() {
            // Single-task steal with a transfer delay: the task leaves
            // the victim now and reaches the thief later.
            debug_assert_eq!(batch, 1);
            let node = self.queues.pop_back(victim);
            let (id, arrived, work) = {
                let n = self.queues.node(node);
                (n.id, n.arrived, n.work)
            };
            self.queues.dealloc(node);
            self.tasks_migrated += 1;
            self.emit_migration(thief, victim, 1);
            self.on_load_changed(victim, victim_len);
            self.waiting_transfer[thief] = true;
            let delay = self
                .cfg
                .transfer
                .as_ref()
                .unwrap()
                .dist
                .sample(&mut self.rng);
            self.emit_job_migrate(id, thief, victim, delay);
            let slot = self.transfers.put(id, arrived, work);
            self.schedule(
                self.t + delay,
                EventKind::TransferArrive {
                    proc: thief as u32,
                    slot,
                },
            );
            return true;
        }

        // Instantaneous steal of `batch` tail tasks, preserving their
        // relative order on the thief.
        let take = batch.min(victim_len.saturating_sub(1));
        debug_assert!(take >= 1);
        let thief_old = self.queues.len[thief] as usize;
        let moved_ids: Vec<u64> = if self.job_tracing {
            self.queues.tail_ids(victim, take)
        } else {
            Vec::new()
        };
        self.queues.splice_tail(victim, thief, take);
        self.tasks_migrated += take as u64;
        self.emit_migration(thief, victim, take as u32);
        for id in moved_ids {
            self.emit_job_migrate(id, thief, victim, 0.0);
        }
        self.on_load_changed(victim, victim_len);
        if thief_old == 0 {
            self.start_service(thief);
        }
        self.on_load_changed(thief, thief_old);
        true
    }

    /// Equalize the loads of `a` and `b` (Section 3.4): the initially
    /// larger queue keeps `⌈total/2⌉`, donating tail tasks to the other.
    fn rebalance_pair(&mut self, a: usize, b: usize) {
        let (la, lb) = (self.queues.len[a] as usize, self.queues.len[b] as usize);
        let (hi, lo, lhi, llo) = if la >= lb {
            (a, b, la, lb)
        } else {
            (b, a, lb, la)
        };
        let total = lhi + llo;
        let keep = total.div_ceil(2);
        let moves = lhi - keep;
        if moves == 0 {
            return;
        }
        self.steal_successes += 1;
        self.emit(SimEventKind::StealSuccess, a, 1);
        let lo_old = llo;
        let moved_ids: Vec<u64> = if self.job_tracing {
            self.queues.tail_ids(hi, moves)
        } else {
            Vec::new()
        };
        self.queues.splice_tail(hi, lo, moves);
        self.tasks_migrated += moves as u64;
        self.emit_migration(lo, hi, moves as u32);
        for id in moved_ids {
            self.emit_job_migrate(id, lo, hi, 0.0);
        }
        self.on_load_changed(hi, lhi);
        if lo_old == 0 {
            self.start_service(lo);
        }
        self.on_load_changed(lo, lo_old);
    }
}

/// Run one simulation with the seed recorded in the result.
pub fn run_seeded(cfg: &SimConfig, seed: u64) -> SimResult {
    let mut r = run(cfg, seed);
    r.seed = seed;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RebalanceRate, StealPolicy, TransferTime};
    use loadsteal_queueing::mm1::{md1_mean_time_in_system, Mm1};
    use loadsteal_queueing::ServiceDistribution;

    fn base(n: usize, lambda: f64) -> SimConfig {
        let mut cfg = SimConfig::paper_default(n, lambda);
        cfg.horizon = 20_000.0;
        cfg.warmup = 2_000.0;
        cfg
    }

    #[test]
    fn single_queue_matches_mm1() {
        let mut cfg = base(1, 0.5);
        cfg.policy = StealPolicy::None;
        let r = run(&cfg, 1);
        let w = Mm1::new(0.5, 1.0).unwrap().mean_time_in_system();
        assert!(
            (r.mean_sojourn() - w).abs() < 0.1,
            "sim {} vs theory {w}",
            r.mean_sojourn()
        );
    }

    #[test]
    fn no_steal_tails_are_geometric() {
        let mut cfg = base(16, 0.6);
        cfg.policy = StealPolicy::None;
        let r = run(&cfg, 2);
        // s_i should be close to lambda^i.
        for i in 1..4 {
            let expect = 0.6f64.powi(i);
            let got = r.load_tails[i as usize];
            assert!((got - expect).abs() < 0.05, "s_{i}: sim {got} vs {expect}");
        }
    }

    #[test]
    fn deterministic_service_beats_exponential_without_stealing() {
        let mut cfg = base(1, 0.8);
        cfg.policy = StealPolicy::None;
        let exp = run(&cfg, 3).mean_sojourn();
        cfg.service = ServiceDistribution::unit_deterministic();
        let det = run(&cfg, 3).mean_sojourn();
        let w_md1 = md1_mean_time_in_system(0.8, 1.0);
        assert!(det < exp, "M/D/1 {det} should beat M/M/1 {exp}");
        assert!((det - w_md1).abs() < 0.25, "sim {det} vs P-K {w_md1}");
    }

    #[test]
    fn stealing_reduces_sojourn_time() {
        let mut cfg = base(64, 0.9);
        cfg.policy = StealPolicy::None;
        let none = run(&cfg, 4).mean_sojourn();
        cfg.policy = StealPolicy::simple_ws();
        let ws = run(&cfg, 4).mean_sojourn();
        assert!(
            ws < 0.6 * none,
            "work stealing should help substantially: {ws} vs {none}"
        );
    }

    #[test]
    fn task_conservation_holds() {
        let cfg = base(32, 0.8);
        let r = run(&cfg, 5);
        assert!(r.tasks_completed <= r.tasks_arrived);
        // In steady state nearly everything that arrived completes.
        let ratio = r.tasks_completed as f64 / r.tasks_arrived as f64;
        assert!(ratio > 0.99, "completion ratio {ratio}");
    }

    #[test]
    fn tails_start_at_one_and_decrease() {
        let cfg = base(32, 0.9);
        let r = run(&cfg, 6);
        assert!((r.load_tails[0] - 1.0).abs() < 1e-9);
        for w in r.load_tails.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn two_choices_beat_one_at_high_load() {
        let mut cfg = base(64, 0.95);
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 2,
            choices: 1,
            batch: 1,
        };
        let one = run(&cfg, 7).mean_sojourn();
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 2,
            choices: 2,
            batch: 1,
        };
        let two = run(&cfg, 7).mean_sojourn();
        assert!(two < one, "2 choices {two} should beat 1 choice {one}");
    }

    #[test]
    fn transfer_delay_slows_things_down() {
        let mut cfg = base(32, 0.8);
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 4,
            choices: 1,
            batch: 1,
        };
        let instant = run(&cfg, 8).mean_sojourn();
        cfg.transfer = Some(TransferTime::exponential(0.25));
        let delayed = run(&cfg, 8).mean_sojourn();
        assert!(
            delayed > instant,
            "transfers {delayed} vs instant {instant}"
        );
    }

    #[test]
    fn preemptive_stealing_runs_and_helps() {
        let mut cfg = base(32, 0.9);
        cfg.policy = StealPolicy::None;
        let none = run(&cfg, 9).mean_sojourn();
        cfg.policy = StealPolicy::Preemptive {
            begin_at: 1,
            rel_threshold: 2,
        };
        let pre = run(&cfg, 9).mean_sojourn();
        assert!(pre < none);
    }

    #[test]
    fn repeated_attempts_beat_single_attempt() {
        let mut cfg = base(32, 0.9);
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 2,
            choices: 1,
            batch: 1,
        };
        let single = run(&cfg, 10).mean_sojourn();
        cfg.policy = StealPolicy::Repeated {
            rate: 4.0,
            threshold: 2,
        };
        let repeated = run(&cfg, 10).mean_sojourn();
        assert!(repeated < single, "repeated {repeated} vs single {single}");
    }

    #[test]
    fn rebalancing_helps_at_high_load() {
        let mut cfg = base(32, 0.9);
        cfg.policy = StealPolicy::None;
        let none = run(&cfg, 11).mean_sojourn();
        cfg.policy = StealPolicy::Rebalance {
            rate: RebalanceRate::Constant(1.0),
        };
        let reb = run(&cfg, 11).mean_sojourn();
        assert!(reb < none, "rebalance {reb} vs none {none}");
    }

    #[test]
    fn batch_steals_run_with_high_threshold() {
        let mut cfg = base(32, 0.9);
        cfg.policy = StealPolicy::OnEmpty {
            threshold: 6,
            choices: 1,
            batch: 3,
        };
        let r = run(&cfg, 12);
        assert!(r.steal_successes > 0);
        assert!(r.tasks_migrated >= r.steal_successes * 3);
    }

    #[test]
    fn drained_mode_reports_makespan() {
        let mut cfg = base(16, 0.0);
        cfg.lambda = 0.0;
        cfg.run_until_drained = true;
        cfg.initial_load = 20;
        cfg.warmup = 0.0;
        cfg.policy = StealPolicy::simple_ws();
        let r = run(&cfg, 13);
        let makespan = r.makespan.expect("must drain");
        assert!(
            makespan > 15.0,
            "20 unit-mean tasks can't finish in {makespan}"
        );
        assert_eq!(r.tasks_completed, 16 * 20);
        assert_eq!(r.tasks_arrived, 16 * 20);
    }

    #[test]
    fn stealing_shortens_drain_time() {
        // The one-shot WS policy can leave the straggler untouched (an
        // idle processor that fails its single attempt never retries),
        // so use the repeated-attempt policy, which provably keeps
        // probing until the system drains.
        let mut cfg = base(16, 0.0);
        cfg.lambda = 0.0;
        cfg.run_until_drained = true;
        cfg.initial_load = 30;
        cfg.warmup = 0.0;
        cfg.policy = StealPolicy::None;
        let slow = run(&cfg, 14).makespan.unwrap();
        cfg.policy = StealPolicy::Repeated {
            rate: 2.0,
            threshold: 2,
        };
        let fast = run(&cfg, 14).makespan.unwrap();
        assert!(fast < slow, "steal {fast} vs none {slow}");
    }

    #[test]
    fn internal_arrivals_increase_load() {
        let mut cfg = base(16, 0.4);
        cfg.policy = StealPolicy::simple_ws();
        let quiet = run(&cfg, 15);
        cfg.internal_lambda = 0.3;
        let busy = run(&cfg, 15);
        assert!(busy.tasks_arrived > quiet.tasks_arrived);
        assert!(busy.mean_sojourn() > quiet.mean_sojourn());
    }

    #[test]
    fn heterogeneous_speeds_run_and_conserve() {
        use crate::config::SpeedProfile;
        let mut cfg = base(16, 0.8);
        cfg.speeds = SpeedProfile::Classes(vec![(0.5, 2.0), (0.5, 1.0)]);
        let r = run(&cfg, 16);
        let ratio = r.tasks_completed as f64 / r.tasks_arrived as f64;
        assert!(ratio > 0.99);
    }

    #[test]
    fn erlang_service_runs() {
        let mut cfg = base(16, 0.8);
        cfg.service = ServiceDistribution::unit_erlang(10);
        let r = run(&cfg, 18);
        assert!(r.mean_sojourn() > 1.0);
    }

    #[test]
    fn snapshots_record_transient_tails() {
        let mut cfg = base(32, 0.8);
        cfg.horizon = 100.0;
        cfg.warmup = 0.0;
        cfg.snapshot_interval = Some(10.0);
        let r = run(&cfg, 20);
        assert_eq!(r.snapshots.len(), 10, "expected one snapshot per 10 s");
        // Starting empty, the early busy fraction is below the late one.
        let early = r.snapshots[0].1.get(1).copied().unwrap_or(0.0);
        let late = r.snapshots[9].1.get(1).copied().unwrap_or(0.0);
        assert!(early <= late + 0.2, "early {early} vs late {late}");
        for (t, tails) in &r.snapshots {
            assert!(*t > 0.0);
            assert!((tails[0] - 1.0).abs() < 1e-9);
            for w in tails.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn tail_samples_track_the_snapshot_grid() {
        use loadsteal_obs::{CollectingRecorder, Event as ObsEvent};
        let mut cfg = base(32, 0.8);
        cfg.horizon = 100.0;
        cfg.warmup = 0.0;
        cfg.snapshot_interval = Some(10.0);
        cfg.sample_tails = Some(10.0);
        let mut rec = CollectingRecorder::new();
        let r = run_recorded(&cfg, 20, &mut rec);
        let samples: Vec<(f64, [f64; 8], u32)> = rec
            .events()
            .iter()
            .filter_map(|ev| match *ev {
                ObsEvent::TailSample { t, tails, depth } => Some((t, tails, depth)),
                _ => None,
            })
            .collect();
        // Same grid convention as in-memory snapshots: one per 10 s,
        // and identical values at every shared instant.
        assert_eq!(samples.len(), r.snapshots.len());
        for ((st, tails, depth), (qt, snap)) in samples.iter().zip(&r.snapshots) {
            assert_eq!(st, qt);
            for i in 1..=TAIL_SAMPLE_DEPTH {
                let expect = snap.get(i).copied().unwrap_or(0.0);
                assert_eq!(tails[i - 1], expect, "s_{i} at t = {st}");
            }
            // Trailing zeros are elided from the meaningful depth.
            assert!((*depth as usize) <= TAIL_SAMPLE_DEPTH);
            for &s in &tails[*depth as usize..] {
                assert_eq!(s, 0.0);
            }
        }
        // Tails are valid distributions at every instant.
        for (_, tails, _) in &samples {
            for w in tails.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
            assert!(tails[0] <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn tail_sampling_does_not_perturb_the_run() {
        use loadsteal_obs::CountingRecorder;
        let mut cfg = base(16, 0.8);
        cfg.horizon = 5_000.0;
        cfg.warmup = 500.0;
        let plain = run(&cfg, 24);
        cfg.sample_tails = Some(5.0);
        // Disabled recorder: the flag is inert.
        let silent = run(&cfg, 24);
        assert_eq!(plain.sojourn.mean(), silent.sojourn.mean());
        assert_eq!(plain.events_processed, silent.events_processed);
        // Live recorder: identical trajectory (sampling reads the load
        // histogram, never the RNG), one sample per grid point.
        let mut rec = CountingRecorder::new();
        let traced = run_recorded(&cfg, 24, &mut rec);
        assert_eq!(plain.sojourn.mean(), traced.sojourn.mean());
        assert_eq!(plain.events_processed, traced.events_processed);
        assert_eq!(rec.counts().tail_samples, 1_000);
        // Without the flag a live recorder sees no samples.
        cfg.sample_tails = None;
        let mut rec = CountingRecorder::new();
        let _ = run_recorded(&cfg, 24, &mut rec);
        assert_eq!(rec.counts().tail_samples, 0);
    }

    #[test]
    #[should_panic(expected = "invalid simulation config")]
    fn invalid_config_panics() {
        let mut cfg = base(0, 0.5);
        cfg.n = 0;
        let _ = run(&cfg, 1);
    }

    fn heartbeat_count(cfg: &SimConfig) -> u64 {
        use loadsteal_obs::CountingRecorder;
        let mut rec = CountingRecorder::new();
        let _ = run_recorded(cfg, 21, &mut rec);
        rec.counts().heartbeats
    }

    #[test]
    fn heartbeat_interval_is_configurable_and_zero_disables() {
        let mut cfg = base(8, 0.8);
        cfg.horizon = 5_000.0;
        cfg.warmup = 500.0;
        // Default cadence (1 << 16) fires rarely at this scale…
        let default_beats = heartbeat_count(&cfg);
        // …a tight cadence fires much more often…
        cfg.heartbeat_every = 1_000;
        let tight_beats = heartbeat_count(&cfg);
        assert!(
            tight_beats > default_beats,
            "tight {tight_beats} vs default {default_beats}"
        );
        assert!(tight_beats > 10);
        // …and 0 disables heartbeats entirely.
        cfg.heartbeat_every = 0;
        assert_eq!(heartbeat_count(&cfg), 0);
    }

    #[test]
    fn heartbeats_silent_without_recorder() {
        // A disabled recorder emits nothing regardless of cadence.
        let mut cfg = base(8, 0.8);
        cfg.horizon = 2_000.0;
        cfg.warmup = 200.0;
        cfg.heartbeat_every = 100;
        let r = run(&cfg, 22);
        assert!(r.events_processed > 100);
    }

    #[test]
    fn job_tracing_does_not_perturb_the_run() {
        use loadsteal_obs::CountingRecorder;
        let mut cfg = base(16, 0.8);
        cfg.horizon = 5_000.0;
        cfg.warmup = 500.0;
        let plain = run(&cfg, 24);
        cfg.trace_jobs = true;
        // With a disabled recorder the flag is inert.
        let silent = run(&cfg, 24);
        assert_eq!(plain.sojourn.mean(), silent.sojourn.mean());
        assert_eq!(plain.events_processed, silent.events_processed);
        // With a live recorder the trajectory is still identical — job
        // ids come from a counter, never the RNG.
        let mut rec = CountingRecorder::new();
        let traced = run_recorded(&cfg, 24, &mut rec);
        assert_eq!(plain.sojourn.mean(), traced.sojourn.mean());
        assert_eq!(plain.events_processed, traced.events_processed);
        let c = rec.counts();
        assert!(c.job_events > 0);
        // Without the flag a live recorder sees no job events.
        cfg.trace_jobs = false;
        let mut rec = CountingRecorder::new();
        let _ = run_recorded(&cfg, 24, &mut rec);
        assert_eq!(rec.counts().job_events, 0);
    }

    #[test]
    fn job_events_tell_a_consistent_story() {
        use loadsteal_obs::{CollectingRecorder, Event as ObsEvent, JobEventKind};
        use std::collections::HashMap;
        let mut cfg = base(8, 0.85);
        cfg.horizon = 1_000.0;
        cfg.warmup = 0.0;
        cfg.trace_jobs = true;
        let mut rec = CollectingRecorder::new();
        let result = run_recorded(&cfg, 25, &mut rec);
        let mut arrivals: HashMap<u64, f64> = HashMap::new();
        let mut starts = 0u64;
        let mut completions = 0u64;
        let mut migrated = 0u64;
        for ev in rec.events() {
            if let ObsEvent::Job { kind, t, job, .. } = *ev {
                match kind {
                    JobEventKind::Arrival => {
                        assert!(arrivals.insert(job, t).is_none(), "job {job} arrived twice");
                    }
                    JobEventKind::Migrate => migrated += 1,
                    JobEventKind::ServiceStart => {
                        starts += 1;
                        assert!(arrivals[&job] <= t, "service before arrival for job {job}");
                    }
                    JobEventKind::Completion => {
                        completions += 1;
                        assert!(
                            arrivals[&job] <= t,
                            "completion before arrival for job {job}"
                        );
                    }
                }
            }
        }
        assert_eq!(arrivals.len() as u64, result.tasks_arrived);
        assert_eq!(completions, result.tasks_completed);
        assert_eq!(migrated, result.tasks_migrated);
        // Every completion follows a service start; some jobs may still
        // be queued (arrived but unstarted) at the horizon.
        assert!(starts >= completions);
        assert!(starts <= result.tasks_arrived);
    }

    #[test]
    fn sojourn_digest_matches_online_stats() {
        let mut cfg = base(16, 0.8);
        cfg.horizon = 5_000.0;
        cfg.warmup = 500.0;
        // Off by default.
        assert!(run(&cfg, 23).sojourn_digest.is_none());
        cfg.sojourn_digest = true;
        let r = run(&cfg, 23);
        let d = r.sojourn_digest.as_ref().expect("digest requested");
        assert_eq!(d.count(), r.sojourn.count());
        assert!(
            (d.mean() - r.sojourn.mean()).abs() < 1e-9 * r.sojourn.mean(),
            "digest mean {} vs stats mean {}",
            d.mean(),
            r.sojourn.mean()
        );
        // Quantiles are ordered and bracket the mean plausibly.
        let p50 = d.quantile(0.5).unwrap();
        let p99 = d.quantile(0.99).unwrap();
        assert!(p50 < p99);
        assert!(p50 <= r.sojourn.mean() && r.sojourn.mean() <= p99);
        // The digest must not perturb the simulation itself.
        let plain = {
            let mut c = cfg.clone();
            c.sojourn_digest = false;
            run(&c, 23)
        };
        assert_eq!(plain.sojourn.mean(), r.sojourn.mean());
        assert_eq!(plain.events_processed, r.events_processed);
    }

    // ----- engine-equivalence regressions ---------------------------------

    /// Run `cfg` under both engines with a collecting recorder and full
    /// instrumentation, returning the two (trace, result) pairs.
    fn both_engines(
        mut cfg: SimConfig,
        seed: u64,
    ) -> ((Vec<ObsEvent>, SimResult), (Vec<ObsEvent>, SimResult)) {
        use loadsteal_obs::CollectingRecorder;
        cfg.trace_jobs = true;
        cfg.engine = EngineKind::Heap;
        let mut rec_h = CollectingRecorder::new();
        let r_h = run_recorded(&cfg, seed, &mut rec_h);
        cfg.engine = EngineKind::Calendar;
        let mut rec_c = CollectingRecorder::new();
        let r_c = run_recorded(&cfg, seed, &mut rec_c);
        (
            (rec_h.events().to_vec(), r_h),
            (rec_c.events().to_vec(), r_c),
        )
    }

    fn assert_equivalent(cfg: SimConfig, seed: u64, what: &str) {
        let ((ev_h, r_h), (ev_c, r_c)) = both_engines(cfg, seed);
        assert_eq!(
            r_h.events_processed, r_c.events_processed,
            "{what}: event counts diverged"
        );
        assert_eq!(
            r_h.sojourn.mean(),
            r_c.sojourn.mean(),
            "{what}: sojourn means diverged"
        );
        assert_eq!(r_h.load_tails, r_c.load_tails, "{what}: tails diverged");
        assert_eq!(ev_h.len(), ev_c.len(), "{what}: trace lengths diverged");
        for (i, (a, b)) in ev_h.iter().zip(&ev_c).enumerate() {
            assert_eq!(a, b, "{what}: traces diverged at event {i}");
        }
    }

    #[test]
    fn heap_and_calendar_engines_emit_identical_traces() {
        // One config per structurally distinct event mix. Plain WS,
        // repeated retries, sharing and internal arrivals leave the timed
        // list empty; rebalance ticks, transfer delays and Erlang service
        // interleave timed events with the superposed clock.
        let mut ws = base(16, 0.8);
        ws.horizon = 500.0;
        ws.warmup = 50.0;
        assert_equivalent(ws.clone(), 31, "simple ws");

        let mut rep = ws.clone();
        rep.policy = StealPolicy::Repeated {
            rate: 2.0,
            threshold: 2,
        };
        assert_equivalent(rep, 32, "repeated");

        let mut reb = ws.clone();
        reb.policy = StealPolicy::Rebalance {
            rate: RebalanceRate::PerTask(0.5),
        };
        assert_equivalent(reb, 33, "rebalance");

        let mut tr = ws.clone();
        tr.policy = StealPolicy::OnEmpty {
            threshold: 4,
            choices: 2,
            batch: 1,
        };
        tr.transfer = Some(TransferTime::exponential(0.5));
        assert_equivalent(tr, 34, "transfer");

        let mut share = ws.clone();
        share.policy = StealPolicy::Share {
            send_threshold: 2,
            recv_threshold: 2,
        };
        assert_equivalent(share, 35, "share");

        let mut erlang = ws.clone();
        erlang.service = ServiceDistribution::unit_erlang(3);
        assert_equivalent(erlang, 39, "erlang service");

        let mut internal = ws;
        internal.internal_lambda = 0.2;
        assert_equivalent(internal, 36, "internal arrivals");
    }

    #[test]
    fn simultaneous_events_replay_identically_across_engines() {
        // Deterministic arrivals land on every processor at the same
        // instants (t = 2, 4, 6, …) and deterministic unit service makes
        // completions collide with them exactly — a dense stream of
        // time ties that only the pinned (time, seq) order untangles.
        let mut cfg = base(8, 0.5);
        cfg.service = ServiceDistribution::unit_deterministic();
        cfg.arrival = Some(ServiceDistribution::Deterministic { value: 2.0 });
        cfg.horizon = 400.0;
        cfg.warmup = 40.0;
        assert_equivalent(cfg.clone(), 37, "deterministic tie storm");
        // And each engine replays itself bit-for-bit.
        for engine in [EngineKind::Heap, EngineKind::Calendar] {
            cfg.engine = engine;
            let a = run(&cfg, 37);
            let b = run(&cfg, 37);
            assert_eq!(a.sojourn.mean(), b.sojourn.mean(), "{engine:?} replay");
            assert_eq!(a.events_processed, b.events_processed, "{engine:?} replay");
        }
    }

    #[test]
    fn drained_runs_agree_across_engines() {
        let mut cfg = base(16, 0.0);
        cfg.lambda = 0.0;
        cfg.run_until_drained = true;
        cfg.initial_load = 12;
        cfg.warmup = 0.0;
        cfg.policy = StealPolicy::Repeated {
            rate: 2.0,
            threshold: 2,
        };
        cfg.engine = EngineKind::Heap;
        let heap = run(&cfg, 38);
        cfg.engine = EngineKind::Calendar;
        let cal = run(&cfg, 38);
        assert_eq!(heap.makespan, cal.makespan);
        assert_eq!(heap.events_processed, cal.events_processed);
    }
}

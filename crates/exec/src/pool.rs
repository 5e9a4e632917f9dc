//! The work-stealing thread pool.
//!
//! Architecture (see `docs/executor.md` for the full design notes):
//!
//! * one [`deque`](crate::deque) per worker — the lock-free hot path
//!   for a worker scheduling and re-acquiring its own tasks;
//! * a global [`Injector`] for external submission and batch overflow;
//! * a per-worker *inbox* (small locked queue) for **targeted**
//!   submission ([`Pool::submit_to`]) — the steal-bench driver
//!   addresses arrivals to a specific worker the way the paper's
//!   Poisson streams address a specific processor;
//! * randomized single-victim stealing with two victim policies
//!   ([`StealMode`]): `Greedy` for throughput workloads
//!   (replication fan-out), `OnEmptyOnce` reproducing the paper's
//!   dynamics — exactly one steal attempt each time a worker runs dry;
//! * parking on a per-worker mutex/condvar with a stamped flag and a
//!   timeout backstop, so idle workers cost nothing but wake promptly;
//! * panic isolation: a panicking task never takes down its worker,
//!   and batch siblings all run before the first panic resumes on the
//!   caller (drain semantics).
//!
//! When built with a tracer ([`PoolBuilder::tracer`]) the pool emits
//! `loadsteal.trace.v1` events — arrival / completion / steal-attempt
//! / steal-success / migration with real wall-clock timestamps mapped
//! to model time — through a [`ShardSink`], one shard per emitting
//! thread, using the exact conventions of the simulator engine so
//! `loadsteal report` and the transient comparator consume measured
//! executor traces unchanged.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use loadsteal_obs::span::span;
use loadsteal_obs::{Event as ObsEvent, ShardSink, SimEventKind};

use crate::deque::{self, Steal, Stealer, Worker};
use crate::injector::Injector;
use crate::rng::Rng;

/// A unit of work.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// Victim-probing policy for idle workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StealMode {
    /// Keep stealing while any queue has work; park only when a full
    /// sweep finds nothing. Right for throughput workloads.
    Greedy,
    /// One steal attempt at one uniformly random victim each time the
    /// worker *transitions* to empty, then park until targeted work
    /// arrives. This reproduces the load-stealing dynamics of the
    /// source paper (a processor completing its last task probes a
    /// single random partner), so measured steal rates are comparable
    /// to the mean-field model.
    OnEmptyOnce,
}

/// Monotonic counters kept by the pool (see [`Pool::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed to completion (including panicked ones).
    pub executed: u64,
    /// Steal probes issued by idle workers.
    pub steal_attempts: u64,
    /// Probes that brought back a task.
    pub steal_successes: u64,
    /// Panics caught and isolated from workers.
    pub panics: u64,
}

/// Live per-worker view (see [`Pool::worker_stats`]). Queue depths are
/// instantaneous reads of lock-free state; the counters are that
/// worker's own slots, so a sampler thread sees them without touching
/// any line the workers write on the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks currently in this worker's deque (excluding one mid-run).
    pub queue_depth: usize,
    /// Targeted submissions awaiting inbox drain.
    pub inbox_depth: usize,
    /// Tasks this worker executed to completion.
    pub executed: u64,
    /// Steal probes this worker issued.
    pub steal_attempts: u64,
    /// Probes of this worker's that brought back a task.
    pub steal_successes: u64,
    /// Park episodes (blocked-idle transitions).
    pub parks: u64,
    /// Currently blocked in `park`.
    pub parked: bool,
    /// Currently executing a task body.
    pub busy: bool,
}

/// Wall-clock → model-time trace emission state. Every emit stamps
/// `t` on the emitting thread and appends to that thread's own shard:
/// per-shard streams are monotone, and the sink's merge on drain (what
/// [`ShardedRecorder`](loadsteal_obs::ShardedRecorder) does) recovers
/// the global order.
struct Tracer {
    sink: Arc<dyn ShardSink>,
    epoch: Instant,
    /// Seconds of wall clock per unit of model time.
    tau: f64,
}

impl Tracer {
    /// Record one simulator-schema event on `shard`, the emitting
    /// thread's index (worker index, or `n` for external submitters).
    fn emit(&self, kind: SimEventKind, proc: usize, src: Option<usize>, count: u32, shard: usize) {
        if !self.sink.enabled() {
            return;
        }
        let t = self.epoch.elapsed().as_secs_f64() / self.tau;
        self.sink.record(
            shard,
            &ObsEvent::Sim {
                kind,
                t,
                proc: proc as u32,
                src: src.map(|s| s as u32),
                count,
            },
        );
    }
}

/// Per-worker state visible to every thread. Cache-line aligned so
/// one worker's counter writes never invalidate a neighbor's slot.
#[repr(align(128))]
struct WorkerShared {
    stealer: Stealer<Task>,
    inbox: Mutex<VecDeque<Task>>,
    inbox_len: AtomicUsize,
    /// True while this worker is executing a task body. Thieves use it
    /// to tell "victim busy with an undrained inbox" (queue ≥ 2,
    /// stealable under the paper's threshold) from "victim idle, inbox
    /// task merely awaiting wakeup" (queue = 1, not stealable).
    busy: AtomicBool,
    parked: AtomicBool,
    park_lock: Mutex<()>,
    park_cv: Condvar,
    /// Per-worker counter slots: each worker writes only its own,
    /// [`Pool::stats`] folds them on read (the sharded-counter
    /// discipline — no shared hot cache line).
    executed: AtomicU64,
    steal_attempts: AtomicU64,
    steal_successes: AtomicU64,
    parks: AtomicU64,
}

/// State shared by all workers and external handles.
pub(crate) struct Shared {
    injector: Injector<Task>,
    workers: Vec<WorkerShared>,
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    mode: StealMode,
    tracer: Option<Tracer>,
    seed: u64,
    /// Tasks executed by non-worker helper threads (batch helping),
    /// which have no per-worker slot to charge.
    external_executed: AtomicU64,
    panics: AtomicU64,
}

/// Thread-local identity of a pool worker, used to route nested
/// parallel work back onto the same pool without going through the
/// injector.
struct WorkerCtx {
    shared: Arc<Shared>,
    index: usize,
    deque: Worker<Task>,
    /// Victim-selection RNG. Interior mutability because steal probes
    /// happen both from the idle loop and from batch-help re-entry.
    rng: std::cell::RefCell<Rng>,
}

thread_local! {
    /// Points at the executing worker's [`WorkerCtx`] (stack frame of
    /// `worker_loop`) for the lifetime of that loop; null elsewhere.
    static CTX: std::cell::Cell<*const WorkerCtx> = const { std::cell::Cell::new(std::ptr::null()) };
}

/// Run `f` with the current thread's worker context, if any.
///
/// Soundness: the pointer is set by `worker_loop` whose stack frame
/// owns the `WorkerCtx` and strictly outlives every task executed on
/// that thread; it is cleared before the frame unwinds.
fn with_ctx<R>(f: impl FnOnce(Option<&WorkerCtx>) -> R) -> R {
    CTX.with(|c| {
        let p = c.get();
        if p.is_null() {
            f(None)
        } else {
            f(Some(unsafe { &*p }))
        }
    })
}

impl Shared {
    fn n(&self) -> usize {
        self.workers.len()
    }

    fn emit(&self, kind: SimEventKind, proc: usize, src: Option<usize>, count: u32, shard: usize) {
        if let Some(tr) = &self.tracer {
            tr.emit(kind, proc, src, count, shard);
        }
    }

    /// Execute one task with panic isolation and bookkeeping.
    /// `proc` is the worker index for trace attribution (`None` when
    /// an external helper runs a batch job).
    fn execute(&self, task: Task, proc: Option<usize>) {
        let _span = span("exec.task");
        if let Some(i) = proc {
            self.workers[i].busy.store(true, Ordering::SeqCst);
        }
        let r = catch_unwind(AssertUnwindSafe(task));
        if let Some(i) = proc {
            self.workers[i].busy.store(false, Ordering::SeqCst);
            self.workers[i].executed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.external_executed.fetch_add(1, Ordering::Relaxed);
        }
        if r.is_err() {
            // Batch jobs catch their own panics (drain semantics), so
            // anything reaching here came from a raw `spawn`; isolate
            // it — the worker lives on.
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(i) = proc {
            self.emit(SimEventKind::Completion, i, None, 1, i);
        }
    }

    /// Move every inbox task onto the worker's own deque. Returns how
    /// many were transferred.
    fn drain_inbox(&self, ctx: &WorkerCtx) -> usize {
        let me = &self.workers[ctx.index];
        if me.inbox_len.load(Ordering::SeqCst) == 0 {
            return 0;
        }
        let mut moved = 0;
        let mut q = me.inbox.lock().unwrap();
        while let Some(t) = q.pop_front() {
            ctx.deque.push(t);
            moved += 1;
        }
        me.inbox_len.store(0, Ordering::SeqCst);
        moved
    }

    /// One steal probe at one uniformly random victim (the paper's
    /// protocol). Emits attempt/success/migration events when tracing.
    fn steal_once(&self, ctx: &WorkerCtx) -> Option<Task> {
        let n = self.n();
        if n < 2 {
            return None;
        }
        let _span = span("exec.steal");
        // Uniform over the other n-1 workers.
        let victim = {
            let mut rng = ctx.rng.borrow_mut();
            let v = rng.below(n - 1);
            if v >= ctx.index {
                v + 1
            } else {
                v
            }
        };
        let me = &self.workers[ctx.index];
        me.steal_attempts.fetch_add(1, Ordering::Relaxed);
        self.emit(SimEventKind::StealAttempt, ctx.index, None, 1, ctx.index);
        if let Some(t) = self.probe(victim) {
            me.steal_successes.fetch_add(1, Ordering::Relaxed);
            self.emit(SimEventKind::StealSuccess, ctx.index, None, 1, ctx.index);
            self.emit(
                SimEventKind::Migration,
                ctx.index,
                Some(victim),
                1,
                ctx.index,
            );
            return Some(t);
        }
        None
    }

    /// Probe one victim: its deque first (tasks beyond the one in
    /// service), then — only while the victim is mid-task — its inbox
    /// (arrivals it has not had a chance to drain). An idle victim's
    /// inbox is off limits: that task is the victim's *only* one and
    /// the paper's threshold-2 rule says leave it alone.
    fn probe(&self, victim: usize) -> Option<Task> {
        let w = &self.workers[victim];
        let mut spins = 0;
        loop {
            match w.stealer.steal() {
                Steal::Success(t) => return Some(t),
                Steal::Empty => break,
                Steal::Retry => {
                    spins += 1;
                    if spins > 32 {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
        }
        if w.busy.load(Ordering::SeqCst) && w.inbox_len.load(Ordering::SeqCst) > 0 {
            let mut q = w.inbox.lock().unwrap();
            let t = q.pop_front();
            w.inbox_len.store(q.len(), Ordering::SeqCst);
            return t;
        }
        None
    }

    /// Greedy acquisition for throughput mode and batch helping: own
    /// deque, then the injector, then a full randomized sweep of every
    /// other worker's deque.
    fn find_task_greedy(&self, ctx: &WorkerCtx) -> Option<Task> {
        self.drain_inbox(ctx);
        if let Some(t) = ctx.deque.pop() {
            return Some(t);
        }
        if let Some(t) = self.injector.pop() {
            return Some(t);
        }
        let n = self.n();
        if n < 2 {
            return None;
        }
        let start = ctx.rng.borrow_mut().below(n);
        for k in 0..n {
            let v = (start + k) % n;
            if v == ctx.index {
                continue;
            }
            self.workers[ctx.index]
                .steal_attempts
                .fetch_add(1, Ordering::Relaxed);
            let mut spins = 0;
            loop {
                match self.workers[v].stealer.steal() {
                    Steal::Success(t) => {
                        self.workers[ctx.index]
                            .steal_successes
                            .fetch_add(1, Ordering::Relaxed);
                        return Some(t);
                    }
                    Steal::Empty => break,
                    Steal::Retry => {
                        spins += 1;
                        if spins > 32 {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
        }
        None
    }

    /// Is there anything this worker could run right now without
    /// stealing? (`OnEmptyOnce` parking must not be woken into extra
    /// steal attempts, so cross-worker deques are checked only in
    /// greedy mode.)
    fn work_available(&self, index: usize) -> bool {
        let me = &self.workers[index];
        if me.inbox_len.load(Ordering::SeqCst) > 0 || !me.stealer.is_empty() {
            return true;
        }
        if !self.injector.is_empty() {
            return true;
        }
        if self.mode == StealMode::Greedy {
            return self
                .workers
                .iter()
                .enumerate()
                .any(|(i, w)| i != index && !w.stealer.is_empty());
        }
        false
    }

    /// Block until targeted work arrives (or the timeout backstop
    /// rechecks). Two-phase: advertise the parked flag, re-verify
    /// emptiness, then wait — wakers clear the flag under the same
    /// lock, so a submission can never slip between check and sleep.
    fn park(&self, index: usize) {
        let me = &self.workers[index];
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.work_available(index) || self.shutdown.load(Ordering::SeqCst) {
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        let _span = span("exec.park");
        me.parks.fetch_add(1, Ordering::Relaxed);
        let mut guard = me.park_lock.lock().unwrap();
        me.parked.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.work_available(index) || self.shutdown.load(Ordering::SeqCst) {
            me.parked.store(false, Ordering::SeqCst);
            drop(guard);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        while me.parked.load(Ordering::SeqCst) && !self.shutdown.load(Ordering::SeqCst) {
            let (g, timeout) = me
                .park_cv
                .wait_timeout(guard, Duration::from_millis(10))
                .unwrap();
            guard = g;
            if timeout.timed_out() && self.work_available(index) {
                me.parked.store(false, Ordering::SeqCst);
            }
        }
        me.parked.store(false, Ordering::SeqCst);
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake a specific worker (targeted submission).
    fn wake_worker(&self, index: usize) {
        fence(Ordering::SeqCst);
        let me = &self.workers[index];
        if me.parked.load(Ordering::SeqCst) {
            let _g = me.park_lock.lock().unwrap();
            me.parked.store(false, Ordering::SeqCst);
            me.park_cv.notify_one();
        }
    }

    /// Wake one parked worker, if any (untargeted submission).
    fn wake_one(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        for w in &self.workers {
            if w.parked.load(Ordering::SeqCst) {
                let _g = w.park_lock.lock().unwrap();
                if w.parked.load(Ordering::SeqCst) {
                    w.parked.store(false, Ordering::SeqCst);
                    w.park_cv.notify_one();
                    return;
                }
            }
        }
    }

    /// Wake every parked worker (batch submission, shutdown).
    fn wake_all(&self) {
        fence(Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        for w in &self.workers {
            if w.parked.load(Ordering::SeqCst) {
                let _g = w.park_lock.lock().unwrap();
                w.parked.store(false, Ordering::SeqCst);
                w.park_cv.notify_one();
            }
        }
    }
}

/// The main worker loop: drain inbox → own deque → injector → steal →
/// park, with the steal step shaped by [`StealMode`].
fn worker_loop(shared: Arc<Shared>, index: usize, own: Worker<Task>) {
    let ctx = WorkerCtx {
        rng: std::cell::RefCell::new(Rng::new(
            shared.seed ^ (index as u64).wrapping_mul(0x9E3779B97F4A7C15),
        )),
        shared: Arc::clone(&shared),
        index,
        deque: own,
    };
    CTX.with(|c| c.set(&ctx as *const WorkerCtx));
    // `had_work`: the worker has executed something since its last
    // steal attempt, i.e. the next empty deque is a *transition* to
    // empty — the only moment OnEmptyOnce is allowed to probe.
    let mut had_work = false;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        shared.drain_inbox(&ctx);
        if let Some(t) = ctx.deque.pop() {
            shared.execute(t, Some(index));
            had_work = true;
            continue;
        }
        if let Some(t) = shared.injector.pop() {
            shared.execute(t, Some(index));
            had_work = true;
            continue;
        }
        match shared.mode {
            StealMode::Greedy => {
                if let Some(t) = shared.find_task_greedy(&ctx) {
                    shared.execute(t, Some(index));
                    had_work = true;
                    continue;
                }
                shared.park(index);
            }
            StealMode::OnEmptyOnce => {
                if had_work {
                    had_work = false;
                    if let Some(t) = shared.steal_once(&ctx) {
                        shared.execute(t, Some(index));
                        had_work = true;
                        continue;
                    }
                }
                shared.park(index);
            }
        }
    }
    CTX.with(|c| c.set(std::ptr::null()));
}

/// Configures and builds a [`Pool`].
pub struct PoolBuilder {
    threads: Option<usize>,
    mode: StealMode,
    seed: u64,
    tracer: Option<(Arc<dyn ShardSink>, f64)>,
}

impl Default for PoolBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PoolBuilder {
    /// Start from defaults: hardware parallelism, greedy stealing.
    pub fn new() -> Self {
        PoolBuilder {
            threads: None,
            mode: StealMode::Greedy,
            seed: 0x10ad_57ea,
            tracer: None,
        }
    }

    /// Set the number of worker threads (0 means "default").
    pub fn num_threads(mut self, n: usize) -> Self {
        self.threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Set the victim-probing policy.
    pub fn steal_mode(mut self, mode: StealMode) -> Self {
        self.mode = mode;
        self
    }

    /// Seed the per-worker victim-selection RNGs (deterministic victim
    /// sequences per worker, given a quiescent schedule).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Emit simulator-schema trace events into `sink`, mapping wall
    /// clock to model time at `tau` seconds per time unit; the epoch
    /// is the moment [`PoolBuilder::build`] runs. Each worker appends
    /// to its own shard (no cross-worker lock per event), and external
    /// [`Pool::submit_to`] callers share shard `n`. The sink must
    /// provide at least `threads + 1` shards — [`PoolBuilder::build`]
    /// asserts this — and is expected to merge-sort shards back into
    /// one `t`-ordered stream on drain (what
    /// [`loadsteal_obs::ShardedRecorder`] does).
    pub fn tracer(mut self, sink: Arc<dyn ShardSink>, tau: f64) -> Self {
        assert!(tau > 0.0, "tau must be positive");
        self.tracer = Some((sink, tau));
        self
    }

    /// Spawn the workers and return the pool handle.
    pub fn build(self) -> Pool {
        let threads = self.threads.unwrap_or_else(default_threads).max(1);
        if let Some((sink, _)) = &self.tracer {
            assert!(
                sink.shards() > threads,
                "tracer needs {} shards ({} workers + 1 submitter), sink has {}",
                threads + 1,
                threads,
                sink.shards()
            );
        }
        let epoch = Instant::now();
        let mut owners = Vec::with_capacity(threads);
        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (owner, stealer) = deque::deque::<Task>();
            owners.push(owner);
            workers.push(WorkerShared {
                stealer,
                inbox: Mutex::new(VecDeque::new()),
                inbox_len: AtomicUsize::new(0),
                busy: AtomicBool::new(false),
                parked: AtomicBool::new(false),
                park_lock: Mutex::new(()),
                park_cv: Condvar::new(),
                executed: AtomicU64::new(0),
                steal_attempts: AtomicU64::new(0),
                steal_successes: AtomicU64::new(0),
                parks: AtomicU64::new(0),
            });
        }
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            workers,
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            mode: self.mode,
            tracer: self.tracer.map(|(sink, tau)| Tracer { sink, epoch, tau }),
            seed: self.seed,
            external_executed: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = owners
            .into_iter()
            .enumerate()
            .map(|(i, own)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("exec-worker-{i}"))
                    .spawn(move || worker_loop(shared, i, own))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool {
            shared,
            handles,
            epoch,
        }
    }
}

fn default_threads() -> usize {
    if let Ok(v) = std::env::var("LOADSTEAL_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// A handle to a running work-stealing pool. Dropping it shuts the
/// workers down (pending queue contents are discarded).
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    epoch: Instant,
}

impl Pool {
    /// Builder entry point.
    pub fn builder() -> PoolBuilder {
        PoolBuilder::new()
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.shared.n()
    }

    /// The instant model time 0 corresponds to (pool construction).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Snapshot of the pool counters: the per-worker slots folded
    /// together, plus tasks run by external helper threads.
    pub fn stats(&self) -> PoolStats {
        let mut stats = PoolStats {
            executed: self.shared.external_executed.load(Ordering::SeqCst),
            panics: self.shared.panics.load(Ordering::SeqCst),
            ..PoolStats::default()
        };
        for w in &self.shared.workers {
            stats.executed += w.executed.load(Ordering::SeqCst);
            stats.steal_attempts += w.steal_attempts.load(Ordering::SeqCst);
            stats.steal_successes += w.steal_successes.load(Ordering::SeqCst);
        }
        stats
    }

    /// Live per-worker snapshot, indexed by worker. Safe to call from
    /// any thread at any rate: reads are lock-free loads of each
    /// worker's own padded slots (the `loadsteal top` poll path).
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shared
            .workers
            .iter()
            .map(|w| WorkerStats {
                queue_depth: w.stealer.len(),
                inbox_depth: w.inbox_len.load(Ordering::SeqCst),
                executed: w.executed.load(Ordering::SeqCst),
                steal_attempts: w.steal_attempts.load(Ordering::SeqCst),
                steal_successes: w.steal_successes.load(Ordering::SeqCst),
                parks: w.parks.load(Ordering::SeqCst),
                parked: w.parked.load(Ordering::SeqCst),
                busy: w.busy.load(Ordering::SeqCst),
            })
            .collect()
    }

    /// Fire-and-forget execution via the global injector.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.shared.injector.push(Box::new(task));
        self.shared.wake_one();
    }

    /// Targeted submission: enqueue at worker `index`'s inbox (the
    /// steal-bench "arrival at processor i"). Emits an `arrival` trace
    /// event when the pool has a tracer.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn submit_to(&self, index: usize, task: impl FnOnce() + Send + 'static) {
        assert!(index < self.shared.n(), "worker index out of range");
        // Arrival goes on the wire before the task becomes runnable so
        // the trace can never complete a task it has not admitted.
        // Shard `n` is the external-submitter shard: the driver is not
        // a worker, so it must not write into any worker's shard.
        self.shared
            .emit(SimEventKind::Arrival, index, None, 1, self.shared.n());
        let w = &self.shared.workers[index];
        {
            let mut q = w.inbox.lock().unwrap();
            q.push_back(Box::new(task));
            w.inbox_len.store(q.len(), Ordering::SeqCst);
        }
        self.shared.wake_worker(index);
    }

    /// Run `f` on this pool and wait for its result. If the calling
    /// thread already is a worker of this pool, `f` runs inline;
    /// otherwise it is injected and the caller blocks (without
    /// consuming pool tasks) until it finishes. Panics in `f`
    /// propagate to the caller.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let inline = with_ctx(|ctx| matches!(ctx, Some(c) if Arc::ptr_eq(&c.shared, &self.shared)));
        if inline {
            return f();
        }
        let batch = Arc::new(Batch::new(1));
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        {
            let batch = Arc::clone(&batch);
            let slot = Arc::clone(&slot);
            // Lifetime erasure: `f` borrows the caller's stack, but the
            // wait below does not return until the job has run, so the
            // borrow outlives the use. See `erase_task`.
            let job: Box<dyn FnOnce() + Send> = Box::new(move || {
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(r) => *slot.lock().unwrap() = Some(r),
                    Err(p) => batch.record_panic(p),
                }
                batch.job_done();
            });
            let job = unsafe { erase_task(job) };
            self.shared.injector.push(job);
        }
        self.shared.wake_one();
        batch.wait_without_helping();
        batch.resume_if_panicked();
        let r = slot.lock().unwrap().take();
        r.expect("install job completed without a result or a panic")
    }

    /// Stop the workers, wait for them to exit, and return the final
    /// counters. (Unlike plain `drop`, the returned stats are taken
    /// *after* the last task has finished.)
    pub fn shutdown(self) -> PoolStats {
        self.shutdown_detailed().0
    }

    /// [`shutdown`](Self::shutdown), also returning the settled
    /// per-worker stats.
    pub fn shutdown_detailed(mut self) -> (PoolStats, Vec<WorkerStats>) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        (self.stats(), self.worker_stats())
    }

    pub(crate) fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The process-wide default pool (size from `LOADSTEAL_THREADS` or the
/// hardware). Built on first use; never torn down.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| PoolBuilder::new().build())
}

/// Erase a scoped task's lifetime so it can ride the `'static` queues.
///
/// # Safety
/// The caller must guarantee the task runs (or is dropped) before any
/// borrow it captures goes out of scope. Every call site pairs the
/// erased task with a [`Batch`] whose wait does not return until the
/// job has executed, and pool shutdown only drops queues after the
/// owning `Pool` handle — which the waiting caller keeps alive — is
/// itself dropped.
pub(crate) unsafe fn erase_task<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> Task {
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, Task>(task) }
}

/// Completion latch for a group of jobs, with first-panic capture.
pub(crate) struct Batch {
    remaining: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Batch {
    pub(crate) fn new(jobs: usize) -> Self {
        Batch {
            remaining: AtomicUsize::new(jobs),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Add `k` more jobs before they are pushed (scope spawning).
    pub(crate) fn add_jobs(&self, k: usize) {
        self.remaining.fetch_add(k, Ordering::SeqCst);
    }

    pub(crate) fn job_done(&self) {
        if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _g = self.lock.lock().unwrap();
            self.cv.notify_all();
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }

    /// Keep the *first* panic; later siblings still drain.
    pub(crate) fn record_panic(&self, p: Box<dyn Any + Send>) {
        let mut g = self.panic.lock().unwrap();
        g.get_or_insert(p);
    }

    pub(crate) fn resume_if_panicked(&self) {
        if let Some(p) = self.panic.lock().unwrap().take() {
            resume_unwind(p);
        }
    }

    /// Short condvar wait used between help attempts.
    pub(crate) fn wait_brief(&self) {
        let g = self.lock.lock().unwrap();
        if !self.is_done() {
            let _ = self.cv.wait_timeout(g, Duration::from_millis(1)).unwrap();
        }
    }

    /// Block until all jobs finished, executing nothing.
    fn wait_without_helping(&self) {
        let mut g = self.lock.lock().unwrap();
        while !self.is_done() {
            let (g2, _) = self.cv.wait_timeout(g, Duration::from_millis(10)).unwrap();
            g = g2;
        }
    }
}

/// The pool whose worker is running the current thread, if any. Lets
/// nested parallel iterators stay on the pool they were `install`ed
/// into instead of hopping to the global one.
pub(crate) fn current_shared() -> Option<Arc<Shared>> {
    with_ctx(|ctx| ctx.map(|c| Arc::clone(&c.shared)))
}

/// Enqueue one erased task: a worker of `shared` schedules it on its
/// own deque (the lock-free path, stealable by the others); any other
/// thread goes through the injector.
pub(crate) fn push_task(shared: &Arc<Shared>, task: Task) {
    let leftover = with_ctx(|ctx| match ctx {
        Some(c) if Arc::ptr_eq(&c.shared, shared) => {
            c.deque.push(task);
            None
        }
        _ => Some(task),
    });
    if let Some(t) = leftover {
        shared.injector.push(t);
    }
    shared.wake_one();
}

/// Help run pool tasks until `batch`'s latch opens. A worker of the
/// pool helps greedily — own deque, injector, stealing; executing
/// *unrelated* pool tasks while waiting is what makes nested
/// parallelism deadlock-free. An external thread helps from the
/// injector only (it never takes tasks a worker already owns).
pub(crate) fn help_until_done(shared: &Arc<Shared>, batch: &Batch) {
    with_ctx(|ctx| match ctx {
        Some(c) if Arc::ptr_eq(&c.shared, shared) => {
            while !batch.is_done() {
                if let Some(t) = shared.find_task_greedy(c) {
                    shared.execute(t, Some(c.index));
                } else {
                    batch.wait_brief();
                }
            }
        }
        _ => {
            while !batch.is_done() {
                if let Some(t) = shared.injector.pop() {
                    shared.execute(t, None);
                } else {
                    batch.wait_brief();
                }
            }
        }
    })
}

/// Push a set of erased jobs belonging to `batch` onto `shared` from
/// the current thread and help run them until the batch completes.
pub(crate) fn run_batch(shared: &Arc<Shared>, jobs: Vec<Task>, batch: &Arc<Batch>) {
    let many = jobs.len() > 1;
    let leftover = with_ctx(|ctx| match ctx {
        Some(c) if Arc::ptr_eq(&c.shared, shared) => {
            for j in jobs {
                c.deque.push(j);
            }
            None
        }
        _ => Some(jobs),
    });
    if let Some(jobs) = leftover {
        for j in jobs {
            shared.injector.push(j);
        }
    }
    if many {
        shared.wake_all();
    } else {
        shared.wake_one();
    }
    help_until_done(shared, batch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn spawn_runs_tasks() {
        let pool = Pool::builder().num_threads(2).build();
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while hits.load(Ordering::SeqCst) < 100 {
            assert!(Instant::now() < deadline, "spawned tasks did not drain");
            std::thread::yield_now();
        }
        assert_eq!(pool.stats().executed, 100);
    }

    #[test]
    fn submit_to_targets_a_worker_and_panics_are_isolated() {
        let pool = Pool::builder().num_threads(2).build();
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        pool.submit_to(0, move || panic!("isolated"));
        pool.submit_to(1, move || {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().executed < 2 {
            assert!(Instant::now() < deadline, "submissions did not drain");
            std::thread::yield_now();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().panics, 1);
    }

    #[test]
    #[should_panic(expected = "worker index out of range")]
    fn submit_to_checks_bounds() {
        let pool = Pool::builder().num_threads(1).build();
        pool.submit_to(5, || {});
    }

    #[test]
    fn install_returns_value_and_runs_on_a_worker() {
        let pool = Pool::builder().num_threads(2).build();
        let on_worker = pool.install(|| with_ctx(|c| c.is_some()));
        assert!(on_worker, "install body must run on a pool worker");
        let x = pool.install(|| 21 * 2);
        assert_eq!(x, 42);
    }

    #[test]
    fn install_propagates_panics() {
        let pool = Pool::builder().num_threads(1).build();
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| panic!("through install"));
        }));
        assert!(r.is_err());
        // And the pool still works afterwards.
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn on_empty_once_steals_from_a_busy_victim() {
        let pool = Pool::builder()
            .num_threads(2)
            .steal_mode(StealMode::OnEmptyOnce)
            .build();
        // Keep worker 0 busy, then pile work into its inbox; worker 1
        // runs one task (to arm its transition-to-empty), goes idle,
        // and must eventually steal some of worker 0's backlog.
        let done = Arc::new(AtomicU32::new(0));
        for _ in 0..40 {
            let done = Arc::clone(&done);
            pool.submit_to(0, move || {
                std::thread::sleep(Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        let d1 = Arc::clone(&done);
        pool.submit_to(1, move || {
            std::thread::sleep(Duration::from_millis(1));
            d1.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while done.load(Ordering::SeqCst) < 41 {
            assert!(Instant::now() < deadline, "backlog did not drain");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert!(
            stats.steal_successes >= 1,
            "expected at least one successful steal, got {stats:?}"
        );
    }

    #[test]
    fn shutdown_joins_workers() {
        let pool = Pool::builder().num_threads(4).build();
        pool.spawn(|| {});
        drop(pool); // must not hang
    }

    #[test]
    fn worker_stats_fold_into_pool_stats() {
        let pool = Pool::builder().num_threads(3).build();
        let hits = Arc::new(AtomicU32::new(0));
        for i in 0..30 {
            let hits = Arc::clone(&hits);
            pool.submit_to(i % 3, move || {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.stats().executed < 30 {
            assert!(Instant::now() < deadline, "submissions did not drain");
            std::thread::yield_now();
        }
        let per = pool.worker_stats();
        let total = pool.stats();
        assert_eq!(per.len(), 3);
        // No external helpers ran, so the fold is exact.
        assert_eq!(per.iter().map(|w| w.executed).sum::<u64>(), total.executed);
        assert_eq!(
            per.iter().map(|w| w.steal_attempts).sum::<u64>(),
            total.steal_attempts
        );
        assert_eq!(
            per.iter().map(|w| w.steal_successes).sum::<u64>(),
            total.steal_successes
        );
        // Each worker executed its targeted share (possibly rebalanced
        // by steals, but something ran everywhere in aggregate).
        assert!(per.iter().map(|w| w.queue_depth).sum::<usize>() == 0);
    }

    #[test]
    #[should_panic(expected = "tracer needs")]
    fn tracer_shard_count_is_checked() {
        use loadsteal_obs::{NullRecorder, ShardedRecorder};
        let sink: Arc<dyn ShardSink> = Arc::new(ShardedRecorder::new(NullRecorder, 2));
        let _ = Pool::builder().num_threads(4).tracer(sink, 0.004).build();
    }
}

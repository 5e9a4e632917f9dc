//! Crash-safe flight recorder: fixed-capacity in-memory rings of the
//! most recent [`Event`]s that a chained panic hook dumps to
//! `loadsteal-crash-<pid>.ndjson` — in the working directory by
//! default, or under the directory named by [`set_dump_dir`] /
//! `LOADSTEAL_FLIGHT_DIR` — so a failed long run leaves its final
//! seconds behind for post-mortem analysis.
//!
//! The recorder is process-global and off by default. [`install`]
//! sizes the rings, arms recording, and (once per process) chains a
//! panic hook in front of the existing one. [`record`] is a cheap
//! no-op while disarmed — one relaxed atomic load — so it can sit on
//! the same recorder tee as tracing without budget impact.
//!
//! Armed recording is **per-thread**: each recording thread keeps its
//! own ring (capacity [`install`]'s argument *per thread*) behind a
//! mutex only that thread ever locks on the hot path, so the executor
//! pool's workers never contend on a shared ring or bounce a shared
//! cache line per event. The rings live in a global registry the
//! panic hook walks at dump time, merging them into one time-ordered
//! stream — the same `(t, ring, seq)` merge key the sharded trace
//! recorder uses, so timeless events stay behind the last timestamped
//! event of their thread and per-thread order is always preserved. A
//! worker that died before the crash still contributes its final
//! events: registry entries outlive their threads.
//!
//! The dump is an ordinary `loadsteal.trace.v1` NDJSON stream: the run
//! header (when one was observed), the merged buffered events, and a
//! final `{"ev":"panic",…}` line carrying the panic message and ring
//! statistics. The trace reader parses it strictly.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::json::JsonBuf;
use crate::shard::event_time;

/// Default per-thread ring capacity (events) used by the CLI's
/// `--flight-recorder` switch.
pub const DEFAULT_CAPACITY: usize = 4096;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static HOOKED: AtomicBool = AtomicBool::new(false);
static DUMPED: AtomicBool = AtomicBool::new(false);

/// Per-thread ring capacity, read when a thread creates its ring and
/// pushed eagerly into existing rings by [`install`].
static CAP: AtomicUsize = AtomicUsize::new(0);

/// One thread's ring. The owning thread locks it on every record —
/// uncontended except while a dump or an [`install`]/[`reset`] walk
/// is in progress.
struct Ring {
    cap: usize,
    /// `(per-thread sequence, event)` in emission order.
    buf: VecDeque<(u64, Event)>,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: &Event) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back((seq, *ev));
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.next_seq = 0;
        self.dropped = 0;
    }
}

/// Every thread's ring, in registration order. Entries are never
/// removed: a dead worker's last events must survive into the dump.
static REGISTRY: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());

/// Run header and dump-directory override (touched at run start and
/// dump time only — never on the per-event path).
struct Meta {
    header: Option<String>,
    dump_dir: Option<String>,
}

static META: Mutex<Meta> = Mutex::new(Meta {
    header: None,
    dump_dir: None,
});

fn meta() -> std::sync::MutexGuard<'static, Meta> {
    META.lock().unwrap_or_else(|p| p.into_inner())
}

fn registry() -> std::sync::MutexGuard<'static, Vec<Arc<Mutex<Ring>>>> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

fn lock_ring(r: &Mutex<Ring>) -> std::sync::MutexGuard<'_, Ring> {
    r.lock().unwrap_or_else(|p| p.into_inner())
}

thread_local! {
    /// This thread's handle into the registry, created on first record.
    static LOCAL: RefCell<Option<Arc<Mutex<Ring>>>> = const { RefCell::new(None) };
}

/// Create this thread's ring and register it globally.
fn register_ring() -> Arc<Mutex<Ring>> {
    let ring = Arc::new(Mutex::new(Ring {
        cap: CAP.load(Ordering::Relaxed),
        buf: VecDeque::new(),
        next_seq: 0,
        dropped: 0,
    }));
    registry().push(Arc::clone(&ring));
    ring
}

/// Whether the flight recorder is armed. One relaxed load.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Arm the flight recorder with the given per-thread ring capacity
/// (events) and chain the crash-dump panic hook in front of the
/// current one. Safe to call more than once: later calls resize every
/// live ring (trimming oldest-first) and re-arm but never stack a
/// second hook.
pub fn install(capacity: usize) {
    let cap = capacity.max(1);
    CAP.store(cap, Ordering::Relaxed);
    for ring in registry().iter() {
        let mut r = lock_ring(ring);
        r.cap = cap;
        while r.buf.len() > cap {
            r.buf.pop_front();
            r.dropped += 1;
        }
    }
    if !HOOKED.swap(true, Ordering::SeqCst) {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_on_panic(info);
            prev(info);
        }));
    }
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Disarm recording (the hook stays installed but becomes a no-op).
pub fn disarm() {
    ACTIVE.store(false, Ordering::Relaxed);
}

/// Append one event to the calling thread's ring, evicting its oldest
/// when full. No-op while disarmed. Touches no shared state beyond
/// this thread's own (uncontended) ring lock.
pub fn record(ev: &Event) {
    if !active() {
        return;
    }
    let _ = LOCAL.try_with(|slot| {
        let mut slot = slot.borrow_mut();
        let ring = slot.get_or_insert_with(register_ring);
        lock_ring(ring).push(ev);
    });
}

/// Remember the run's trace-header line so crash dumps are
/// self-describing. No-op while disarmed.
pub fn set_header(line: String) {
    if !active() {
        return;
    }
    meta().header = Some(line);
}

/// Current `(buffered, dropped)` counts summed over every thread's
/// ring (test/diagnostic aid).
pub fn stats() -> (u64, u64) {
    let mut buffered = 0u64;
    let mut dropped = 0u64;
    for ring in registry().iter() {
        let r = lock_ring(ring);
        buffered += r.buf.len() as u64;
        dropped += r.dropped;
    }
    (buffered, dropped)
}

/// Clear every ring, drop the stored header, and reset the
/// once-per-process dump latch (test aid; the hook and the ring
/// registry stay in place).
pub fn reset() {
    for ring in registry().iter() {
        lock_ring(ring).clear();
    }
    meta().header = None;
    DUMPED.store(false, Ordering::SeqCst);
}

/// Snapshot every ring and merge into one time-ordered stream.
///
/// Merge key: `(t, ring, seq)` where `t` is the event's own time when
/// it carries one and otherwise the previous timestamped event's time
/// in the same ring (`-∞` before any) — identical to the sharded
/// trace recorder's contract, so per-ring emission order is always
/// preserved and ties break deterministically by registration order.
fn merged_events() -> Vec<Event> {
    let mut keyed: Vec<(f64, usize, u64, Event)> = Vec::new();
    for (ring_idx, ring) in registry().iter().enumerate() {
        let r = lock_ring(ring);
        let mut last = f64::NEG_INFINITY;
        for (seq, ev) in &r.buf {
            if let Some(t) = event_time(ev) {
                last = t;
            }
            keyed.push((last, ring_idx, *seq, *ev));
        }
    }
    keyed.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then_with(|| a.1.cmp(&b.1))
            .then_with(|| a.2.cmp(&b.2))
    });
    keyed.into_iter().map(|(_, _, _, ev)| ev).collect()
}

/// Render the dump NDJSON for the current ring contents: optional
/// header line, every thread's buffered events merged time-ordered,
/// and a closing panic record carrying `message`. This is exactly
/// what the panic hook writes to disk.
pub fn render_dump(message: &str, thread: Option<&str>) -> String {
    let events = merged_events();
    let (_, dropped) = stats();
    let mut out = String::new();
    if let Some(h) = &meta().header {
        out.push_str(h);
        out.push('\n');
    }
    for ev in &events {
        ev.write_json(&mut out);
        out.push('\n');
    }
    let rec = PanicRecord {
        message: message.to_owned(),
        thread: thread.map(str::to_owned),
        buffered: events.len() as u64,
        dropped,
    };
    out.push_str(&rec.to_json_line());
    out.push('\n');
    out
}

/// Direct crash dumps into `dir` instead of the working directory
/// (`None` restores the default). An explicit directory set here wins
/// over the `LOADSTEAL_FLIGHT_DIR` environment variable. The directory
/// is used as given — it is not created.
pub fn set_dump_dir(dir: Option<String>) {
    meta().dump_dir = dir;
}

/// The crash-dump path for this process: the fixed filename
/// `loadsteal-crash-<pid>.ndjson` joined under the configured dump
/// directory — [`set_dump_dir`] first, then `LOADSTEAL_FLIGHT_DIR`,
/// then the working directory.
pub fn dump_path() -> String {
    let file = format!("loadsteal-crash-{}.ndjson", std::process::id());
    let dir = meta()
        .dump_dir
        .clone()
        .or_else(|| std::env::var("LOADSTEAL_FLIGHT_DIR").ok())
        .filter(|d| !d.is_empty());
    match dir {
        Some(d) => std::path::Path::new(&d)
            .join(file)
            .to_string_lossy()
            .into_owned(),
        None => file,
    }
}

fn dump_on_panic(info: &std::panic::PanicHookInfo<'_>) {
    if !active() {
        return;
    }
    // Only the first panicking thread writes; concurrent worker panics
    // would otherwise race on the same file.
    if DUMPED.swap(true, Ordering::SeqCst) {
        return;
    }
    let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    let message = match info.location() {
        Some(loc) => format!("{message} ({}:{})", loc.file(), loc.line()),
        None => message,
    };
    let thread = std::thread::current().name().map(str::to_owned);
    let doc = render_dump(&message, thread.as_deref());
    let path = dump_path();
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("flight recorder: wrote crash dump to {path}"),
        Err(e) => eprintln!("flight recorder: could not write {path}: {e}"),
    }
}

/// One `{"ev":"panic",…}` NDJSON line: the terminal record of a crash
/// dump, carrying the panic message and the ring statistics at the
/// moment of the crash.
#[derive(Debug, Clone, PartialEq)]
pub struct PanicRecord {
    /// The panic message (with `file:line` when known).
    pub message: String,
    /// Name of the panicking thread, when it had one.
    pub thread: Option<String>,
    /// Events present in the rings when the dump was taken.
    pub buffered: u64,
    /// Events evicted from the rings before the dump.
    pub dropped: u64,
}

impl PanicRecord {
    /// Serialize as one NDJSON object (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut j = JsonBuf::new();
        j.begin_obj()
            .field_str("ev", "panic")
            .field_str("message", &self.message);
        if let Some(t) = &self.thread {
            j.field_str("thread", t);
        }
        j.field_u64("buffered", self.buffered)
            .field_u64("dropped", self.dropped);
        j.end_obj();
        j.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// The rings are process-global; tests serialize on this.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static TEST_LOCK: Mutex<()> = Mutex::new(());
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn ev(t: f64) -> Event {
        Event::Heartbeat {
            t,
            events: 1,
            tasks_in_system: 0,
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let _l = test_lock();
        install(3);
        reset();
        for i in 0..5 {
            record(&ev(f64::from(i)));
        }
        let (buffered, dropped) = stats();
        assert_eq!((buffered, dropped), (3, 2));
        let dump = render_dump("boom", Some("main"));
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4, "3 events + panic line");
        let first = json::parse(lines[0]).unwrap();
        assert_eq!(first.get("t").and_then(|v| v.as_f64()), Some(2.0));
        disarm();
    }

    #[test]
    fn dump_ends_with_a_parseable_panic_record() {
        let _l = test_lock();
        install(8);
        reset();
        record(&ev(1.0));
        let dump = render_dump("assertion failed (x.rs:7)", None);
        let last = dump.lines().last().unwrap();
        let v = json::parse(last).unwrap();
        assert_eq!(v.get("ev").and_then(|v| v.as_str()), Some("panic"));
        assert_eq!(
            v.get("message").and_then(|v| v.as_str()),
            Some("assertion failed (x.rs:7)")
        );
        assert_eq!(v.get("buffered").and_then(|v| v.as_u64()), Some(1));
        disarm();
    }

    #[test]
    fn dump_path_honors_configured_directory() {
        let _l = test_lock();
        set_dump_dir(None);
        let default = dump_path();
        assert!(default.starts_with("loadsteal-crash-"), "{default}");
        assert!(default.ends_with(".ndjson"), "{default}");
        set_dump_dir(Some("/tmp/flight".into()));
        let configured = dump_path();
        assert!(configured.starts_with("/tmp/flight/"), "{configured}");
        assert!(configured.ends_with(&default), "{configured}");
        set_dump_dir(None);
    }

    #[test]
    fn disarmed_recording_is_a_no_op() {
        let _l = test_lock();
        install(4);
        reset();
        disarm();
        record(&ev(0.0));
        assert_eq!(stats(), (0, 0));
    }

    #[test]
    fn header_line_leads_the_dump() {
        let _l = test_lock();
        install(4);
        reset();
        set_header(crate::event::TraceHeader::default().to_json_line());
        record(&ev(0.5));
        let dump = render_dump("boom", None);
        let first = dump.lines().next().unwrap();
        let v = json::parse(first).unwrap();
        assert_eq!(v.get("ev").and_then(|v| v.as_str()), Some("header"));
        disarm();
    }

    #[test]
    fn concurrent_threads_merge_time_ordered_into_one_dump() {
        let _l = test_lock();
        install(64);
        reset();
        std::thread::scope(|s| {
            for w in 0..4u32 {
                s.spawn(move || {
                    for i in 0..10 {
                        record(&Event::Sim {
                            kind: crate::event::SimEventKind::Completion,
                            t: f64::from(i),
                            proc: w,
                            src: None,
                            count: i + 1,
                        });
                    }
                });
            }
        });
        assert_eq!(stats(), (40, 0));
        let dump = render_dump("boom", Some("exec-worker-0"));
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 41, "40 events + panic line");
        // Globally nondecreasing in t, and per-thread order preserved
        // (count is the per-thread sequence stamp).
        let mut last_t = f64::NEG_INFINITY;
        let mut next_count = std::collections::BTreeMap::new();
        for line in &lines[..40] {
            let v = json::parse(line).unwrap();
            let t = v.get("t").and_then(|v| v.as_f64()).unwrap();
            assert!(t >= last_t, "dump regressed in t");
            last_t = t;
            let proc = v.get("proc").and_then(|v| v.as_u64()).unwrap();
            // `count` is elided on the wire when it is 1.
            let count = v.get("count").and_then(|v| v.as_u64()).unwrap_or(1);
            let next = next_count.entry(proc).or_insert(1u64);
            assert_eq!(count, *next, "thread {proc} order broken");
            *next += 1;
        }
        let panic_rec = json::parse(lines[40]).unwrap();
        assert_eq!(panic_rec.get("buffered").and_then(|v| v.as_u64()), Some(40));
        disarm();
    }
}

//! The lock-order checker behind `VQC_LOCK_CHECK=1`.
//!
//! Every acquisition through the shim's [`crate::Mutex`] / [`crate::RwLock`] is
//! (when enabled) recorded against a per-thread stack of currently held locks
//! and a process-global acquisition-order graph:
//!
//! * **Lock identity is per instance.** Each lock is lazily assigned a
//!   process-unique class id on first acquisition (never reused, so stack- or
//!   heap-address recycling cannot merge two locks' histories). Acquisition
//!   sites — `file:line:column` via `#[track_caller]` — are recorded as edge
//!   metadata so violations name real source locations.
//! * **Edges are held→acquired pairs.** Acquiring `B` while holding `A` inserts
//!   the directed edge `A → B`, remembering both acquisition sites and the
//!   thread that first established it. Before the edge is committed, a
//!   depth-first search checks whether `B` can already reach `A`; if it can,
//!   both conflicting site pairs — the established path and the inverted
//!   acquisition happening now — are formatted into a panic, *before* the
//!   thread blocks. An ABBA inversion is therefore detected deterministically
//!   from the order history, even when the interleaving never actually
//!   deadlocks.
//! * **Re-entrant acquisition panics.** Locking a `Mutex` (or write-locking a
//!   `RwLock`) the thread already holds would deadlock `std::sync` silently;
//!   the checker reports both sites instead. Shared readers may nest.
//! * **Long holds are reported, not fatal.** A guard held longer than
//!   `VQC_LOCK_HOLD_MS` (default 250 ms) increments [`long_holds`] and invokes
//!   the registered [`set_long_hold_reporter`] hook — the runtime points that
//!   hook at its telemetry trace ring. Condvar waits release the hold clock
//!   while the thread sleeps, so a parked worker is not a "hold".
//!
//! When disabled (the default), every instrumentation site reduces to one
//! relaxed atomic load and an already-initialized `OnceLock` read.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How a lock is held, for re-entrancy rules (shared readers may nest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeldKind {
    Exclusive,
    Shared,
}

/// An acquisition site: the `#[track_caller]` location of the lock call.
type Site = (&'static str, u32, u32);

fn site_of(location: &'static Location<'static>) -> Site {
    (location.file(), location.line(), location.column())
}

fn site_name(site: Site) -> String {
    format!("{}:{}:{}", site.0, site.1, site.2)
}

static NEXT_CLASS: AtomicU64 = AtomicU64::new(1);

/// Resolves a lock instance's class id, assigning one on first acquisition.
/// Ids start at 1 so the `AtomicU64::new(0)` in `const fn new` means
/// "unassigned"; they are never reused, so recycled addresses cannot merge
/// two locks' order histories.
pub(crate) fn class_of(slot: &AtomicU64) -> u64 {
    let existing = slot.load(Ordering::Relaxed);
    if existing != 0 {
        return existing;
    }
    let id = NEXT_CLASS.fetch_add(1, Ordering::Relaxed);
    match slot.compare_exchange(0, id, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => id,
        Err(actual) => actual,
    }
}

/// One edge of the acquisition-order graph, with its first observation.
#[derive(Debug, Clone)]
struct EdgeInfo {
    /// Site at which the already-held lock had been acquired.
    held_site: Site,
    /// Site of the acquisition that created the edge.
    acquired_site: Site,
    /// Name of the thread that first established the ordering.
    thread: String,
}

#[derive(Default)]
struct OrderGraph {
    /// Adjacency: held class → acquired class → first observation.
    edges: HashMap<u64, HashMap<u64, EdgeInfo>>,
}

impl OrderGraph {
    /// Is `to` reachable from `from`? Returns the class path when it is.
    fn path(&self, from: u64, to: u64) -> Option<Vec<u64>> {
        let mut stack = vec![(from, vec![from])];
        let mut visited = vec![from];
        while let Some((node, path)) = stack.pop() {
            if node == to {
                return Some(path);
            }
            if let Some(next) = self.edges.get(&node) {
                for candidate in next.keys() {
                    if !visited.contains(candidate) {
                        visited.push(*candidate);
                        let mut path = path.clone();
                        path.push(*candidate);
                        stack.push((*candidate, path));
                    }
                }
            }
        }
        None
    }
}

/// One entry of a thread's held-lock stack.
struct Held {
    class: u64,
    site: Site,
    kind: HeldKind,
    since: Instant,
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    /// Re-entrancy fuse: a long-hold reporter that itself takes shim locks
    /// (the telemetry trace ring does) must not recurse into reporting.
    static IN_REPORTER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static GRAPH: StdMutex<Option<OrderGraph>> = StdMutex::new(None);
static LONG_HOLDS: AtomicU64 = AtomicU64::new(0);
static ORDER_EDGES: AtomicU64 = AtomicU64::new(0);

/// 0 = follow `VQC_LOCK_CHECK`, 1 = forced on, 2 = forced off.
static FORCE: AtomicU8 = AtomicU8::new(0);
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();
/// Millisecond override installed by [`set_hold_threshold`]; `u64::MAX` = unset.
static HOLD_OVERRIDE_MS: AtomicU64 = AtomicU64::new(u64::MAX);
static ENV_HOLD: OnceLock<Duration> = OnceLock::new();

/// The long-hold hook type accepted by [`set_long_hold_reporter`].
pub type LongHoldReporter = Arc<dyn Fn(&LongHoldEvent) + Send + Sync>;
static REPORTER: StdMutex<Option<LongHoldReporter>> = StdMutex::new(None);

/// A guard outliving the long-hold threshold, as passed to the reporter hook.
#[derive(Debug, Clone)]
pub struct LongHoldEvent {
    /// `file:line:column` of the acquisition that held too long.
    pub site: String,
    /// How long the guard was held.
    pub held: Duration,
    /// Name of the holding thread (`<unnamed>` if the thread has none).
    pub thread: String,
}

/// Whether the lock-order checker is active (the `VQC_LOCK_CHECK` environment
/// variable, unless a [`force`] override is in effect).
#[inline]
pub fn enabled() -> bool {
    match FORCE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *ENV_ENABLED.get_or_init(|| {
            matches!(
                std::env::var("VQC_LOCK_CHECK").as_deref(),
                Ok("1") | Ok("on") | Ok("true") | Ok("yes")
            )
        }),
    }
}

/// Overrides the `VQC_LOCK_CHECK` switch for this process (tests and
/// benchmarks; the environment variable is read once and cached, so toggling
/// it after startup has no effect without this).
pub fn force(enabled: bool) {
    FORCE.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
}

/// The long-hold threshold: [`set_hold_threshold`] override if present, else
/// `VQC_LOCK_HOLD_MS` (default 250 ms).
fn hold_threshold() -> Duration {
    let override_ms = HOLD_OVERRIDE_MS.load(Ordering::Relaxed);
    if override_ms != u64::MAX {
        return Duration::from_millis(override_ms);
    }
    *ENV_HOLD.get_or_init(|| {
        std::env::var("VQC_LOCK_HOLD_MS")
            .ok()
            .and_then(|raw| raw.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(250))
    })
}

/// Overrides the long-hold threshold for this process (tests; pass `None` to
/// fall back to `VQC_LOCK_HOLD_MS`).
pub fn set_hold_threshold(threshold: Option<Duration>) {
    HOLD_OVERRIDE_MS.store(
        threshold.map(|d| d.as_millis() as u64).unwrap_or(u64::MAX),
        Ordering::Relaxed,
    );
}

/// Installs (or clears) the hook invoked on every long hold. One hook per
/// process; the compilation runtime points it at its telemetry trace ring.
pub fn set_long_hold_reporter(reporter: Option<LongHoldReporter>) {
    *REPORTER.lock().unwrap_or_else(PoisonError::into_inner) = reporter;
}

/// Guards held longer than the threshold so far (process-wide).
pub fn long_holds() -> u64 {
    LONG_HOLDS.load(Ordering::Relaxed)
}

/// Distinct held→acquired orderings observed so far (process-wide). A clean
/// full-suite run under `VQC_LOCK_CHECK=1` accumulates edges without ever
/// finding a cycle.
pub fn order_edges() -> u64 {
    ORDER_EDGES.load(Ordering::Relaxed)
}

fn thread_name() -> String {
    std::thread::current()
        .name()
        .unwrap_or("<unnamed>")
        .to_string()
}

/// Tracking token carried by a live guard; `None` when the checker was
/// disabled at acquisition.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Track {
    class: u64,
    site: Site,
    kind: HeldKind,
}

/// Called *before* blocking on the lock: order-graph update, cycle detection,
/// re-entrancy detection. Panics on a violation (with the lock not yet taken,
/// so the panic propagates instead of deadlocking).
pub(crate) fn preflight(
    class_slot: &AtomicU64,
    location: &'static Location<'static>,
    kind: HeldKind,
) -> Option<Track> {
    if !enabled() {
        return None;
    }
    let class = class_of(class_slot);
    let site = site_of(location);
    let mut violation: Option<String> = None;
    HELD.with(|held| {
        let held = held.borrow();
        for entry in held.iter() {
            if entry.class == class {
                // Shared readers may nest on one instance; everything else is a
                // guaranteed self-deadlock under std::sync.
                if kind == HeldKind::Exclusive || entry.kind == HeldKind::Exclusive {
                    violation = Some(format!(
                        "lock-order violation: re-entrant acquisition at {} of the lock \
                         already held since {} on thread '{}' (std::sync would deadlock here)",
                        site_name(site),
                        site_name(entry.site),
                        thread_name(),
                    ));
                    return;
                }
            }
        }
        // Insert one edge per held lock, checking each for a cycle first.
        let mut graph_slot = GRAPH.lock().unwrap_or_else(PoisonError::into_inner);
        let graph = graph_slot.get_or_insert_with(OrderGraph::default);
        for entry in held.iter() {
            if entry.class == class {
                continue; // Shared re-read of the same instance: not an edge.
            }
            if graph
                .edges
                .get(&entry.class)
                .is_some_and(|next| next.contains_key(&class))
            {
                continue; // Edge already known (and acyclic at insertion).
            }
            if let Some(path) = graph.path(class, entry.class) {
                let mut message = format!(
                    "lock-order inversion (potential deadlock) detected:\n  \
                     thread '{}' acquires the lock at {} while holding the one taken at {}\n  \
                     but the opposite order is already established:\n",
                    thread_name(),
                    site_name(site),
                    site_name(entry.site),
                );
                for pair in path.windows(2) {
                    if let Some(info) = graph
                        .edges
                        .get(&pair[0])
                        .and_then(|next| next.get(&pair[1]))
                    {
                        message.push_str(&format!(
                            "    {} was acquired while holding {} (first seen on thread '{}')\n",
                            site_name(info.acquired_site),
                            site_name(info.held_site),
                            info.thread,
                        ));
                    }
                }
                violation = Some(message);
                return;
            }
            graph.edges.entry(entry.class).or_default().insert(
                class,
                EdgeInfo {
                    held_site: entry.site,
                    acquired_site: site,
                    thread: thread_name(),
                },
            );
            ORDER_EDGES.fetch_add(1, Ordering::Relaxed);
        }
    });
    if let Some(message) = violation {
        panic!("{message}");
    }
    Some(Track { class, site, kind })
}

/// Records a successful non-blocking acquisition (`try_lock`). A try-lock
/// cannot deadlock, so no order edge or cycle check is needed for the
/// acquisition itself — but the lock joins the held stack so that *later*
/// blocking acquisitions order against it and long holds are still caught.
pub(crate) fn acquired_nonblocking(
    class_slot: &AtomicU64,
    location: &'static Location<'static>,
) -> Option<Track> {
    if !enabled() {
        return None;
    }
    let track = Track {
        class: class_of(class_slot),
        site: site_of(location),
        kind: HeldKind::Exclusive,
    };
    register(track);
    Some(track)
}

/// Called once the lock is actually held: starts the hold clock.
pub(crate) fn register(track: Track) {
    HELD.with(|held| {
        held.borrow_mut().push(Held {
            class: track.class,
            site: track.site,
            kind: track.kind,
            since: Instant::now(),
        });
    });
}

/// Called when a guard releases (drop or condvar wait): pops the hold entry
/// and reports it if it outlived the threshold.
pub(crate) fn release(track: Track) {
    let since = HELD.with(|held| {
        let mut held = held.borrow_mut();
        // Pop the most recent entry for this instance (guards of one instance
        // release LIFO in practice; matching by class is robust either way).
        let index = held.iter().rposition(|entry| entry.class == track.class);
        index.map(|index| held.remove(index).since)
    });
    let Some(since) = since else { return };
    let held_for = since.elapsed();
    if held_for < hold_threshold() {
        return;
    }
    LONG_HOLDS.fetch_add(1, Ordering::Relaxed);
    if IN_REPORTER.with(|flag| flag.get()) {
        return;
    }
    let reporter = REPORTER
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    if let Some(reporter) = reporter {
        let event = LongHoldEvent {
            site: site_name(track.site),
            held: held_for,
            thread: thread_name(),
        };
        IN_REPORTER.with(|flag| flag.set(true));
        reporter(&event);
        IN_REPORTER.with(|flag| flag.set(false));
    }
}

//! The second GRAPE lane: one process-wide helper thread that a wide block's
//! iteration borrows for the length of a phase.
//!
//! Inside one GRAPE iteration every slice's assemble → eigensolve → propagator
//! and every slice's gradient contraction is independent of every other
//! slice, and the forward and backward sweeps are independent of each other.
//! The engine in [`crate::workspace`] therefore runs each phase as a *pair* of
//! closures over disjoint halves of its buffers (`pair`): on the calling
//! thread one after the other, or — when the iteration holds a [`Claim`] — the
//! second one on the helper thread while the caller runs the first. The
//! closures, their borrows and their arithmetic are the same either way, so the
//! two forms are bit-identical; the borrow checker, not this module, proves the
//! halves disjoint.
//!
//! **The claim rule** ([`claim`]), re-evaluated by every iteration:
//!
//! * the block is wide and long enough to pay for three hand-offs per
//!   iteration and for reading what the other CPU wrote (`MIN_DIM`,
//!   `MIN_SPAN` — measured constants, not knobs);
//! * a CPU is actually free: GRAPE runs in flight (`enter_run`) plus claimed
//!   helpers is below `available_parallelism()`, so two busy workers never
//!   become three spinning threads, and a wide block picks the spare CPU up
//!   the moment the other worker goes idle;
//! * the helper is not already claimed by another iteration.
//!
//! A refused claim is the one-lane form of the same body. The helper is
//! started lazily by the first wide claim and only on a host with at least two
//! CPUs; with one CPU (`taskset -c 0`) it never exists.
//!
//! **Waiting.** A blocked vCPU halts and wakes slowly, so every wait spins
//! first — giving the CPU up between bursts whenever the peer was last seen on
//! this very CPU — and only then blocks on a condition variable: for at most 2 ms while
//! the peer is known to be at work (the helper while claimed, the caller while
//! the helper runs its job), for 100 µs otherwise — an idle helper is parked,
//! not spinning. A caller whose job the helper has not picked up by the time
//! its own half is done takes the job back and runs it itself, so a parked
//! helper costs an iteration a wake-up call, not a wait.
//!
//! **Panics.** The helper runs every job under `catch_unwind`: a panicking
//! lane still completes the phase's rendezvous, carrying its payload, so the
//! other lane never waits on it; the caller re-raises the payload once both
//! lanes are done, and the helper thread survives for the next claim.
//!
//! The `unsafe` in this module is the one lifetime erasure that lends a stack
//! closure to the helper for the duration of `Claim::join`, and the
//! `sched_getcpu` call the waits place themselves by. (The GRAPE kernel's
//! only other `unsafe` is in [`crate::workspace`]: the call into a phase's
//! AVX2 instantiation.)

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Narrowest matrix dimension that engages the helper. A 2-qubit block
/// (dim 4) spends ~0.7 µs per slice: at 40 slices two lanes take 1.3x as long
/// as one.
const MIN_DIM: usize = 8;

/// Least `dim · slices` that engages the helper: 8 slices at dim 8, 4 at dim
/// 16. The three hand-offs and reading what the other CPU wrote cost an
/// iteration ~11 µs at dim 8 and ~20 µs at dim 16 on the 2-CPU benchmark host,
/// and do not shrink when the iteration does; and from dim 8 up a lane's
/// slices are eigensolved four at a time, so how a half divides into groups
/// shows (a half of 4 is one batch, a half of 2 two single solves, of 3 a
/// padded batch). Re-measured there on the batched, AVX2-width iteration, one
/// lane against two, three passes, each form's best of eight alternating
/// 40 ms stretches:
///
/// | slices | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 12 | 16 | 24 | 40 |
/// |---|---|---|---|---|---|---|---|---|---|---|---|---|---|
/// | dim 8 | | | 0.57–0.77x | 0.86–1.02x | 1.13–1.29x | 1.04–1.08x | **1.20–1.22x** | 1.05–1.20x | 1.29–1.34x | 1.13–1.14x | 1.25–1.32x | 1.29–1.40x | 1.32–1.37x |
/// | dim 16 | 1.36–1.48x | 0.86–0.90x | **1.01–1.05x** | 1.23–1.33x | 1.50–1.57x | 1.30–1.32x | 1.42–1.48x | | | 1.27–1.40x | | 1.64–1.80x | 1.57–1.77x |
///
/// (bold: where the rule starts to claim.) The product stays at 64: lower
/// would admit dim 16 × 3, which splits 1 + 2 and loses; nothing it admits
/// reads below 1.0x.
const MIN_SPAN: usize = 64;

/// Longest busy-wait for a peer that is known to be at work — the helper
/// while an iteration holds it, the caller while the helper runs its job: the
/// wait ends within a phase (0.4 ms at 4 qubits × 40 slices).
const BUSY_SPIN: Duration = Duration::from_millis(2);

/// Longest busy-wait of an unclaimed helper: the few µs between two iterations
/// of a run, not the gap between two runs.
const IDLE_SPIN: Duration = Duration::from_micros(100);

/// GRAPE runs currently in flight on any thread.
static RUNS: AtomicUsize = AtomicUsize::new(0);
static CLAIMED: AtomicU64 = AtomicU64::new(0);
static REFUSED: AtomicU64 = AtomicU64::new(0);

/// How often wide iterations got the helper, process-wide since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneStats {
    /// Iterations that ran as two lanes.
    pub claimed: u64,
    /// Wide-enough iterations that ran as one lane: no CPU was free, another
    /// iteration held the helper, or the host has a single CPU.
    pub refused: u64,
}

/// The process-wide claim counters.
pub fn stats() -> LaneStats {
    LaneStats {
        claimed: CLAIMED.load(Ordering::Relaxed),
        refused: REFUSED.load(Ordering::Relaxed),
    }
}

/// Whether this process can run a second lane at all
/// (`available_parallelism() ≥ 2` and the helper thread started).
pub fn available() -> bool {
    helper().is_some()
}

/// Marks one GRAPE run in flight on the calling thread until dropped — the
/// occupancy half of the claim rule.
#[derive(Debug)]
pub(crate) struct RunGuard(());

pub(crate) fn enter_run() -> RunGuard {
    RUNS.fetch_add(1, Ordering::Relaxed);
    RunGuard(())
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        RUNS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The CPU the calling thread is running on, or `usize::MAX` where the platform
/// does not say.
fn current_cpu() -> usize {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getcpu() -> i32;
        }
        // SAFETY: `sched_getcpu` takes no arguments and has no preconditions.
        usize::try_from(unsafe { sched_getcpu() }).unwrap_or(usize::MAX)
    }
    #[cfg(not(target_os = "linux"))]
    usize::MAX
}

/// The two sides of the mailbox, as indices into [`Helper::on_cpu`].
const CALLER: usize = 0;
const HELPER: usize = 1;

/// A job lent to the helper: a closure on the lending thread's stack and the
/// slot its panic payload comes back in.
struct Task<'a> {
    run: &'a mut (dyn FnMut() + Send),
    panic: Option<Box<dyn Any + Send>>,
}

/// The helper thread's mailbox.
struct Helper {
    cpus: usize,
    /// Where each side of the mailbox last saw itself running ([`current_cpu`]).
    on_cpu: [AtomicUsize; 2],
    /// Whether a [`Claim`] holds the helper.
    claimed: AtomicBool,
    /// The posted, not yet taken, `Task` (as a thin pointer), or null. Whoever
    /// swaps a non-null pointer out owns the task until it signals `done`.
    job: AtomicPtr<()>,
    /// Set by the helper once the job it took has finished.
    done: AtomicBool,
    /// Waiters blocked on `wake` (either side of the mailbox).
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
    /// The thread lives as long as the process; the handle is kept so it is
    /// never detached by a drop.
    _thread: OnceLock<JoinHandle<()>>,
}

impl Helper {
    /// Spins on `ready` for as long as `patient` says (it is handed the time
    /// the wait began, and asked every 64 spins), then blocks until a
    /// [`Helper::notify`] after `ready` turned true. `me` is the side waiting.
    fn wait_until(
        &self,
        me: usize,
        ready: impl Fn() -> bool,
        mut patient: impl FnMut(Instant) -> bool,
    ) {
        if ready() {
            return;
        }
        let started = Instant::now();
        while patient(started) {
            for _ in 0..64 {
                if ready() {
                    return;
                }
                std::hint::spin_loop();
            }
            // When no CPU is really free the scheduler puts both sides on one,
            // and a spin then keeps the very thread it waits for off it, a
            // time slice per phase (two lanes at 0.41–0.61x of one, stably).
            // Give the CPU up, but only then: a yield costs a whole slice when
            // a third thread takes it (+9 % on the benchmark's LiH loop).
            let here = current_cpu();
            self.on_cpu[me].store(here, Ordering::Relaxed);
            if here == self.on_cpu[1 - me].load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        }
        // The lock guards no data, so a poisoned one is as good as a clean one.
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !ready() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes blocked waiters; call after the `SeqCst` store that makes their
    /// condition true. Either the waiter's `sleepers` increment is visible
    /// here, or that store is visible to the waiter's re-check under the lock.
    fn notify(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.wake.notify_all();
        }
    }

    /// The helper thread: take a job, run it, report, for ever.
    fn serve(&self) {
        loop {
            // A claimed helper that finds the mailbox empty (it woke late and
            // the caller took its job back) must still be spinning when the
            // next phase is posted, or it would sleep through every phase; the
            // claim is dropped and retaken between two iterations, so what
            // ends the spin is having seen no claim for IDLE_SPIN.
            let mut last_claimed = Instant::now();
            self.wait_until(
                HELPER,
                || !self.job.load(Ordering::SeqCst).is_null(),
                |started| {
                    let now = Instant::now();
                    if self.claimed.load(Ordering::Relaxed) {
                        last_claimed = now;
                    }
                    now - last_claimed < IDLE_SPIN && now - started < BUSY_SPIN
                },
            );
            let posted = self.job.swap(ptr::null_mut(), Ordering::SeqCst);
            if posted.is_null() {
                // The lender took its job back.
                continue;
            }
            // SAFETY: `posted` is the `&mut Task` that `Claim::join` published
            // and this swap took it out of the mailbox, so the lender's own
            // swap sees null and it will not touch the task, nor return from
            // `join` (which keeps the task and everything its closure borrows
            // alive), until `done` is set below. Which slices the closure
            // writes is the borrow checker's business: the engine hands each
            // lane `&mut` halves split with `split_at_mut`.
            let task = unsafe { &mut *posted.cast::<Task<'_>>() };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (task.run)())) {
                task.panic = Some(payload);
            }
            // Last use of `task`: after this store the lender may free it.
            self.done.store(true, Ordering::SeqCst);
            self.notify();
        }
    }
}

/// The helper, started on first use; `None` on a single-CPU host or when the
/// thread cannot be spawned.
fn helper() -> Option<&'static Helper> {
    static HELPER: OnceLock<Option<&'static Helper>> = OnceLock::new();
    *HELPER.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        if cpus < 2 {
            return None;
        }
        let helper: &'static Helper = Box::leak(Box::new(Helper {
            cpus,
            on_cpu: [AtomicUsize::new(usize::MAX), AtomicUsize::new(usize::MAX)],
            claimed: AtomicBool::new(false),
            job: AtomicPtr::new(ptr::null_mut()),
            done: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
            _thread: OnceLock::new(),
        }));
        let thread = std::thread::Builder::new()
            .name("vqc-grape-lane".into())
            .spawn(move || helper.serve())
            .ok()?;
        let _ = helper._thread.set(thread);
        Some(helper)
    })
}

/// Exclusive use of the helper thread, for one GRAPE iteration. Dropping it
/// frees the helper for the next claim.
pub struct Claim {
    helper: &'static Helper,
}

impl std::fmt::Debug for Claim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Claim")
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        // Pairs with the `Acquire` in `try_hold`: the next holder sees the
        // mailbox as this one left it.
        self.helper.claimed.store(false, Ordering::Release);
    }
}

/// Claims the helper for one iteration of a `dim`-dimensional, `slices`-slice
/// block, if the claim rule in the module docs allows it.
pub fn claim(dim: usize, slices: usize) -> Option<Claim> {
    if dim < MIN_DIM || dim * slices < MIN_SPAN {
        return None;
    }
    let claim = helper().and_then(|helper| {
        // One helper exists, so "runs + claimed helpers < CPUs" is "runs <
        // CPUs" for whoever wins the flag.
        let cpu_free = RUNS.load(Ordering::Relaxed) < helper.cpus;
        (cpu_free && try_hold(helper)).then(|| Claim { helper })
    });
    let counter = if claim.is_some() { &CLAIMED } else { &REFUSED };
    counter.fetch_add(1, Ordering::Relaxed);
    claim
}

fn try_hold(helper: &Helper) -> bool {
    helper
        .claimed
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
}

/// Runs one phase's two lanes: `first` on the calling thread beside `second`
/// on the claimed helper, or both on the calling thread in that order.
pub(crate) fn pair(claim: Option<&mut Claim>, first: impl FnOnce(), second: impl FnOnce() + Send) {
    match claim {
        Some(claim) => claim.join(first, second),
        None => {
            first();
            second();
        }
    }
}

impl Claim {
    /// Runs `first` here and `second` on the helper, returning when both are
    /// done. A panic in either is re-raised here, after both are done. It
    /// takes `&mut self` so neither closure can join on the same claim: the
    /// mailbox holds one job.
    fn join(&mut self, first: impl FnOnce(), second: impl FnOnce() + Send) {
        let helper = self.helper;
        let mut second = Some(second);
        let mut run_second = move || {
            if let Some(second) = second.take() {
                second();
            }
        };
        let mut task = Task {
            run: &mut run_second,
            panic: None,
        };
        let posted: *mut Task<'_> = &mut task;
        // A caller that never has to wait still tells the helper where it is.
        helper.on_cpu[CALLER].store(current_cpu(), Ordering::Relaxed);
        helper.done.store(false, Ordering::SeqCst);
        helper.job.store(posted.cast(), Ordering::SeqCst);
        helper.notify();

        let first = panic::catch_unwind(AssertUnwindSafe(first));

        if helper.job.swap(ptr::null_mut(), Ordering::SeqCst).is_null() {
            // The helper took the job: `task` is its until it says so.
            helper.wait_until(
                CALLER,
                || helper.done.load(Ordering::SeqCst),
                |started| started.elapsed() < BUSY_SPIN,
            );
        } else if first.is_ok() {
            // Still in the mailbox (the helper was slow to wake): taking it
            // back made it ours again, so run it here.
            (task.run)();
        }
        if let Err(payload) = first {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = task.panic {
            panic::resume_unwind(payload);
        }
    }
}

/// What this module's tests and the engine's share: forcing the two-lane form
/// and catching what goes wrong in it.
#[cfg(test)]
mod testing {
    use super::*;

    /// Claims the helper whatever the block's width and the host's occupancy,
    /// waiting for the current holder to let go: how tests force the two-lane
    /// form. `None` when the host has no helper.
    pub(crate) fn hold() -> Option<Claim> {
        let helper = helper()?;
        while !try_hold(helper) {
            std::thread::yield_now();
        }
        Some(Claim { helper })
    }

    /// Runs `body` on a thread of its own and fails if it is not back within ten
    /// seconds — a stranded waiter must fail its test, not hang it.
    pub(crate) fn within_deadline<T: Send + 'static>(
        body: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done, finished) = std::sync::mpsc::channel();
        let thread = std::thread::spawn(move || {
            let _ = done.send(body());
        });
        let value = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("a lane wait did not return within the deadline");
        thread.join().expect("the body already reported");
        value
    }

    /// The text of a caught panic, whichever of the two payload types carried it.
    pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> &str {
        match payload.downcast_ref::<String>() {
            Some(message) => message,
            None => payload.downcast_ref::<&str>().copied().unwrap_or(""),
        }
    }
}

#[cfg(test)]
pub(crate) use testing::{hold, panic_message, within_deadline};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrow_blocks_never_claim() {
        assert!(claim(4, 10_000).is_none(), "dim 4 stays single-lane");
        assert!(claim(8, 7).is_none(), "7 slices at dim 8 are too few");
        assert!(claim(16, 3).is_none(), "3 slices at dim 16 are too few");
    }

    #[test]
    fn at_most_one_claim_is_ever_held() {
        let held = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..20_000 {
                        if let Some(claim) = claim(16, 40) {
                            assert_eq!(
                                held.fetch_add(1, Ordering::SeqCst),
                                0,
                                "two claims at once"
                            );
                            // Long enough for the other threads to be refused meanwhile.
                            (0..64).for_each(|_| std::hint::spin_loop());
                            held.fetch_sub(1, Ordering::SeqCst);
                            drop(claim);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn both_lanes_run_and_borrow_the_callers_stack() {
        let Some(mut claim) = hold() else { return };
        let (mut left, mut right) = (0u64, 0u64);
        for round in 1..=1000u64 {
            claim.join(|| left += round, || right += 2 * round);
        }
        assert_eq!((left, right), (500_500, 1_001_000));
    }

    #[test]
    fn a_panic_in_either_lane_resurfaces_and_the_helper_survives() {
        if !available() {
            return;
        }
        for (panic_first, panic_second) in [(false, true), (true, false), (true, true)] {
            let caught = within_deadline(move || {
                let mut claim = hold().expect("the host has a helper");
                panic::catch_unwind(AssertUnwindSafe(|| {
                    claim.join(
                        || assert!(!panic_first, "lane 0 fault"),
                        || assert!(!panic_second, "lane 1 fault"),
                    );
                }))
            });
            let payload = caught.expect_err("the lane's panic must reach the caller");
            let message = panic_message(payload.as_ref());
            let expected = if panic_first {
                "lane 0 fault"
            } else {
                "lane 1 fault"
            };
            assert!(
                message.contains(expected),
                "expected {expected:?}, got {message:?}"
            );
            // The claim was dropped by the unwind and the helper still serves.
            let ran = within_deadline(|| {
                let mut claim = hold().expect("the helper is claimable again");
                let mut ran = false;
                claim.join(|| {}, || ran = true);
                ran
            });
            assert!(ran, "the helper must survive a lane's panic");
        }
    }

    #[test]
    fn a_parked_helper_is_woken_or_bypassed() {
        let Some(mut claim) = hold() else { return };
        // Long past both spins: the helper is blocked on the condvar by now.
        std::thread::sleep(Duration::from_millis(20));
        let mut ran = false;
        claim.join(|| {}, || ran = true);
        assert!(ran);
    }

    #[test]
    fn runs_in_flight_refuse_the_helper() {
        let Some(helper) = helper() else { return };
        let guards: Vec<RunGuard> = (0..helper.cpus).map(|_| enter_run()).collect();
        let refused = stats().refused;
        assert!(claim(16, 40).is_none(), "every CPU already runs GRAPE");
        assert!(stats().refused > refused);
        drop(guards);
    }
}

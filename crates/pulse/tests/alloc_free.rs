//! Proves the GRAPE iteration kernels perform zero heap allocations.
//!
//! A counting global allocator wraps the system allocator; the tests below warm
//! a [`GrapeWorkspace`] up once and then assert that further `fidelity_gradient`
//! calls never touch the heap — on stack (`RealSmallMatrix`) storage, on heap
//! (`RealMatrix`) storage, and as two lanes, on the calling thread and on the
//! [`vqc_pulse::lanes`] helper thread alike, each at the host's vector width
//! and at the build's baseline ([`WIDTHS`]): the batched eigensolver's scratch
//! belongs to the workspace at either.
//! The counters are per-thread and libtest runs each test on its own thread, so
//! the tests cannot perturb each other; the helper thread, which no test owns,
//! is recognised by name. This is the acceptance gate for the
//! allocation-free kernel: any regression that re-introduces a per-iteration
//! allocation fails deterministically.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use vqc_pulse::{lanes, profile, DeviceModel, GrapeWorkspace, PulseSequence};
use vqc_sim::gates;

/// Counts every allocation (and reallocation) the *current thread* makes while
/// its `COUNTING` flag is set. The counters are thread-local (const-initialized
/// `Cell`s, so touching them from the allocator neither allocates nor registers
/// a TLS destructor): the kernel under test is single-threaded, and a
/// process-global flag would also count incidental allocations from libtest's
/// harness threads during the counting window — a spurious failure mode on a
/// loaded machine.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Allocations made by the lane helper thread while `HELPER_WINDOW` is open.
/// The helper is the library's thread, so it cannot raise a thread-local flag
/// of its own; the allocator asks each allocating thread for its name once,
/// and only while a window is open.
static HELPER_WINDOW: AtomicBool = AtomicBool::new(false);
static HELPER_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

const ROLE_UNKNOWN: u8 = 0;
const ROLE_OTHER: u8 = 1;
const ROLE_HELPER: u8 = 2;

thread_local! {
    static ROLE: Cell<u8> = const { Cell::new(ROLE_UNKNOWN) };
}

fn count_one() {
    let _ = COUNTING.try_with(|counting| {
        if counting.get() {
            let _ = ALLOCATIONS.try_with(|allocations| allocations.set(allocations.get() + 1));
        }
    });
    if HELPER_WINDOW.load(Ordering::Relaxed) {
        let _ = ROLE.try_with(|role| {
            if role.get() == ROLE_UNKNOWN {
                // Settled before the lookup: should `thread::current()`
                // allocate, the nested call finds a known role and returns.
                role.set(ROLE_OTHER);
                if std::thread::current().name() == Some("vqc-grape-lane") {
                    role.set(ROLE_HELPER);
                }
            }
            if role.get() == ROLE_HELPER {
                HELPER_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The workspace's two constructors: the phases' AVX2 instantiation where the
/// host has it, and the baseline one everywhere.
const WIDTHS: [fn(&DeviceModel, usize) -> GrapeWorkspace; 2] =
    [GrapeWorkspace::new, GrapeWorkspace::new_at_baseline_width];

/// Runs ten steady-state `fidelity_gradient` calls under the counting window
/// and returns the number of heap allocations they made.
fn count_steady_state(workspace: &mut GrapeWorkspace, pulse: &PulseSequence) -> u64 {
    // One warm-up call; all buffers are pre-sized by the constructor, but the
    // assertion should gate the steady state, not first-touch effects.
    let warmup = workspace.fidelity_gradient(pulse);
    assert!(warmup.is_finite());

    ALLOCATIONS.with(|allocations| allocations.set(0));
    COUNTING.with(|counting| counting.set(true));
    for _ in 0..10 {
        black_box(workspace.fidelity_gradient(black_box(pulse)));
    }
    COUNTING.with(|counting| counting.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn fidelity_gradient_is_allocation_free_after_workspace_construction() {
    // A two-qubit block is the representative GRAPE workload (5 controls, 4x4
    // matrices, warm-started Jacobi); the three-qubit block is the N = 8
    // instance the compiler plans on the benchmark's own circuits (cold QL).
    // Both solve their slices in lockstep batches — 11 slices are two whole
    // groups and a padded one — and both run on stack storage.
    for (device, target) in [
        (DeviceModel::qubits_line(2), gates::cx()),
        (DeviceModel::qubits_line(3), gates::cx().kron(&gates::h())),
    ] {
        for new in WIDTHS {
            let pulse = PulseSequence::seeded_guess(&device, 11, 0.5, 7);
            let mut workspace = new(&device, pulse.num_slices());
            assert!(
                workspace.uses_static_kernel(),
                "a {}-qubit device must run on stack storage",
                device.num_qubits()
            );
            workspace.set_target(&device, &target);

            assert_eq!(
                count_steady_state(&mut workspace, &pulse),
                0,
                "the dim-{} fidelity_gradient allocated on the heap after workspace construction",
                device.dim()
            );
        }
    }
}

#[test]
fn profiler_gradient_path_is_allocation_free_armed_and_silent_disarmed() {
    // One test covers both profiler states because `set_armed` is process
    // global: splitting them across tests would race under parallel libtest.
    let device = DeviceModel::qubits_line(2);
    let target = gates::cx();
    let pulse = PulseSequence::seeded_guess(&device, 8, 0.5, 7);

    let mut workspace = GrapeWorkspace::new(&device, pulse.num_slices());
    workspace.set_target(&device, &target);

    // Disarmed: begin_block must not latch — the gradient path stays a single
    // branch and take_block observes no profile.
    profile::set_armed(false);
    profile::begin_block();
    assert_eq!(count_steady_state(&mut workspace, &pulse), 0);
    assert!(
        profile::take_block().is_none(),
        "a disarmed profiler must not latch a block accumulator"
    );

    // Armed: the profiler accumulates into thread-local const-init `Cell`s,
    // so it must not re-introduce a per-iteration allocation on the gradient
    // hot path — the whole point of the Lap mark design.
    profile::set_armed(true);
    profile::begin_block();
    let allocations = count_steady_state(&mut workspace, &pulse);
    let block = profile::take_block();
    profile::set_armed(false);

    assert_eq!(
        allocations, 0,
        "the armed-profiler fidelity_gradient allocated on the heap"
    );
    let block = block.expect("begin_block latched an accumulator");
    assert!(
        !block.is_empty(),
        "the armed profiler must have attributed phase time"
    );
}

#[test]
fn heap_storage_is_also_allocation_free() {
    // A qutrit (dim 3) has no stack instance: the same engine body runs over
    // heap `RealMatrix` storage, whose buffers are all sized at construction.
    // One qutrit (Jacobi) and two (dim 9, QL) are the heap side of the
    // batched eigensolvers: six slices are a whole group and a one-matrix
    // remainder of two.
    for (qutrits, target) in [(1, gates::h()), (2, gates::cx())] {
        let device = DeviceModel::qubits_line(qutrits).with_qutrit_levels();
        for new in WIDTHS {
            let pulse = PulseSequence::seeded_guess(&device, 6, 0.5, 7);
            let mut workspace = new(&device, pulse.num_slices());
            assert!(!workspace.uses_static_kernel());
            workspace.set_target(&device, &target);

            assert_eq!(
                count_steady_state(&mut workspace, &pulse),
                0,
                "the dim-{} heap-storage fidelity_gradient allocated after workspace construction",
                device.dim()
            );
        }
    }
}

#[test]
fn two_lane_iteration_is_allocation_free_on_both_threads() {
    // The LiH-sized block: 4 qubits, 40 slices — wide enough that every
    // iteration claims the helper when a CPU is free.
    let device = DeviceModel::qubits_line(4);
    let target = (1..4).fold(gates::h(), |acc, _| acc.kron(&gates::h()));
    let pulse = PulseSequence::seeded_guess(&device, 40, 0.5, 7);
    let before = lanes::stats();
    for new in WIDTHS {
        let mut workspace = new(&device, pulse.num_slices());
        workspace.set_target(&device, &target);

        // The first claim starts the helper thread, which allocates (once per
        // process); the window opens after it.
        workspace.fidelity_gradient(&pulse);

        HELPER_ALLOCATIONS.store(0, Ordering::Relaxed);
        HELPER_WINDOW.store(true, Ordering::Relaxed);
        let on_caller = count_steady_state(&mut workspace, &pulse);
        HELPER_WINDOW.store(false, Ordering::Relaxed);

        assert_eq!(on_caller, 0, "the calling lane allocated on the heap");
        assert_eq!(
            HELPER_ALLOCATIONS.load(Ordering::Relaxed),
            0,
            "the helper lane allocated on the heap"
        );
    }
    let after = lanes::stats();
    if lanes::available() {
        assert!(
            after.claimed > before.claimed,
            "a 4-qubit, 40-slice iteration on an idle host must run as two lanes"
        );
    } else {
        assert_eq!(after.claimed, 0, "a single-CPU host has no helper to claim");
    }
}

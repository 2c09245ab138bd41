//! Steady-state shots allocate the same bytes whatever the readout
//! window: measurement noise lands in a reused buffer and discrimination
//! integrates cached calibration templates, so no per-sample trace is
//! allocated. A counting global allocator measures one shot after a
//! warm-up shot (which fills the calibration cache and sizes the noise
//! buffer). Lives in its own test binary because it installs the global
//! allocator.

use quma::core::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the measuring thread counts, so the test harness's own
    /// threads never perturb the figures.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// a const-initialized thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(bytes, calls)` allocated by one steady-state shot of a program that
/// measures q0 once with a `window`-cycle window, on a noisy chip.
fn steady_shot_allocations(window: u32) -> (u64, u64) {
    let src = format!(
        "mov r15, 40000\nQNopReg r15\nPulse {{q0}}, X90\nWait 4\n\
         MPG {{q0}}, {window}\nMD {{q0}}, r7\nWait {}\nhalt\n",
        window + 100
    );
    let cfg = DeviceConfig {
        chip: ChipProfile::Paper,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    };
    let mut session = Session::new(cfg).expect("config valid");
    let program = session.load_assembly(&src).expect("assembles");
    let plan = session.seed_plan();
    session
        .run_shot(&program, plan.shot(0))
        .expect("warm-up shot");
    BYTES.store(0, Ordering::Relaxed);
    CALLS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let report = session.run_shot(&program, plan.shot(1)).expect("shot");
    COUNTING.with(|c| c.set(false));
    assert_eq!(report.md_results.len(), 1);
    (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}

#[test]
fn shot_allocations_do_not_depend_on_the_readout_window() {
    let short = steady_shot_allocations(300);
    let long = steady_shot_allocations(3000);
    assert_eq!(
        short, long,
        "(bytes, allocations) per shot: 300-cycle window {short:?}, 3000-cycle window {long:?}"
    );
}

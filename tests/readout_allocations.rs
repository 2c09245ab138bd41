//! Steady-state shots allocate the same bytes whatever the readout
//! window and whatever the data-memory size: measurement noise lands in
//! a reused buffer, discrimination integrates cached calibration
//! templates, and reset and report touch only the memory words a shot
//! wrote, so no per-sample trace or per-word copy is allocated. Beyond
//! that, the shot loop allocates nothing at all — codeword triggers play
//! DAC-ready wave memory, the pipeline borrows the program and reuses its
//! queues and scratch buffers — so a shot's exact count is its report's,
//! pinned for a d = 7 QEC shot and the quickstart segment. A counting
//! global allocator measures one shot after a warm-up shot (which fills
//! the calibration cache and sizes the reused buffers). Lives in its own
//! test binary because it installs the global allocator.

use quma::core::prelude::*;
use quma::experiments::prelude::QecConfig;
use quma::experiments::qec;
use quma::isa::prelude::{Assembler, Program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Only the measuring thread counts, into its own tallies, so the
    /// test harness's other threads (and tests running beside this one)
    /// never perturb the figures.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// `(bytes, calls)` allocated while `COUNTING` was set.
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    if COUNTING.with(Cell::get) {
        TALLY.with(|t| {
            let (bytes, calls) = t.get();
            t.set((bytes + size as u64, calls + 1));
        });
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialized thread-locals, which do not allocate.
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
/// measures q0 once with a `window`-cycle window and stores the result
/// to data memory, on a noisy chip with `mem_words` words of memory.
fn steady_shot_allocations(window: u32, mem_words: usize) -> (u64, u64) {
    let src = format!(
        "mov r15, 40000\nmov r3, 64\nQNopReg r15\nPulse {{q0}}, X90\nWait 4\n\
         MPG {{q0}}, {window}\nMD {{q0}}, r7\naddi r9, r7, 1\nstore r9, r3[0]\n\
         Wait {}\nhalt\n",
        window + 100
    );
    let cfg = DeviceConfig {
        chip: ChipProfile::Paper,
        trace: TraceLevel::Off,
        mem_words,
        ..DeviceConfig::default()
    };
    let program = Assembler::new().assemble(&src).expect("assembles");
    steady_program_shot(cfg, &program, |report| {
        assert_eq!(report.md_results.len(), 1);
        assert_eq!(report.memory_word(64), report.registers[7] + 1);
    })
}

#[test]
fn shot_allocations_do_not_depend_on_the_readout_window() {
    let short = steady_shot_allocations(300, 4096);
    let long = steady_shot_allocations(3000, 4096);
    assert_eq!(
        short, long,
        "(bytes, allocations) per shot: 300-cycle window {short:?}, 3000-cycle window {long:?}"
    );
}

#[test]
fn shot_allocations_do_not_depend_on_data_memory_size() {
    let small = steady_shot_allocations(300, 4096);
    let large = steady_shot_allocations(300, 65_536);
    assert_eq!(
        small, large,
        "(bytes, allocations) per shot: 4096 words {small:?}, 65 536 words {large:?}"
    );
}

/// `(bytes, calls)` allocated by one steady-state shot of `program` on a
/// session over `cfg`, after a warm-up shot; `check` inspects the
/// measured shot's report.
fn steady_program_shot(
    cfg: DeviceConfig,
    program: &Program,
    check: impl FnOnce(&RunReport),
) -> (u64, u64) {
    let mut session = Session::new(cfg).expect("config valid");
    let loaded = session.load(program);
    let plan = session.seed_plan();
    session
        .run_shot(&loaded, plan.shot(0))
        .expect("warm-up shot");
    TALLY.with(|t| t.set((0, 0)));
    COUNTING.with(|c| c.set(true));
    let report = session.run_shot(&loaded, plan.shot(1)).expect("shot");
    COUNTING.with(|c| c.set(false));
    check(&report);
    TALLY.with(Cell::get)
}

/// Exact `(bytes, calls)` of one steady-state d = 7, 3-round feedback
/// QEC shot on the stabilizer chip: 150 instructions, 36 codeword
/// triggers and 25 windows allocate nothing in the shot loop; all 17
/// calls build the report (13 per-qubit collector averages and their
/// outer `Vec`, the CTPG trigger counts, the marker pulses, and the next
/// shot's MD records, sized by this one's 25). Debug and release builds
/// agree.
#[test]
fn a_steady_qec_shot_allocates_only_its_report() {
    let cfg = QecConfig {
        distance: 7,
        rounds: 3,
        feedback: true,
        profile: ChipProfile::Stabilizer,
        ..QecConfig::default()
    };
    let program = qec::code_for(&cfg).compile();
    let tally = steady_program_shot(qec::device_config(&cfg), &program, |report| {
        assert_eq!(report.stats.exec.retired, 150);
        assert_eq!(report.stats.ctpg_triggers.iter().sum::<u64>(), 36);
        assert_eq!(report.stats.measurements, 25);
    });
    assert_eq!(tally, (1416, 17), "(bytes, allocations) per QEC shot");
}

/// The quickstart segment on the noisy `Paper` chip: two `X90`s and one
/// noisy 1500-sample window allocate only the report.
#[test]
fn a_steady_quickstart_shot_allocates_only_its_report() {
    let program = Assembler::new()
        .assemble(
            "mov r15, 40000\nQNopReg r15\nPulse {q0}, X90\nWait 4\nPulse {q0}, X90\n\
             Wait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n",
        )
        .expect("assembles");
    let cfg = DeviceConfig {
        chip: ChipProfile::Paper,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    };
    let tally = steady_program_shot(cfg, &program, |report| {
        assert_eq!(report.stats.readout_gaussians, 1500);
    });
    assert_eq!(tally, (96, 5), "(bytes, allocations) per quickstart shot");
}

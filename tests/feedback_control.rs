//! Measurement-feedback integration: the paper motivates hardware
//! discrimination with real-time feedback ("the feedback control determines
//! the next operations based on the result of measurements", §4.2.1). These
//! tests exercise branch-on-measurement through the full pipeline.

use quma::core::prelude::*;

/// Measure, then conditionally apply X180 only when the result was 1 —
/// active reset by feedback. Whatever the first outcome, the final
/// measurement must read 0.
const ACTIVE_RESET: &str = "\
    mov r15, 40000
    # Prepare a superposition so the first outcome is random.
    QNopReg r15
    Pulse {q0}, X90
    Wait 4
    MPG {q0}, 300
    MD {q0}, r7
    # Branch on the measurement result.
    mov r8, 0
    beq r7, r8, Skip_Flip
    Pulse {q0}, X180
    Wait 4
    Skip_Flip:
    Wait 400
    MPG {q0}, 300
    MD {q0}, r9
    halt
";

#[test]
fn active_reset_by_feedback_always_ends_in_ground() {
    // Ideal chip: no relaxation between the two measurements, so only the
    // conditional X180 can return the qubit to |0⟩.
    for seed in 0..20u64 {
        let cfg = DeviceConfig {
            chip_seed: seed,
            ..DeviceConfig::default()
        };
        let mut dev = Device::new(cfg).expect("valid config");
        let report = dev.run_assembly(ACTIVE_RESET).expect("program runs");
        assert_eq!(
            report.registers[9], 0,
            "seed {seed}: feedback reset must leave |0⟩ (first outcome was {})",
            report.registers[7]
        );
    }
}

#[test]
fn both_branch_outcomes_occur() {
    let mut saw = [false, false];
    for seed in 0..30u64 {
        let cfg = DeviceConfig {
            chip_seed: seed,
            ..DeviceConfig::default()
        };
        let mut dev = Device::new(cfg).expect("valid config");
        let report = dev.run_assembly(ACTIVE_RESET).expect("program runs");
        saw[report.registers[7] as usize & 1] = true;
    }
    assert!(
        saw[0] && saw[1],
        "an X90 should randomize the first outcome"
    );
}

#[test]
fn feedback_latency_is_bounded() {
    // The conditional pulse can only fire after the MD result returns:
    // measurement window (300 cycles) + trigger delay + MDU latency. Check
    // the second measurement's pulse timeline respects that order.
    let cfg = DeviceConfig::default();
    let mut dev = Device::new(cfg).expect("valid config");
    let report = dev.run_assembly(ACTIVE_RESET).expect("program runs");
    if report.registers[7] == 1 {
        // The conditional X180 exists in the pulse timeline; it must start
        // after the first MD result time.
        let md_time = report.md_results[0].td;
        let x180 = report
            .trace
            .pulse_timeline()
            .iter()
            .find(|&&(_, _, cw)| cw == 1)
            .copied()
            .expect("conditional X180 played");
        assert!(
            x180.0 > md_time,
            "feedback pulse at TD {} must follow the result at TD {}",
            x180.0,
            md_time
        );
    }
    assert!(
        report.stats.exec.pending_stalls > 0,
        "the branch must have stalled on the pending register"
    );
}

#[test]
fn accumulating_results_in_memory_matches_md_records() {
    // The Table 5 QIS pattern: Load/Add/Store accumulating r7 into memory.
    let src = "\
        mov r15, 4000
        mov r1, 0
        mov r2, 8
        mov r3, 64
        Loop:
        QNopReg r15
        Pulse {q0}, X90
        Wait 4
        MPG {q0}, 300
        MD {q0}, r7
        load r9, r3[0]
        add r9, r9, r7
        store r9, r3[0]
        addi r1, r1, 1
        bne r1, r2, Loop
        halt
    ";
    let cfg = DeviceConfig {
        chip: ChipProfile::Paper, // relaxing chip: outcomes stay random
        chip_seed: 5,
        ..DeviceConfig::default()
    };
    let ones =
        |report: &RunReport| -> i32 { report.md_results.iter().map(|m| i32::from(m.bit)).sum() };
    let mut dev = Device::new(cfg.clone()).expect("valid config");
    let report = dev.run_assembly(src).expect("program runs");
    assert_eq!(
        report.memory_word(64),
        ones(&report),
        "memory accumulation matches MD log"
    );
    assert_eq!(report.md_results.len(), 8);
    assert_eq!(report.memory, vec![(64, ones(&report))]);
    // The first run leaves a nonzero word behind, so every later run
    // below reads its own count only if memory is cleared between runs.
    assert!(ones(&report) > 0);

    let again = dev.run_assembly(src).expect("program runs again");
    assert_eq!(
        again.memory_word(64),
        ones(&again),
        "a second run on the same device starts from zeroed memory"
    );

    let mut session = Session::new(cfg).expect("valid config");
    let program = session.load_assembly(src).expect("assembles");
    let batch = session.run_shots(&program, 2).expect("batch runs");
    for (i, shot) in batch.shots.iter().enumerate() {
        assert_eq!(
            shot.memory_word(64),
            ones(shot),
            "shot {i} of a batch starts from zeroed memory"
        );
    }
    assert!(ones(&batch.shots[0]) > 0);
}

#[test]
fn md_reports_the_window_it_was_issued_with() {
    // The second MPG opens a new window on q0 before the first MD's
    // result is written back. The MD must still report the first window
    // (the qubit in |0⟩), not the later post-X180 one.
    let overlapping = "\
        Wait 40000
        MPG {q0}, 300
        MD {q0}, r7
        Wait 310
        Pulse {q0}, X180
        Wait 4
        MPG {q0}, 300
        Wait 400
        halt
    ";
    let alone = "\
        Wait 40000
        MPG {q0}, 300
        MD {q0}, r7
        Wait 400
        halt
    ";
    let run = |src: &str| {
        let mut dev = Device::new(DeviceConfig::default()).expect("valid config");
        dev.run_assembly(src).expect("program runs")
    };
    let got = run(overlapping);
    let want = run(alone);
    assert_eq!(got.registers[7], 0, "r7 binds the |0⟩ window");
    assert_eq!(got.md_results.len(), 1);
    assert_eq!(got.md_results[0].bit, 0);
    assert!(got.md_results[0].s < 0.0, "s = {}", got.md_results[0].s);
    assert_eq!(
        got.md_results[0].s.to_bits(),
        want.md_results[0].s.to_bits()
    );
    assert_eq!(got.md_results[0].td, want.md_results[0].td);
}

//! Every device error path fires where it should — the failure modes a
//! real control stack must refuse loudly rather than misbehave silently.

use quma::core::prelude::*;
use quma::isa::prelude::*;

fn device() -> Device {
    Device::new(DeviceConfig::default()).expect("valid config")
}

#[test]
fn invalid_configuration_is_rejected() {
    let cfg = DeviceConfig {
        num_qubits: 0,
        ..DeviceConfig::default()
    };
    let err = Device::new(cfg).expect_err("0 qubits is invalid");
    assert!(err.to_string().contains("num_qubits"));
}

#[test]
fn unknown_gate_id_faults() {
    let program = Program::new(vec![
        Instruction::Apply {
            gate: GateId(200),
            qubits: QubitMask::single(0),
        },
        Instruction::Halt,
    ]);
    let err = device().run(&program).expect_err("no microprogram for 200");
    assert!(err.to_string().contains("no microprogram"), "{err}");
}

#[test]
fn undefined_uop_faults() {
    let program = Program::new(vec![
        Instruction::Wait { interval: 4 },
        Instruction::Pulse {
            ops: vec![PulseOp {
                qubits: QubitMask::single(0),
                uop: UopId(42),
            }],
        },
        Instruction::Halt,
    ]);
    let err = device().run(&program).expect_err("µ-op 42 undefined");
    assert!(err.to_string().contains("codeword sequence"), "{err}");
}

#[test]
fn memory_fault_surfaces_through_the_device() {
    let err = device()
        .run_assembly("mov r1, 9999\nload r2, r1[0]\nhalt")
        .expect_err("out of bounds");
    assert!(err.to_string().contains("data-memory"), "{err}");
}

#[test]
fn negative_wait_surfaces() {
    let err = device()
        .run_assembly("mov r1, -5\nQNopReg r1\nhalt")
        .expect_err("negative wait");
    assert!(err.to_string().contains("negative wait"), "{err}");
}

#[test]
fn runaway_program_hits_the_cycle_guard() {
    let cfg = DeviceConfig {
        max_host_cycles: 10_000,
        ..DeviceConfig::default()
    };
    let mut dev = Device::new(cfg).expect("valid config");
    // An infinite classical loop.
    let err = dev
        .run_assembly("Loop: mov r1, 1\njump Loop")
        .expect_err("never halts");
    assert!(err.to_string().contains("max host cycles"), "{err}");
}

#[test]
fn verifier_catches_what_the_device_would_fault_on() {
    // The static verifier flags the same MD-without-MPG hazard before load.
    let src = "Wait 4\nMD {q0}, r7\nhalt";
    let prog = Assembler::new().assemble(src).unwrap();
    assert!(!is_loadable(&prog, &VerifyConfig::default()));
    let err = device().run(&prog).expect_err("MD without MPG");
    assert!(
        err.to_string().contains("no measurement window of its own"),
        "{err}"
    );
}

#[test]
fn verifier_passes_what_the_device_runs() {
    let src =
        "mov r15, 40000\nQNopReg r15\nPulse {q0}, X180\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt";
    let prog = Assembler::new().assemble(src).unwrap();
    assert!(is_loadable(&prog, &VerifyConfig::default()));
    assert!(verify(&prog, &VerifyConfig::default()).is_empty());
    assert!(device().run(&prog).is_ok());
}

#[test]
fn markers_reported_in_run_stats() {
    let src = "Wait 100\nMPG {q0}, 300\nMD {q0}, r7\nhalt";
    let report = device().run_assembly(src).expect("runs");
    assert_eq!(report.stats.marker_pulses.len(), 1);
    let m = report.stats.marker_pulses[0];
    assert_eq!(m.start, 100);
    assert_eq!(m.duration, 300);
    assert!(m.channels.contains(0));
}

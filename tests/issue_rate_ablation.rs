//! Golden test for the Section 6 issue-rate ablation: "more qubits ask
//! for a higher operation output rate while only a single instruction
//! stream is used. A VLIW architecture can be adopted to provide much
//! larger instruction issue rate."
//!
//! N qubits are driven together every 4 cycles for 200 rounds behind
//! 64-entry queues, once as N scalar `Pulse` instructions per time step
//! and once as one horizontal `Pulse` carrying N (qubit, µ-op) pairs.
//! The scalar stream falls behind the deterministic timeline once N
//! outruns the issue rate, and every late time point is a timing-queue
//! underrun; the horizontal stream keeps up at every N. The counts are
//! exact: the host side is jitter-free by default, so issue timing is
//! a pure function of the program.

use quma::core::prelude::*;
use std::fmt::Write as _;

const ROUNDS: usize = 200;
const QUBITS: [usize; 4] = [1, 2, 4, 8];

/// N sequential single-qubit `Pulse` instructions per time step.
fn scalar_program(n_qubits: usize) -> String {
    let mut src = String::from("Wait 1000\n");
    for _ in 0..ROUNDS {
        for q in 0..n_qubits {
            let _ = writeln!(src, "Pulse {{q{q}}}, X90");
        }
        src.push_str("Wait 4\n");
    }
    src.push_str("halt\n");
    src
}

/// One horizontal `Pulse` with N pairs per time step.
fn horizontal_program(n_qubits: usize) -> String {
    let mut src = String::from("Wait 1000\n");
    for _ in 0..ROUNDS {
        let pairs: Vec<String> = (0..n_qubits).map(|q| format!("{{q{q}}}, X90")).collect();
        let _ = writeln!(src, "Pulse {}", pairs.join(", "));
        src.push_str("Wait 4\n");
    }
    src.push_str("halt\n");
    src
}

fn underruns(src: &str, n_qubits: usize) -> u64 {
    let mut dev = Device::new(DeviceConfig {
        num_qubits: n_qubits,
        queue_capacity: 64, // small buffers expose the issue-rate limit
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    })
    .expect("valid config");
    dev.run_assembly(src)
        .expect("program runs")
        .stats
        .timing
        .underruns
}

#[test]
fn scalar_issue_underruns_once_qubits_outrun_the_stream() {
    let got: Vec<u64> = QUBITS
        .iter()
        .map(|&n| underruns(&scalar_program(n), n))
        .collect();
    assert_eq!(got, [0, 0, 107, 915], "scalar underruns at N = {QUBITS:?}");
}

#[test]
fn horizontal_issue_never_underruns() {
    let got: Vec<u64> = QUBITS
        .iter()
        .map(|&n| underruns(&horizontal_program(n), n))
        .collect();
    assert_eq!(got, [0; 4], "horizontal underruns at N = {QUBITS:?}");
}

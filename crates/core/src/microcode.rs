//! The physical microcode unit and Q control store (Section 5.3):
//! translates high-level QIS quantum instructions into QuMIS
//! microinstruction sequences using uploaded microprograms, enabling
//! technology-independent instruction definition.

use quma_isa::prelude::{GateId, Instruction, PulseOp, QubitMask, Reg, UopId};
use std::collections::HashMap;

/// Selects which qubits of an `Apply` instruction's mask a microprogram
/// operation targets, so one microprogram works for any operand qubits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QubitSel {
    /// Every qubit in the mask.
    All,
    /// The lowest-indexed qubit (the *first* operand, e.g. the CNOT target
    /// in `CNOT qt, qc`).
    First,
    /// The second-lowest-indexed qubit (the second operand, e.g. the CNOT
    /// control).
    Second,
}

impl QubitSel {
    /// Resolves the selector against a concrete mask.
    pub fn resolve(self, mask: QubitMask) -> QubitMask {
        match self {
            QubitSel::All => mask,
            QubitSel::First => mask
                .iter()
                .next()
                .map(QubitMask::single)
                .unwrap_or(QubitMask::EMPTY),
            QubitSel::Second => mask
                .iter()
                .nth(1)
                .map(QubitMask::single)
                .unwrap_or(QubitMask::EMPTY),
        }
    }
}

/// One operation of a microprogram — a QuMIS instruction with qubit
/// selectors instead of concrete masks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MicroOp {
    /// A horizontal pulse: `(selector, µ-op)` pairs.
    Pulse(Vec<(QubitSel, UopId)>),
    /// Advance the timeline.
    Wait(u32),
    /// Measurement pulse generation.
    Mpg(QubitSel, u32),
    /// Measurement discrimination (register filled in from the `Measure`
    /// instruction).
    Md(QubitSel),
}

/// A microprogram stored in the Q control store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroProgram {
    /// Human-readable name (for disassembly and docs).
    pub name: String,
    /// The operations, in order.
    pub ops: Vec<MicroOp>,
}

/// The Q control store: microprograms indexed by gate id.
#[derive(Debug, Clone)]
pub struct QControlStore {
    programs: HashMap<GateId, MicroProgram>,
    /// Default measurement-pulse duration in cycles used when expanding
    /// `Measure` (paper AllXY: 300).
    pub measure_duration: u32,
    /// Default gate spacing in cycles appended after each single-primitive
    /// gate (paper AllXY: 4 cycles = one 20 ns pulse).
    pub gate_spacing: u32,
}

impl QControlStore {
    /// An empty store with the paper's default timings.
    pub fn new() -> Self {
        Self {
            programs: HashMap::new(),
            measure_duration: 300,
            gate_spacing: 4,
        }
    }

    /// The paper-flavoured default store:
    ///
    /// * gates 0–6: the Table 1 primitives, each `Pulse` + `Wait 4`;
    /// * gate 7 (`CZ`): placeholder two-qubit flux pulse `Pulse` + `Wait 8`;
    /// * gate 8 (`CNOT`): Algorithm 2 — `Ym90(t); Wait 4; CZ(t,c); Wait 8;
    ///   Y90(t); Wait 4`;
    /// * gate 9 (`Z`): the emulated µ-op whose codeword sequence is
    ///   `Seq_Z` (Section 5.3.2), `Pulse` + `Wait 8` (two chained pulses).
    pub fn paper_default() -> Self {
        let mut store = Self::new();
        for i in 0..7u8 {
            let name = quma_isa::prelude::TABLE1_NAMES[i as usize];
            store.define(
                GateId(i),
                MicroProgram {
                    name: name.to_string(),
                    ops: vec![
                        MicroOp::Pulse(vec![(QubitSel::All, UopId(i))]),
                        MicroOp::Wait(store.gate_spacing),
                    ],
                },
            );
        }
        store.define(
            GateId(GATE_CZ),
            MicroProgram {
                name: "CZ".to_string(),
                ops: vec![
                    MicroOp::Pulse(vec![(QubitSel::All, UopId(UOP_CZ))]),
                    MicroOp::Wait(8),
                ],
            },
        );
        store.define(
            GateId(GATE_CNOT),
            MicroProgram {
                name: "CNOT".to_string(),
                ops: vec![
                    MicroOp::Pulse(vec![(QubitSel::First, UopId(6))]), // mY90 on target
                    MicroOp::Wait(4),
                    MicroOp::Pulse(vec![(QubitSel::All, UopId(UOP_CZ))]),
                    MicroOp::Wait(8),
                    MicroOp::Pulse(vec![(QubitSel::First, UopId(5))]), // Y90 on target
                    MicroOp::Wait(4),
                ],
            },
        );
        store.define(
            GateId(GATE_Z),
            MicroProgram {
                name: "Z".to_string(),
                ops: vec![
                    MicroOp::Pulse(vec![(QubitSel::All, UopId(UOP_Z))]),
                    MicroOp::Wait(8),
                ],
            },
        );
        // Hadamard as a microcoded composite: H = X · Ry(π/2) exactly
        // (1/√2 [[1,1],[1,−1]]), i.e. a Y90 pulse followed by an X180 —
        // the Section 5.3 flexibility the microcode approach buys.
        store.define(
            GateId(GATE_H),
            MicroProgram {
                name: "H".to_string(),
                ops: vec![
                    MicroOp::Pulse(vec![(QubitSel::All, UopId(5))]), // Y90
                    MicroOp::Wait(4),
                    MicroOp::Pulse(vec![(QubitSel::All, UopId(1))]), // X180
                    MicroOp::Wait(4),
                ],
            },
        );
        store
    }

    /// Uploads a microprogram for a gate id.
    pub fn define(&mut self, gate: GateId, program: MicroProgram) {
        self.programs.insert(gate, program);
    }

    /// Fetches a microprogram.
    pub fn program(&self, gate: GateId) -> Option<&MicroProgram> {
        self.programs.get(&gate)
    }

    /// Number of stored microprograms.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// True when no microprograms are stored.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }
}

impl Default for QControlStore {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Gate id of CZ in the default store.
pub const GATE_CZ: u8 = 7;
/// Gate id of CNOT in the default store.
pub const GATE_CNOT: u8 = 8;
/// Gate id of the emulated Z in the default store.
pub const GATE_Z: u8 = 9;
/// Gate id of the microcoded Hadamard in the default store.
pub const GATE_H: u8 = 10;
/// µ-op id of the CZ flux pulse in the default µ-op numbering.
pub const UOP_CZ: u8 = 7;
/// µ-op id of the emulated Z (expanded by the µ-op unit via `Seq_Z`).
pub const UOP_Z: u8 = 8;

/// Error: an `Apply` referenced a gate id with no microprogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownGate(pub GateId);

impl std::fmt::Display for UnknownGate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "no microprogram for {}", self.0)
    }
}

impl std::error::Error for UnknownGate {}

/// The physical microcode unit: expands one quantum instruction into QuMIS
/// microinstructions. `Wait`/`Pulse`/`MPG`/`MD` pass through unchanged;
/// `Apply` expands via the Q control store; `Measure` expands to
/// `MPG` + `MD` with the store's default duration.
pub fn expand(store: &QControlStore, insn: &Instruction) -> Result<Vec<Instruction>, UnknownGate> {
    let mut out = Vec::new();
    expand_with(store, insn, |micro| out.push(micro))?;
    Ok(out)
}

/// Like [`expand`], handing each microinstruction to `emit` in order
/// instead of collecting them.
pub(crate) fn expand_with(
    store: &QControlStore,
    insn: &Instruction,
    mut emit: impl FnMut(Instruction),
) -> Result<(), UnknownGate> {
    match insn {
        Instruction::Apply { gate, qubits } => {
            let prog = store.program(*gate).ok_or(UnknownGate(*gate))?;
            for op in &prog.ops {
                emit(instantiate(op, *qubits, None));
            }
        }
        Instruction::Measure { qubits, rd } => {
            emit(Instruction::Mpg {
                qubits: *qubits,
                duration: store.measure_duration,
            });
            emit(Instruction::Md {
                qubits: *qubits,
                rd: Some(*rd),
            });
        }
        _ if passes_through(insn) => emit(insn.clone()),
        other => panic!("expand() given non-quantum instruction {other}"),
    }
    Ok(())
}

/// True for the QuMIS microinstructions the unit passes through
/// unchanged.
pub(crate) fn passes_through(insn: &Instruction) -> bool {
    matches!(
        insn,
        Instruction::Wait { .. }
            | Instruction::Pulse { .. }
            | Instruction::Mpg { .. }
            | Instruction::Md { .. }
    )
}

fn instantiate(op: &MicroOp, mask: QubitMask, rd: Option<Reg>) -> Instruction {
    match op {
        MicroOp::Pulse(pairs) => Instruction::Pulse {
            ops: pairs
                .iter()
                .map(|&(sel, uop)| PulseOp {
                    qubits: sel.resolve(mask),
                    uop,
                })
                .collect(),
        },
        MicroOp::Wait(n) => Instruction::Wait { interval: *n },
        MicroOp::Mpg(sel, d) => Instruction::Mpg {
            qubits: sel.resolve(mask),
            duration: *d,
        },
        MicroOp::Md(sel) => Instruction::Md {
            qubits: sel.resolve(mask),
            rd,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_qubit_apply_expands_to_pulse_wait() {
        let store = QControlStore::paper_default();
        let out = expand(
            &store,
            &Instruction::Apply {
                gate: GateId(1), // X180
                qubits: QubitMask::single(2),
            },
        )
        .unwrap();
        assert_eq!(
            out,
            vec![
                Instruction::Pulse {
                    ops: vec![PulseOp {
                        qubits: QubitMask::single(2),
                        uop: UopId(1)
                    }]
                },
                Instruction::Wait { interval: 4 },
            ]
        );
    }

    #[test]
    fn cnot_expands_per_algorithm2() {
        // Algorithm 2: Pulse {qt}, Ym90 / Wait 4 / Pulse {qt,qc}, CZ /
        // Wait 8 / Pulse {qt}, Y90 / Wait 4.
        let store = QControlStore::paper_default();
        let out = expand(
            &store,
            &Instruction::Apply {
                gate: GateId(GATE_CNOT),
                qubits: QubitMask::of(&[1, 2]), // target q1, control q2
            },
        )
        .unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(
            out[0],
            Instruction::Pulse {
                ops: vec![PulseOp {
                    qubits: QubitMask::single(1),
                    uop: UopId(6) // mY90
                }]
            }
        );
        assert_eq!(out[1], Instruction::Wait { interval: 4 });
        assert_eq!(
            out[2],
            Instruction::Pulse {
                ops: vec![PulseOp {
                    qubits: QubitMask::of(&[1, 2]),
                    uop: UopId(UOP_CZ)
                }]
            }
        );
        assert_eq!(out[3], Instruction::Wait { interval: 8 });
        assert_eq!(
            out[4],
            Instruction::Pulse {
                ops: vec![PulseOp {
                    qubits: QubitMask::single(1),
                    uop: UopId(5) // Y90
                }]
            }
        );
        assert_eq!(out[5], Instruction::Wait { interval: 4 });
    }

    #[test]
    fn measure_expands_to_mpg_md() {
        let store = QControlStore::paper_default();
        let out = expand(
            &store,
            &Instruction::Measure {
                qubits: QubitMask::single(0),
                rd: Reg::r(7),
            },
        )
        .unwrap();
        assert_eq!(
            out,
            vec![
                Instruction::Mpg {
                    qubits: QubitMask::single(0),
                    duration: 300
                },
                Instruction::Md {
                    qubits: QubitMask::single(0),
                    rd: Some(Reg::r(7))
                },
            ]
        );
    }

    #[test]
    fn qumis_passes_through() {
        let store = QControlStore::paper_default();
        let insn = Instruction::Wait { interval: 40000 };
        assert_eq!(expand(&store, &insn).unwrap(), vec![insn]);
    }

    #[test]
    fn unknown_gate_is_an_error() {
        let store = QControlStore::new();
        assert_eq!(
            expand(
                &store,
                &Instruction::Apply {
                    gate: GateId(5),
                    qubits: QubitMask::single(0)
                }
            ),
            Err(UnknownGate(GateId(5)))
        );
    }

    #[test]
    fn selectors_resolve_against_masks() {
        let m = QubitMask::of(&[3, 5, 9]);
        assert_eq!(QubitSel::All.resolve(m), m);
        assert_eq!(QubitSel::First.resolve(m), QubitMask::single(3));
        assert_eq!(QubitSel::Second.resolve(m), QubitMask::single(5));
        assert_eq!(
            QubitSel::Second.resolve(QubitMask::single(1)),
            QubitMask::EMPTY
        );
    }

    #[test]
    fn redefining_a_gate_replaces_it() {
        let mut store = QControlStore::paper_default();
        store.define(
            GateId(1),
            MicroProgram {
                name: "X180-drag".into(),
                ops: vec![MicroOp::Pulse(vec![(QubitSel::All, UopId(9))])],
            },
        );
        let out = expand(
            &store,
            &Instruction::Apply {
                gate: GateId(1),
                qubits: QubitMask::single(0),
            },
        )
        .unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    #[should_panic(expected = "non-quantum instruction")]
    fn classical_instruction_panics() {
        let store = QControlStore::paper_default();
        let _ = expand(&store, &Instruction::Halt);
    }
}

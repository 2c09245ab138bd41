//! The best-effort fetch/decode domain (paper Figure 4, left half).
//!
//! Execution controller → decode FIFO → physical microcode unit →
//! quantum microinstruction buffer. Everything here runs at whatever rate
//! instruction latency, scoreboard stalls, and queue backpressure allow;
//! nothing here may influence *when* an event fires — only whether the
//! timing queues are filled early enough (a violation shows up as a
//! timing-queue underrun, never as a shifted event).
//!
//! The frontend copies nothing the program holds: every step borrows the
//! running program, and an instruction forwarded unchanged travels
//! through the decode buffers as its address.

use crate::exec::{ExecError, ExecStats, ExecutionController, Forwarded, StepOutcome};
use crate::microcode::{expand_with, passes_through, QControlStore, UnknownGate};
use crate::qmb::QuantumMicroinstructionBuffer;
use crate::timing::TimingControlUnit;
use quma_isa::prelude::{Instruction, Program, Reg};
use std::borrow::Cow;
use std::collections::VecDeque;

/// The physical microcode unit stops decoding while this many expanded
/// microinstructions are still waiting to enter the QMB.
const EXPAND_HIGH_WATER: usize = 16;

/// A microinstruction waiting to enter the QMB.
#[derive(Debug, Clone)]
enum Micro {
    /// A QuMIS instruction forwarded by the execution controller,
    /// passed through unchanged.
    Forwarded(Forwarded),
    /// One the Q control store expanded a QIS instruction into.
    Expanded(Instruction),
}

/// The non-deterministic half of the pipeline. Every method that reads
/// instructions takes the program last passed to [`Frontend::load`].
#[derive(Debug, Clone)]
pub struct Frontend {
    exec: ExecutionController,
    store: QControlStore,
    decode_fifo: VecDeque<Forwarded>,
    expanded: VecDeque<Micro>,
    qmb: QuantumMicroinstructionBuffer,
    decode_fifo_capacity: usize,
}

impl Frontend {
    /// Builds the frontend: execution controller with the configured data
    /// memory and jitter model, the paper-default Q control store, and
    /// empty decode buffers.
    pub fn new(
        mem_words: usize,
        max_jitter_cycles: u32,
        jitter_seed: u64,
        decode_fifo_capacity: usize,
    ) -> Self {
        Self {
            exec: ExecutionController::new(mem_words, max_jitter_cycles, jitter_seed),
            store: QControlStore::paper_default(),
            decode_fifo: VecDeque::new(),
            expanded: VecDeque::new(),
            qmb: QuantumMicroinstructionBuffer::new(),
            decode_fifo_capacity,
        }
    }

    /// Loads a program, clearing all decode state.
    pub fn load(&mut self, program: &Program) {
        self.exec.load(program);
        self.decode_fifo.clear();
        self.expanded.clear();
        self.qmb.reset();
    }

    /// Reseeds the execution controller's jitter RNG (per-shot reset).
    pub fn reseed(&mut self, jitter_seed: u64) {
        self.exec.reseed(jitter_seed);
    }

    /// The execution controller (registers, memory, statistics).
    pub fn exec(&self) -> &ExecutionController {
        &self.exec
    }

    /// The Q control store (to upload microprograms).
    pub fn store_mut(&mut self) -> &mut QControlStore {
        &mut self.store
    }

    /// Execution statistics.
    pub fn exec_stats(&self) -> ExecStats {
        self.exec.stats()
    }

    /// Completes an in-flight measurement result crossing back from the
    /// deterministic domain: writes the register and releases the
    /// scoreboard entry.
    pub fn complete_pending(&mut self, rd: Reg, value: i32) {
        self.exec.complete_pending(rd, value);
    }

    /// Physical microcode unit: decodes at most one instruction from the
    /// decode FIFO per cycle, expanding it through the Q control store.
    pub fn decode_step(&mut self, program: &[Instruction]) -> Result<(), UnknownGate> {
        if self.expanded.len() < EXPAND_HIGH_WATER {
            if let Some(forwarded) = self.decode_fifo.pop_front() {
                let insn = forwarded.resolve(program);
                if passes_through(&insn) {
                    self.expanded.push_back(Micro::Forwarded(forwarded));
                } else {
                    let expanded = &mut self.expanded;
                    expand_with(&self.store, &insn, |m| {
                        expanded.push_back(Micro::Expanded(m));
                    })?;
                }
            }
        }
        Ok(())
    }

    /// QMB: pushes as many expanded microinstructions into the timing
    /// queues as backpressure allows.
    pub fn fill_queues(&mut self, program: &[Instruction], tcu: &mut TimingControlUnit) {
        while let Some(front) = self.expanded.front() {
            let insn = match front {
                Micro::Forwarded(forwarded) => forwarded.resolve(program),
                Micro::Expanded(insn) => Cow::Borrowed(insn),
            };
            let pushed = self
                .qmb
                .push(&insn, tcu)
                .expect("microcode expansion yields only QuMIS");
            if pushed {
                self.expanded.pop_front();
            } else {
                break;
            }
        }
    }

    /// Offers the execution controller one retire opportunity, marking
    /// measurement destinations pending and forwarding retired quantum
    /// instructions into the decode FIFO.
    pub fn exec_step(
        &mut self,
        program: &[Instruction],
        cycle: u64,
    ) -> Result<StepOutcome, ExecError> {
        let fifo_free = self
            .decode_fifo_capacity
            .saturating_sub(self.decode_fifo.len());
        let outcome = self.exec.step(program, cycle, fifo_free)?;
        if let StepOutcome::ForwardedQuantum(forwarded) = outcome {
            // Scoreboard: a measurement destination register becomes
            // pending at issue time.
            match *forwarded.resolve(program) {
                Instruction::Measure { rd, .. } | Instruction::Md { rd: Some(rd), .. } => {
                    self.exec.mark_pending(rd)
                }
                _ => {}
            }
            self.decode_fifo.push_back(forwarded);
        }
        Ok(outcome)
    }

    /// True when the program has halted and every decode buffer is empty.
    pub fn is_drained(&self) -> bool {
        self.exec.halted() && self.decode_fifo.is_empty() && self.expanded.is_empty()
    }

    /// True when the decode stage could make progress next cycle (the
    /// decode FIFO holds work and the expansion buffer has room).
    pub fn decode_can_progress(&self) -> bool {
        !self.decode_fifo.is_empty() && self.expanded.len() < EXPAND_HIGH_WATER
    }
}

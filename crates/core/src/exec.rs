//! The execution controller (Section 5.3.2): executes the auxiliary
//! classical instructions — register updates, program flow control, data
//! memory access — and streams quantum instructions to the physical
//! microcode unit.
//!
//! Instruction execution lives in the *non-deterministic* timing domain: a
//! configurable jitter model makes each instruction take `1 + U(0..=j)`
//! cycles, which the property tests use to demonstrate the paper's central
//! claim that queue-based timing control makes the emitted event timing
//! independent of instruction-execution timing.
//!
//! Register reads of a measurement result that has not yet been produced
//! stall the pipeline (a scoreboard on the register file), which is what
//! makes feedback on `Measure q, rd` results correct.

use quma_isa::prelude::{Instruction, Program, Reg, RegisterFile, NUM_REGS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// Execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions retired.
    pub retired: u64,
    /// Cycles spent stalled on a pending (in-flight measurement) register.
    pub pending_stalls: u64,
    /// Cycles spent stalled on downstream queue backpressure.
    pub backpressure_stalls: u64,
    /// Taken branches.
    pub branches_taken: u64,
}

/// What the controller did when offered a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The program has halted.
    Halted,
    /// Still busy with the previous instruction (multi-cycle latency);
    /// ready at the contained cycle.
    Busy(u64),
    /// Stalled: an operand register has an in-flight measurement result.
    StalledPending(Reg),
    /// Stalled: the downstream quantum-instruction FIFO is full.
    StalledBackpressure,
    /// Retired a classical instruction.
    RetiredClassical,
    /// Retired a quantum instruction, forwarding it downstream.
    ForwardedQuantum(Forwarded),
}

/// A quantum instruction the controller retired and forwards downstream.
/// The program stays where it was loaded, so most instructions travel as
/// their address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Forwarded {
    /// The program's instruction at this address, unchanged.
    At(u32),
    /// A `QNopReg`, converted to `Wait` with the register read at issue
    /// time, as the paper specifies.
    Wait(u32),
}

impl Forwarded {
    /// The forwarded instruction, read from the `program` it was
    /// retired from.
    pub fn resolve(self, program: &[Instruction]) -> Cow<'_, Instruction> {
        match self {
            Forwarded::At(pc) => Cow::Borrowed(&program[pc as usize]),
            Forwarded::Wait(interval) => Cow::Owned(Instruction::Wait { interval }),
        }
    }
}

/// Errors raised during execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Data-memory access out of bounds.
    MemOutOfBounds {
        /// The offending word address.
        addr: i64,
        /// Memory size in words.
        size: usize,
    },
    /// Branch or fall-through left the program text.
    PcOutOfBounds(u32),
    /// A `QNopReg` read a negative wait value.
    NegativeWait(i32),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::MemOutOfBounds { addr, size } => {
                write!(f, "data-memory access at word {addr} outside 0..{size}")
            }
            ExecError::PcOutOfBounds(pc) => write!(f, "program counter {pc} out of bounds"),
            ExecError::NegativeWait(v) => write!(f, "QNopReg read negative wait {v}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The execution controller. It keeps no copy of the program: [`load`]
/// resets state for a program, and every [`step`] borrows that same
/// program's instructions.
///
/// [`load`]: ExecutionController::load
/// [`step`]: ExecutionController::step
#[derive(Debug, Clone)]
pub struct ExecutionController {
    pc: u32,
    rf: RegisterFile,
    mem: Vec<i32>,
    /// Addresses stored to since the last `load`, each listed once, so a
    /// reset clears only those words instead of the whole memory.
    dirty: Vec<u32>,
    /// Membership bits of `dirty`, one per memory word.
    dirty_bits: Vec<u64>,
    /// In-flight result count per register (scoreboard).
    pending: [u16; NUM_REGS],
    halted: bool,
    next_ready: u64,
    max_jitter: u32,
    rng: StdRng,
    stats: ExecStats,
}

impl ExecutionController {
    /// Creates a controller with `mem_words` words of data memory and the
    /// given jitter model.
    pub fn new(mem_words: usize, max_jitter: u32, jitter_seed: u64) -> Self {
        Self {
            pc: 0,
            rf: RegisterFile::new(),
            mem: vec![0; mem_words],
            dirty: Vec::new(),
            dirty_bits: vec![0; mem_words.div_ceil(64)],
            pending: [0; NUM_REGS],
            halted: true,
            next_ready: 0,
            max_jitter,
            rng: StdRng::seed_from_u64(jitter_seed),
            stats: ExecStats::default(),
        }
    }

    /// Replaces the jitter RNG with a freshly seeded one, making future
    /// instruction latencies identical to a newly built controller with
    /// this seed.
    pub fn reseed(&mut self, jitter_seed: u64) {
        self.rng = StdRng::seed_from_u64(jitter_seed);
    }

    /// Resets architectural state to run `program` from its start.
    pub fn load(&mut self, program: &Program) {
        self.pc = 0;
        self.rf = RegisterFile::new();
        for &addr in &self.dirty {
            self.mem[addr as usize] = 0;
            self.dirty_bits[addr as usize / 64] = 0;
        }
        self.dirty.clear();
        self.pending = [0; NUM_REGS];
        self.halted = program.is_empty();
        self.next_ready = 0;
        self.stats = ExecStats::default();
    }

    /// The register file.
    pub fn registers(&self) -> &RegisterFile {
        &self.rf
    }

    /// Data memory contents.
    pub fn memory(&self) -> &[i32] {
        &self.mem
    }

    /// The nonzero data-memory words as `(address, value)` pairs in
    /// ascending address order — every other word is zero. Costs only
    /// the words stored to since `load`, whatever the memory size.
    pub fn nonzero_words(&self) -> Vec<(u32, i32)> {
        let mut words: Vec<(u32, i32)> = self
            .dirty
            .iter()
            .map(|&addr| (addr, self.mem[addr as usize]))
            .filter(|&(_, value)| value != 0)
            .collect();
        words.sort_unstable_by_key(|&(addr, _)| addr);
        words
    }

    /// Statistics.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Whether the program has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Cycle at which the controller can next retire an instruction.
    pub fn next_ready(&self) -> u64 {
        self.next_ready
    }

    /// Marks a register as having an in-flight result (called when an `MD`
    /// that writes `rd` is issued downstream).
    pub fn mark_pending(&mut self, rd: Reg) {
        self.pending[rd.index() as usize] += 1;
    }

    /// Completes an in-flight result: writes the value and releases one
    /// pending count.
    pub fn complete_pending(&mut self, rd: Reg, value: i32) {
        self.rf.write(rd, value);
        let p = &mut self.pending[rd.index() as usize];
        debug_assert!(*p > 0, "completing a result that was never pending");
        *p = p.saturating_sub(1);
    }

    /// True when any register has in-flight results.
    pub fn has_pending(&self) -> bool {
        self.pending.iter().any(|&p| p > 0)
    }

    fn is_pending(&self, r: Reg) -> bool {
        self.pending[r.index() as usize] > 0
    }

    /// Registers an instruction reads (for the scoreboard stall check) and
    /// the one it writes (WAW hazard).
    fn hazard(&self, insn: &Instruction) -> Option<Reg> {
        let reads: &[Reg] = match insn {
            Instruction::Add { rs, rt, .. }
            | Instruction::Sub { rs, rt, .. }
            | Instruction::And { rs, rt, .. }
            | Instruction::Or { rs, rt, .. }
            | Instruction::Xor { rs, rt, .. } => &[*rs, *rt][..],
            Instruction::Addi { rs, .. } => std::slice::from_ref(rs),
            Instruction::Load { base, .. } => std::slice::from_ref(base),
            Instruction::Store { rs, base, .. } => &[*rs, *base][..],
            Instruction::Beq { rs, rt, .. } | Instruction::Bne { rs, rt, .. } => &[*rs, *rt][..],
            Instruction::QNopReg { rs } => std::slice::from_ref(rs),
            _ => &[],
        };
        if let Some(&r) = reads.iter().find(|&&r| self.is_pending(r)) {
            return Some(r);
        }
        let writes: Option<Reg> = match insn {
            Instruction::Mov { rd, .. }
            | Instruction::Add { rd, .. }
            | Instruction::Addi { rd, .. }
            | Instruction::Sub { rd, .. }
            | Instruction::And { rd, .. }
            | Instruction::Or { rd, .. }
            | Instruction::Xor { rd, .. }
            | Instruction::Load { rd, .. } => Some(*rd),
            Instruction::Measure { rd, .. } => Some(*rd),
            Instruction::Md { rd: Some(rd), .. } => Some(*rd),
            _ => None,
        };
        writes.filter(|&r| self.is_pending(r))
    }

    /// Offers the controller the cycle `cycle`. `program` holds the
    /// instructions of the program last passed to
    /// [`ExecutionController::load`]; `downstream_free` is the free space
    /// in the quantum-instruction FIFO (backpressure).
    pub fn step(
        &mut self,
        program: &[Instruction],
        cycle: u64,
        downstream_free: usize,
    ) -> Result<StepOutcome, ExecError> {
        if self.halted {
            return Ok(StepOutcome::Halted);
        }
        if cycle < self.next_ready {
            return Ok(StepOutcome::Busy(self.next_ready));
        }
        let pc = self.pc as usize;
        let insn = program.get(pc).ok_or(ExecError::PcOutOfBounds(self.pc))?;
        if let Some(r) = self.hazard(insn) {
            self.stats.pending_stalls += 1;
            return Ok(StepOutcome::StalledPending(r));
        }
        if insn.is_quantum() && downstream_free == 0 {
            self.stats.backpressure_stalls += 1;
            return Ok(StepOutcome::StalledBackpressure);
        }
        // Retire.
        let latency = 1 + if self.max_jitter > 0 {
            u64::from(self.rng.random_range(0..=self.max_jitter))
        } else {
            0
        };
        self.next_ready = cycle + latency;
        self.stats.retired += 1;
        let mut next_pc = self.pc + 1;
        let outcome = match insn {
            Instruction::Mov { rd, imm } => {
                self.rf.write(*rd, *imm);
                StepOutcome::RetiredClassical
            }
            Instruction::Add { rd, rs, rt } => {
                let v = self.rf.read(*rs).wrapping_add(self.rf.read(*rt));
                self.rf.write(*rd, v);
                StepOutcome::RetiredClassical
            }
            Instruction::Addi { rd, rs, imm } => {
                let v = self.rf.read(*rs).wrapping_add(*imm);
                self.rf.write(*rd, v);
                StepOutcome::RetiredClassical
            }
            Instruction::Sub { rd, rs, rt } => {
                let v = self.rf.read(*rs).wrapping_sub(self.rf.read(*rt));
                self.rf.write(*rd, v);
                StepOutcome::RetiredClassical
            }
            Instruction::And { rd, rs, rt } => {
                let v = self.rf.read(*rs) & self.rf.read(*rt);
                self.rf.write(*rd, v);
                StepOutcome::RetiredClassical
            }
            Instruction::Or { rd, rs, rt } => {
                let v = self.rf.read(*rs) | self.rf.read(*rt);
                self.rf.write(*rd, v);
                StepOutcome::RetiredClassical
            }
            Instruction::Xor { rd, rs, rt } => {
                let v = self.rf.read(*rs) ^ self.rf.read(*rt);
                self.rf.write(*rd, v);
                StepOutcome::RetiredClassical
            }
            Instruction::Load { rd, base, offset } => {
                let addr = i64::from(self.rf.read(*base)) + i64::from(*offset);
                let v = *self
                    .mem
                    .get(
                        usize::try_from(addr)
                            .ok()
                            .filter(|&a| a < self.mem.len())
                            .ok_or(ExecError::MemOutOfBounds {
                                addr,
                                size: self.mem.len(),
                            })?,
                    )
                    .expect("bounds checked");
                self.rf.write(*rd, v);
                StepOutcome::RetiredClassical
            }
            Instruction::Store { rs, base, offset } => {
                let addr = i64::from(self.rf.read(*base)) + i64::from(*offset);
                let idx = usize::try_from(addr)
                    .ok()
                    .filter(|&a| a < self.mem.len())
                    .ok_or(ExecError::MemOutOfBounds {
                        addr,
                        size: self.mem.len(),
                    })?;
                self.mem[idx] = self.rf.read(*rs);
                let bit = 1u64 << (idx % 64);
                if self.dirty_bits[idx / 64] & bit == 0 {
                    self.dirty_bits[idx / 64] |= bit;
                    self.dirty.push(idx as u32);
                }
                StepOutcome::RetiredClassical
            }
            Instruction::Beq { rs, rt, target } => {
                if self.rf.read(*rs) == self.rf.read(*rt) {
                    next_pc = *target;
                    self.stats.branches_taken += 1;
                }
                StepOutcome::RetiredClassical
            }
            Instruction::Bne { rs, rt, target } => {
                if self.rf.read(*rs) != self.rf.read(*rt) {
                    next_pc = *target;
                    self.stats.branches_taken += 1;
                }
                StepOutcome::RetiredClassical
            }
            Instruction::Jump { target } => {
                next_pc = *target;
                self.stats.branches_taken += 1;
                StepOutcome::RetiredClassical
            }
            Instruction::Halt => {
                self.halted = true;
                StepOutcome::Halted
            }
            Instruction::QNopReg { rs } => {
                let v = self.rf.read(*rs);
                if v < 0 {
                    return Err(ExecError::NegativeWait(v));
                }
                StepOutcome::ForwardedQuantum(Forwarded::Wait(v as u32))
            }
            _ => StepOutcome::ForwardedQuantum(Forwarded::At(self.pc)),
        };
        if !self.halted {
            if (next_pc as usize) > program.len() {
                return Err(ExecError::PcOutOfBounds(next_pc));
            }
            self.pc = next_pc;
            if (next_pc as usize) == program.len() {
                // Falling off the end halts, like an implicit `halt`.
                self.halted = true;
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quma_isa::prelude::Assembler;

    fn controller() -> ExecutionController {
        ExecutionController::new(64, 0, 0)
    }

    fn run_classical(src: &str) -> ExecutionController {
        run_on(controller(), src)
    }

    fn run_on(mut ec: ExecutionController, src: &str) -> ExecutionController {
        let prog = Assembler::new().assemble(src).unwrap();
        ec.load(&prog);
        let mut cycle = 0u64;
        while !ec.halted() {
            match ec.step(prog.instructions(), cycle, usize::MAX).unwrap() {
                StepOutcome::Busy(ready) => cycle = ready,
                _ => cycle += 1,
            }
            assert!(cycle < 1_000_000, "runaway program");
        }
        ec
    }

    #[test]
    fn logic_operations() {
        let ec = run_classical(
            "mov r1, 12
             mov r2, 10
             and r3, r1, r2
             or r4, r1, r2
             xor r5, r1, r2
             halt",
        );
        assert_eq!(ec.registers().read(Reg::r(3)), 8);
        assert_eq!(ec.registers().read(Reg::r(4)), 14);
        assert_eq!(ec.registers().read(Reg::r(5)), 6);
    }

    #[test]
    fn arithmetic_and_memory() {
        let ec = run_classical(
            "mov r1, 5\n\
             mov r2, 7\n\
             add r3, r1, r2\n\
             sub r4, r2, r1\n\
             addi r5, r3, -2\n\
             mov r6, 10\n\
             store r3, r6[0]\n\
             load r7, r6[0]\n\
             halt",
        );
        assert_eq!(ec.registers().read(Reg::r(3)), 12);
        assert_eq!(ec.registers().read(Reg::r(4)), 2);
        assert_eq!(ec.registers().read(Reg::r(5)), 10);
        assert_eq!(ec.registers().read(Reg::r(7)), 12);
        assert_eq!(ec.memory()[10], 12);
    }

    #[test]
    fn loop_with_bne() {
        let ec = run_classical(
            "mov r1, 0\n\
             mov r2, 100\n\
             Loop: addi r1, r1, 1\n\
             bne r1, r2, Loop\n\
             halt",
        );
        assert_eq!(ec.registers().read(Reg::r(1)), 100);
        assert_eq!(ec.stats().branches_taken, 99);
    }

    #[test]
    fn qnopreg_reads_register_at_issue() {
        let prog = Assembler::new()
            .assemble("mov r15, 40000\nQNopReg r15\nhalt")
            .unwrap();
        let mut ec = controller();
        ec.load(&prog);
        assert!(matches!(
            ec.step(prog.instructions(), 0, 8).unwrap(),
            StepOutcome::RetiredClassical
        ));
        match ec.step(prog.instructions(), 1, 8).unwrap() {
            StepOutcome::ForwardedQuantum(Forwarded::Wait(interval)) => {
                assert_eq!(interval, 40000)
            }
            other => panic!("expected Wait, got {other:?}"),
        }
    }

    #[test]
    fn negative_qnopreg_is_an_error() {
        let prog = Assembler::new()
            .assemble("mov r1, -5\nQNopReg r1\nhalt")
            .unwrap();
        let mut ec = controller();
        ec.load(&prog);
        ec.step(prog.instructions(), 0, 8).unwrap();
        assert_eq!(
            ec.step(prog.instructions(), 1, 8),
            Err(ExecError::NegativeWait(-5))
        );
    }

    #[test]
    fn backpressure_stalls_quantum_only() {
        let prog = Assembler::new()
            .assemble("mov r1, 1\nWait 4\nhalt")
            .unwrap();
        let mut ec = controller();
        ec.load(&prog);
        // Classical retires even with zero downstream space.
        assert!(matches!(
            ec.step(prog.instructions(), 0, 0).unwrap(),
            StepOutcome::RetiredClassical
        ));
        // Quantum stalls.
        assert_eq!(
            ec.step(prog.instructions(), 1, 0).unwrap(),
            StepOutcome::StalledBackpressure
        );
        assert_eq!(
            ec.step(prog.instructions(), 2, 1).unwrap(),
            StepOutcome::ForwardedQuantum(Forwarded::At(1)),
            "forwarded as its address"
        );
        assert_eq!(ec.stats().backpressure_stalls, 1);
    }

    #[test]
    fn pending_register_stalls_reader() {
        let prog = Assembler::new().assemble("add r2, r7, r7\nhalt").unwrap();
        let mut ec = controller();
        ec.load(&prog);
        ec.mark_pending(Reg::r(7));
        assert_eq!(
            ec.step(prog.instructions(), 0, 8).unwrap(),
            StepOutcome::StalledPending(Reg::r(7))
        );
        assert!(ec.has_pending());
        ec.complete_pending(Reg::r(7), 1);
        assert!(matches!(
            ec.step(prog.instructions(), 1, 8).unwrap(),
            StepOutcome::RetiredClassical
        ));
        assert_eq!(ec.registers().read(Reg::r(2)), 2);
    }

    #[test]
    fn waw_on_pending_register_stalls() {
        let prog = Assembler::new().assemble("mov r7, 3\nhalt").unwrap();
        let mut ec = controller();
        ec.load(&prog);
        ec.mark_pending(Reg::r(7));
        assert_eq!(
            ec.step(prog.instructions(), 0, 8).unwrap(),
            StepOutcome::StalledPending(Reg::r(7))
        );
        ec.complete_pending(Reg::r(7), 9);
        ec.step(prog.instructions(), 1, 8).unwrap();
        assert_eq!(ec.registers().read(Reg::r(7)), 3);
    }

    #[test]
    fn jitter_delays_but_preserves_results() {
        let src = "mov r1, 0\nmov r2, 10\nLoop: addi r1, r1, 1\nbne r1, r2, Loop\nhalt";
        let prog = Assembler::new().assemble(src).unwrap();
        let run = |jitter: u32, seed: u64| {
            let mut ec = ExecutionController::new(16, jitter, seed);
            ec.load(&prog);
            let mut cycle = 0u64;
            while !ec.halted() {
                match ec.step(prog.instructions(), cycle, usize::MAX).unwrap() {
                    StepOutcome::Busy(ready) => cycle = ready,
                    _ => cycle += 1,
                }
            }
            (ec.registers().read(Reg::r(1)), cycle)
        };
        let (r_nojit, c_nojit) = run(0, 1);
        let (r_jit, c_jit) = run(7, 99);
        assert_eq!(r_nojit, r_jit);
        assert!(c_jit > c_nojit, "jitter must slow execution down");
    }

    #[test]
    fn nonzero_words_are_sparse_and_load_clears_them() {
        // Stores straddle a 64-word bit boundary, hit one word twice and
        // write a zero; only the final nonzero words are reported.
        let mut ec = run_on(
            ExecutionController::new(128, 0, 0),
            "mov r1, 64\n\
             mov r2, -3\n\
             mov r3, 9\n\
             store r2, r1[0]\n\
             store r3, r1[-1]\n\
             store r3, r1[-59]\n\
             store r2, r1[-1]\n\
             store r0, r1[-59]\n\
             store r3, r1[-64]\n\
             halt",
        );
        assert_eq!(ec.nonzero_words(), vec![(0, 9), (63, -3), (64, -3)]);
        assert_eq!(ec.memory().iter().filter(|&&w| w != 0).count(), 3);
        ec.load(&Assembler::new().assemble("halt").unwrap());
        assert!(ec.nonzero_words().is_empty());
        assert!(ec.memory().iter().all(|&w| w == 0), "load clears memory");
    }

    #[test]
    fn memory_bounds_checked() {
        let prog = Assembler::new()
            .assemble("mov r1, 100\nload r2, r1[0]\nhalt")
            .unwrap();
        let mut ec = ExecutionController::new(16, 0, 0);
        ec.load(&prog);
        ec.step(prog.instructions(), 0, 8).unwrap();
        assert!(matches!(
            ec.step(prog.instructions(), 1, 8),
            Err(ExecError::MemOutOfBounds { addr: 100, .. })
        ));
    }

    #[test]
    fn falling_off_the_end_halts() {
        let prog = Assembler::new().assemble("mov r1, 1").unwrap();
        let mut ec = controller();
        ec.load(&prog);
        ec.step(prog.instructions(), 0, 8).unwrap();
        assert!(ec.halted());
    }

    #[test]
    fn empty_program_is_immediately_halted() {
        let mut ec = controller();
        ec.load(&Program::default());
        assert!(ec.halted());
        assert_eq!(ec.step(&[], 0, 8).unwrap(), StepOutcome::Halted);
    }
}

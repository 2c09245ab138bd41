//! The micro-operation unit (Section 5.3.2): translates each fired
//! micro-operation into a sequence of codeword triggers with predefined
//! relative timing.
//!
//! For each micro-operation `uOp_i` the unit stores a sequence
//! `Seq_i = ([0, cw0]; [Δt1, cw1]; [Δt2, cw2]; …)` of codewords and
//! inter-trigger intervals. When `uOp_i` fires at time `T`, codeword
//! `cw_j` is emitted at `T + Δ + Σ_{k≤j} Δt_k`, where `Δ` is the unit's
//! fixed processing delay. This lets QuMA emulate operations that are not
//! directly implementable as one primitive pulse — the paper's example is
//! `Z = X · Y`, realized as a Y pulse followed 4 cycles later by an X pulse.

use quma_isa::prelude::UopId;
use std::collections::{HashMap, VecDeque};

/// A codeword index into a CTPG lookup table.
pub type Codeword = u16;

/// A micro-operation's codeword sequence: `(Δt, codeword)` pairs where
/// `Δt` is the interval in cycles since the *previous* trigger in the
/// sequence (the first entry's `Δt` is relative to the fire time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodewordSeq(pub Vec<(u32, Codeword)>);

impl CodewordSeq {
    /// A single codeword at offset 0 (the common case: primitive µ-ops map
    /// straight to their codeword).
    pub fn immediate(cw: Codeword) -> Self {
        Self(vec![(0, cw)])
    }

    /// Total span in cycles from fire time to the last trigger.
    pub fn span(&self) -> u32 {
        self.0.iter().map(|&(dt, _)| dt).sum()
    }
}

/// A codeword trigger scheduled for emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodewordTrigger {
    /// Absolute cycle at which the trigger reaches the CTPG.
    pub cycle: u64,
    /// The codeword.
    pub codeword: Codeword,
}

/// The micro-operation unit of one AWG module.
#[derive(Debug, Clone)]
pub struct MicroOpUnit {
    seqs: HashMap<UopId, CodewordSeq>,
    /// Fixed processing delay Δ in cycles from µ-op fire to the first
    /// codeword trigger.
    delay: u32,
    /// Pending triggers in emission order: by absolute cycle, FIFO
    /// within a cycle.
    pending: VecDeque<CodewordTrigger>,
    emitted: u64,
}

impl MicroOpUnit {
    /// Creates a unit with processing delay `delay` cycles and no sequences.
    pub fn new(delay: u32) -> Self {
        Self {
            seqs: HashMap::new(),
            delay,
            pending: VecDeque::new(),
            emitted: 0,
        }
    }

    /// A unit pre-loaded with the identity mapping for the paper's Table 1:
    /// µ-op `i` → codeword `i` for the 7 primitives. ("Since the operations
    /// in the AllXY experiment are primitive, the micro-operation unit
    /// simply forwards the codewords", Section 8.)
    pub fn with_table1(delay: u32) -> Self {
        let mut u = Self::new(delay);
        for i in 0..7u8 {
            u.define(UopId(i), CodewordSeq::immediate(Codeword::from(i)));
        }
        u
    }

    /// Defines (or replaces) the codeword sequence for a µ-op.
    pub fn define(&mut self, uop: UopId, seq: CodewordSeq) {
        self.seqs.insert(uop, seq);
    }

    /// The sequence for a µ-op, if defined.
    pub fn sequence(&self, uop: UopId) -> Option<&CodewordSeq> {
        self.seqs.get(&uop)
    }

    /// The fixed processing delay Δ in cycles.
    pub fn delay(&self) -> u32 {
        self.delay
    }

    /// Total codeword triggers emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Fires micro-operation `uop` at absolute cycle `now`, scheduling its
    /// codeword triggers. Returns an error for undefined µ-ops.
    pub fn fire(&mut self, uop: UopId, now: u64) -> Result<(), UndefinedUop> {
        let seq = self.seqs.get(&uop).ok_or(UndefinedUop(uop))?;
        let mut at = now + u64::from(self.delay);
        for &(dt, codeword) in &seq.0 {
            at += u64::from(dt);
            let behind = self.pending.partition_point(|t| t.cycle <= at);
            self.pending.insert(
                behind,
                CodewordTrigger {
                    cycle: at,
                    codeword,
                },
            );
        }
        Ok(())
    }

    /// The cycle of the earliest pending trigger, if any.
    pub fn next_trigger_cycle(&self) -> Option<u64> {
        self.pending.front().map(|t| t.cycle)
    }

    /// Drains all triggers due at or before `now`, in (cycle, FIFO) order.
    pub fn drain_due(&mut self, now: u64) -> Vec<CodewordTrigger> {
        let mut out = Vec::new();
        self.drain_due_into(now, &mut out);
        out
    }

    /// Like [`MicroOpUnit::drain_due`], appending the triggers to `out`
    /// so a caller can reuse one buffer.
    pub(crate) fn drain_due_into(&mut self, now: u64, out: &mut Vec<CodewordTrigger>) {
        while self.pending.front().is_some_and(|t| t.cycle <= now) {
            out.push(self.pending.pop_front().expect("front checked"));
            self.emitted += 1;
        }
    }

    /// True when no triggers are pending.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// Discards all pending triggers (device reset between runs), keeping
    /// the defined sequences and the emitted counter.
    pub fn clear_pending(&mut self) {
        self.pending.clear();
    }
}

/// Error: a micro-operation with no defined codeword sequence was fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UndefinedUop(pub UopId);

impl std::fmt::Display for UndefinedUop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "micro-operation {} has no codeword sequence", self.0)
    }
}

impl std::error::Error for UndefinedUop {}

/// The paper's `Seq_Z`: a Z gate emulated as `Z = X·Y` — a Y(π) pulse at
/// offset 0 followed by an X(π) pulse 4 cycles later (using Table 1
/// codewords: Y(π) = 4, X(π) = 1).
///
/// Note: Section 5.3.2 prints the sequence as `([0, 1]; [4, 4])`, which
/// with Table 1's numbering would play X before Y and realize `Y·X = −Z`
/// with the opposite sign convention; since the paper's own decomposition
/// text says "a Y gate followed by an X gate", we implement that order.
/// EXPERIMENTS.md records the discrepancy.
pub fn seq_z() -> CodewordSeq {
    CodewordSeq(vec![(0, 4), (4, 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_sequence_fires_after_delay() {
        let mut u = MicroOpUnit::with_table1(2);
        u.fire(UopId(1), 100).unwrap();
        assert_eq!(u.next_trigger_cycle(), Some(102));
        let out = u.drain_due(102);
        assert_eq!(
            out,
            vec![CodewordTrigger {
                cycle: 102,
                codeword: 1
            }]
        );
        assert!(u.is_drained());
        assert_eq!(u.emitted(), 1);
    }

    #[test]
    fn zero_delay_forwards_codewords_like_allxy() {
        let mut u = MicroOpUnit::with_table1(0);
        u.fire(UopId(0), 40000).unwrap();
        let out = u.drain_due(40000);
        assert_eq!(out[0].cycle, 40000);
        assert_eq!(out[0].codeword, 0);
    }

    #[test]
    fn seq_z_emits_y_then_x() {
        let mut u = MicroOpUnit::with_table1(0);
        let z = UopId(7);
        u.define(z, seq_z());
        u.fire(z, 1000).unwrap();
        let out = u.drain_due(2000);
        assert_eq!(
            out,
            vec![
                CodewordTrigger {
                    cycle: 1000,
                    codeword: 4 // Y(π)
                },
                CodewordTrigger {
                    cycle: 1004,
                    codeword: 1 // X(π)
                },
            ]
        );
        assert_eq!(u.sequence(z).unwrap().span(), 4);
    }

    #[test]
    fn undefined_uop_is_an_error() {
        let mut u = MicroOpUnit::with_table1(0);
        assert_eq!(u.fire(UopId(42), 0), Err(UndefinedUop(UopId(42))));
    }

    #[test]
    fn drain_respects_now() {
        let mut u = MicroOpUnit::with_table1(0);
        u.define(UopId(7), seq_z());
        u.fire(UopId(7), 0).unwrap();
        let first = u.drain_due(0);
        assert_eq!(first.len(), 1);
        assert!(!u.is_drained());
        assert_eq!(u.next_trigger_cycle(), Some(4));
        let second = u.drain_due(10);
        assert_eq!(second.len(), 1);
        assert!(u.is_drained());
    }

    #[test]
    fn simultaneous_triggers_keep_fifo_order() {
        let mut u = MicroOpUnit::new(0);
        u.define(UopId(0), CodewordSeq::immediate(10));
        u.define(UopId(1), CodewordSeq::immediate(11));
        u.fire(UopId(0), 5).unwrap();
        u.fire(UopId(1), 5).unwrap();
        let out = u.drain_due(5);
        assert_eq!(out[0].codeword, 10);
        assert_eq!(out[1].codeword, 11);
    }

    #[test]
    fn overlapping_sequences_interleave_by_cycle() {
        let mut u = MicroOpUnit::new(0);
        u.define(UopId(0), CodewordSeq(vec![(0, 1), (8, 2)]));
        u.define(UopId(1), CodewordSeq::immediate(3));
        u.fire(UopId(0), 0).unwrap();
        u.fire(UopId(1), 4).unwrap();
        let out = u.drain_due(100);
        let cws: Vec<_> = out.iter().map(|t| (t.cycle, t.codeword)).collect();
        assert_eq!(cws, vec![(0, 1), (4, 3), (8, 2)]);
    }
}

//! Differential properties pinning the N-qubit chip refactor to the
//! frozen PR-2 pair chip ([`quma_qsim::pair_reference`]), plus the QEC
//! invariant that syndrome extraction leaves distant data qubits alone.

use proptest::prelude::*;
use quma_qsim::chip::{ChipBackend, QuantumChip};
use quma_qsim::complex::C64;
use quma_qsim::pair_reference::PairReferenceChip;
use std::f64::consts::PI;

const DT: f64 = 1e-9;
const N_SAMP: usize = 20;

/// One step of a random single/two-qubit control sequence.
#[derive(Debug, Clone)]
enum Op {
    /// Drive `qubit` with a constant-envelope SSB pulse of `amp` ∈ [0,1]
    /// and carrier phase `phase`.
    Drive { qubit: usize, amp: f64, phase: f64 },
    /// Measure `qubit` (projection + readout trace).
    Measure { qubit: usize },
    /// CZ flux pulse on a pair (only generated by the pair strategy).
    Cz { a: usize, b: usize },
}

fn arb_op(qubits: usize, with_cz_pair: Option<(usize, usize)>) -> BoxedStrategy<Op> {
    let drive = (0..qubits, 0.0f64..1.0, -3.2f64..3.2)
        .prop_map(|(qubit, amp, phase)| Op::Drive { qubit, amp, phase })
        .boxed();
    let measure = (0..qubits).prop_map(|qubit| Op::Measure { qubit }).boxed();
    match with_cz_pair {
        Some((a, b)) => prop_oneof![drive, measure, Just(Op::Cz { a, b }).boxed()].boxed(),
        None => prop_oneof![drive, measure].boxed(),
    }
}

/// Constant-amplitude pulse premodulated at the qubit's SSB frequency.
fn pulse(amp: f64, phase: f64, ssb: f64, start: f64) -> Vec<C64> {
    (0..N_SAMP)
        .map(|k| {
            let t = start + (k as f64 + 0.5) * DT;
            C64::from_polar(amp, -2.0 * PI * ssb * t + phase)
        })
        .collect()
}

/// Generates `apply_new` / `apply_ref` from one body, so the two chips
/// are guaranteed to receive identical operations: a divergence here
/// would silently weaken the differential property.
macro_rules! apply_op {
    ($name:ident, $chip:ty) => {
        /// Applies `op` at time `t`, returning what a measurement saw.
        fn $name(chip: &mut $chip, op: &Op, t: f64) -> Option<(Vec<f64>, u8)> {
            match *op {
                Op::Drive { qubit, amp, phase } => {
                    let ssb = chip.qubit(qubit).transmon.params().ssb_frequency;
                    chip.drive(qubit, &pulse(amp, phase, ssb, t), t, DT);
                    None
                }
                Op::Measure { qubit } => {
                    let (trace, bit) = chip.measure_with_truth(qubit, t, 0.3e-6);
                    Some((trace.samples, bit))
                }
                Op::Cz { a, b } => {
                    chip.apply_cz(a, b, t, 40e-9);
                    None
                }
            }
        }
    };
}

apply_op!(apply_new, QuantumChip);
apply_op!(apply_ref, PairReferenceChip);

/// Sequential op times far enough apart that every op's window closed.
fn time_of(step: usize) -> f64 {
    step as f64 * 0.5e-6
}

proptest! {
    /// Uncoupled qubits must be **bit-identical** between the chips: the
    /// single-qubit paths are untouched and both chips consume the RNG in
    /// the same order.
    #[test]
    fn uncoupled_sequences_bit_identical_to_pair_chip(
        seed in proptest::strategy::any::<u64>(),
        ops in proptest::collection::vec(arb_op(3, None), 1..24),
    ) {
        let mut new_chip = QuantumChip::paper_device(3, seed);
        let mut ref_chip = PairReferenceChip::paper_device(3, seed);
        for (step, op) in ops.iter().enumerate() {
            let t = time_of(step);
            let a = apply_new(&mut new_chip, op, t);
            let b = apply_ref(&mut ref_chip, op, t);
            match (a, b) {
                (Some((ta, oa)), Some((tb, ob))) => {
                    prop_assert_eq!(oa, ob, "outcome at step {}", step);
                    prop_assert_eq!(ta, tb, "trace at step {}", step);
                }
                (None, None) => {}
                other => prop_assert!(false, "mismatched op result {:?}", other.0.is_some()),
            }
        }
        for q in 0..3 {
            let (pa, pb) = (new_chip.p1(q), ref_chip.p1(q));
            prop_assert_eq!(pa.to_bits(), pb.to_bits(), "p1(q{}) bits", q);
        }
    }

    /// Sequences whose CZs stay on one fixed pair reproduce the pair
    /// chip's outcomes and populations (same physics through the general
    /// register algebra).
    #[test]
    fn pair_cz_sequences_match_pair_chip(
        seed in proptest::strategy::any::<u64>(),
        ops in proptest::collection::vec(arb_op(2, Some((0, 1))), 1..20),
    ) {
        let mut new_chip = QuantumChip::ideal_device(2, seed);
        let mut ref_chip = PairReferenceChip::ideal_device(2, seed);
        for q in 0..2 {
            new_chip.qubit_mut(q).transmon.params_mut().rabi_coefficient = PI / 20e-9;
            ref_chip.qubit_mut(q).transmon.params_mut().rabi_coefficient = PI / 20e-9;
        }
        for (step, op) in ops.iter().enumerate() {
            let t = time_of(step);
            let a = apply_new(&mut new_chip, op, t);
            let b = apply_ref(&mut ref_chip, op, t);
            if let (Some((_, oa)), Some((_, ob))) = (a, b) {
                prop_assert_eq!(oa, ob, "outcome at step {}", step);
            }
        }
        for q in 0..2 {
            // The register algebra takes a different floating-point path
            // than the fixed 4×4 code (extract/re-product on measure), so
            // populations agree to ~1e-8, not bitwise.
            prop_assert!(
                (new_chip.p1(q) - ref_chip.p1(q)).abs() < 1e-7,
                "p1(q{}) {} vs {}", q, new_chip.p1(q), ref_chip.p1(q)
            );
        }
    }

    /// Syndrome extraction must project *only* along the measured parity:
    /// a data qubit outside the ancilla's coupling chain keeps its exact
    /// reduced state through the whole round.
    #[test]
    fn syndrome_measurement_leaves_distant_qubits_untouched(
        seed in proptest::strategy::any::<u64>(),
        amp0 in 0.0f64..1.0,
        amp2 in 0.0f64..1.0,
        amp4 in 0.0f64..1.0,
        phase4 in -3.2f64..3.2,
    ) {
        // Layout d0=q0, a=q1, d1=q2, distant spectator d2=q4.
        let mut chip = QuantumChip::ideal_device(5, seed);
        for q in 0..5 {
            chip.qubit_mut(q).transmon.params_mut().rabi_coefficient = PI / 20e-9;
        }
        for (q, amp, phase) in [(0, amp0, 0.0), (2, amp2, 0.0), (4, amp4, phase4)] {
            let ssb = chip.qubit(q).transmon.params().ssb_frequency;
            chip.drive(q, &pulse(amp, phase, ssb, 0.0), 0.0, DT);
        }
        let spectator_before = chip.reduced_state(4);
        // Parity check of (q0, q2) via ancilla q1.
        let ssb = chip.qubit(1).transmon.params().ssb_frequency;
        chip.drive(1, &pulse(0.5, PI / 2.0, ssb, 1e-6), 1e-6, DT); // ~mY90
        chip.apply_cz(0, 1, 1.2e-6, 40e-9);
        chip.apply_cz(2, 1, 1.4e-6, 40e-9);
        chip.drive(1, &pulse(0.5, -PI / 2.0, ssb, 1.6e-6), 1.6e-6, DT); // ~Y90
        let (_, _syndrome) = chip.measure_with_truth(1, 2e-6, 0.3e-6);
        // The spectator was never in the chain: exact same reduced state.
        let spectator_after = chip.reduced_state(4);
        prop_assert!(
            spectator_after.trace_distance(&spectator_before) < 1e-12,
            "spectator moved by {}",
            spectator_after.trace_distance(&spectator_before)
        );
        // The measured ancilla left its register; data stay joined.
        prop_assert!(!chip.is_coupled(1));
        prop_assert!(!chip.is_coupled(4));
    }

    /// With computational-basis data, the syndrome equals the parity and
    /// the data values survive unchanged — the repetition-code contract.
    #[test]
    fn computational_basis_syndrome_reads_parity(
        seed in proptest::strategy::any::<u64>(),
        b0 in proptest::strategy::any::<bool>(),
        b1 in proptest::strategy::any::<bool>(),
    ) {
        let mut chip = QuantumChip::ideal_device(3, seed);
        for q in 0..3 {
            chip.qubit_mut(q).transmon.params_mut().rabi_coefficient = PI / 20e-9;
        }
        for (q, bit) in [(0usize, b0), (2, b1)] {
            if bit {
                let ssb = chip.qubit(q).transmon.params().ssb_frequency;
                chip.drive(q, &pulse(1.0, 0.0, ssb, 0.0), 0.0, DT);
            }
        }
        let ssb = chip.qubit(1).transmon.params().ssb_frequency;
        chip.drive(1, &pulse(0.5, PI / 2.0, ssb, 1e-6), 1e-6, DT);
        chip.apply_cz(0, 1, 1.2e-6, 40e-9);
        chip.apply_cz(2, 1, 1.4e-6, 40e-9);
        chip.drive(1, &pulse(0.5, -PI / 2.0, ssb, 1.6e-6), 1.6e-6, DT);
        let (_, syndrome) = chip.measure_with_truth(1, 2e-6, 0.3e-6);
        prop_assert_eq!(syndrome, u8::from(b0 != b1), "parity of {} {}", b0, b1);
        // `Decoherence::ideal()` is T1 = 1000 s, not infinity: ~2 µs of
        // circuit time costs ~2e-9 of population, so compare to 1e-7.
        prop_assert!(
            (chip.p1(0) - f64::from(u8::from(b0))).abs() < 1e-7,
            "b0={} b1={} p1(0)={} p1(2)={} syndrome={}",
            b0, b1, chip.p1(0), chip.p1(2), syndrome
        );
        prop_assert!((chip.p1(2) - f64::from(u8::from(b1))).abs() < 1e-7);
    }
}

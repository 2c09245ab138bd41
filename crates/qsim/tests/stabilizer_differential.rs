//! Differential suite pinning the stabilizer fast path to the exact
//! register chip: identical pulse streams and shared RNG seeds must give
//! bit-identical outcome streams on both backends for Clifford circuits.
//! The repetition-code round at distance 3 is checked explicitly, seeded
//! X-error injection is checked to match shot statistics, and random
//! Clifford+measure circuits are checked by property — including the
//! randomized-benchmarking invariant that the [`CliffordGroup::recovery`]
//! element returns every sequence to a deterministic ground-state
//! readout.

use proptest::prelude::*;
use quma_qsim::chip::{ChipBackend, QuantumChip};
use quma_qsim::clifford::CliffordGroup;
use quma_qsim::complex::C64;
use quma_qsim::gates::PrimitiveGate;
use quma_qsim::stabilizer::StabilizerChip;
use quma_qsim::transmon::{rotation_from_pulse, TransmonParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

const DT: f64 = 1e-9;
const N_SAMP: usize = 20;
/// Gap between consecutive primitive pulses within one circuit step.
const PULSE_PITCH: f64 = 25e-9;
/// Gap between circuit steps (long enough for a measurement window).
const STEP_PITCH: f64 = 0.5e-6;

fn calibrated_params() -> TransmonParams {
    let mut p = TransmonParams::ideal();
    p.rabi_coefficient = PI / 20e-9;
    p
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

/// The (amplitude, carrier-phase) pair realizing `gate` on a calibrated
/// qubit, found by demodulating each candidate and matching the
/// rotation — so the mapping is pinned to the physics, not to a naming
/// convention.
fn drive_params_for(gate: PrimitiveGate) -> (f64, f64) {
    let params = calibrated_params();
    let candidates = [
        (0.5, 0.0),
        (0.5, PI / 2.0),
        (0.5, -PI / 2.0),
        (0.5, PI),
        (1.0, 0.0),
        (1.0, PI / 2.0),
    ];
    let start = 1e-6;
    for (amp, phase) in candidates {
        let p = pulse(amp, phase, params.ssb_frequency, start);
        let u = rotation_from_pulse(&params, &p, start, DT);
        if u.approx_eq_up_to_phase(&gate.matrix(), 1e-6) {
            return (amp, phase);
        }
    }
    panic!("no constant-envelope pulse realizes {gate:?}");
}

/// Applies group element `index` to qubit `q` on `chip` through its
/// shortest primitive-pulse decomposition, starting at `t0`.
fn drive_element(
    chip: &mut dyn ChipBackend,
    group: &CliffordGroup,
    index: usize,
    q: usize,
    t0: f64,
) {
    for (k, &gate) in group.element(index).pulses.iter().enumerate() {
        let (amp, phase) = drive_params_for(gate);
        let ssb = chip.qubit(q).transmon.params().ssb_frequency;
        let t = t0 + k as f64 * PULSE_PITCH;
        chip.drive(q, &pulse(amp, phase, ssb, t), t, DT);
    }
}

fn x180(chip: &mut dyn ChipBackend, q: usize, t0: f64) {
    let (amp, phase) = drive_params_for(PrimitiveGate::X180);
    let ssb = chip.qubit(q).transmon.params().ssb_frequency;
    chip.drive(q, &pulse(amp, phase, ssb, t0), t0, DT);
}

fn y90(chip: &mut dyn ChipBackend, q: usize, t0: f64, sign: f64) {
    let ssb = chip.qubit(q).transmon.params().ssb_frequency;
    chip.drive(q, &pulse(0.5, sign * PI / 2.0, ssb, t0), t0, DT);
}

fn exact_chip(n: usize, seed: u64) -> QuantumChip {
    let mut c = QuantumChip::ideal_device(n, seed);
    for q in 0..n {
        *c.qubit_mut(q).transmon.params_mut() = calibrated_params();
    }
    c
}

fn fast_chip(n: usize, seed: u64) -> StabilizerChip {
    let mut c = StabilizerChip::ideal_device(n, seed);
    for q in 0..n {
        *c.qubit_mut(q).transmon.params_mut() = calibrated_params();
    }
    c
}

/// One distance-3 repetition-code shot at the chip level: `rounds`
/// syndrome-extraction rounds (data q0/q2/q4, ancillas q1/q3) followed by
/// a final data readout. Injected Xs are (round, data-index) pairs.
/// Returns every outcome bit and every analog trace sample, in order.
fn d3_shot(
    chip: &mut dyn ChipBackend,
    rounds: usize,
    injections: &[(usize, usize)],
) -> (Vec<u8>, Vec<f64>) {
    let data = [0usize, 2, 4];
    let mut bits = Vec::new();
    let mut trace = Vec::new();
    let mut step = 0usize;
    let mut t = || {
        step += 1;
        step as f64 * STEP_PITCH
    };
    for round in 0..rounds {
        for (j, &d) in data.iter().enumerate() {
            if injections.contains(&(round, j)) {
                x180(chip, d, t());
            }
        }
        for anc in [1usize, 3] {
            y90(chip, anc, t(), -1.0);
            chip.apply_cz(anc - 1, anc, t(), 40e-9);
            chip.apply_cz(anc + 1, anc, t(), 40e-9);
            y90(chip, anc, t(), 1.0);
        }
        for anc in [1usize, 3] {
            let (tr, bit) = chip.measure_with_truth(anc, t(), 0.3e-6);
            bits.push(bit);
            trace.extend(tr.samples);
            // Active ancilla reset, as the compiled QEC program does.
            if bit == 1 {
                x180(chip, anc, t());
            }
        }
    }
    for &d in &data {
        let (tr, bit) = chip.measure_with_truth(d, t(), 0.3e-6);
        bits.push(bit);
        trace.extend(tr.samples);
    }
    (bits, trace)
}

#[test]
fn noiseless_d3_rounds_bit_identical_to_exact_chip() {
    for seed in [1u64, 7, 42] {
        let (exact_bits, exact_trace) = d3_shot(&mut exact_chip(5, seed), 2, &[]);
        let (fast_bits, fast_trace) = d3_shot(&mut fast_chip(5, seed), 2, &[]);
        assert_eq!(exact_bits, fast_bits, "outcome stream, seed {seed}");
        assert_eq!(exact_trace, fast_trace, "trace stream, seed {seed}");
        // Clean rounds: all syndromes and data bits are zero.
        assert!(fast_bits.iter().all(|&b| b == 0), "seed {seed}");
    }
}

/// Readout noise is only drawn on request, but the RNG stream must not
/// depend on the request: after `measure_into(.., None)` the next
/// projection and noise draws are bit-identical to those after
/// `measure_into(.., Some(buf))`, on both backends, for an even window and
/// an odd one (whose discarded Box–Muller half must be stepped past too).
#[test]
fn skipped_readout_noise_leaves_the_rng_stream_unchanged() {
    type MakeChip = fn(u64) -> Box<dyn ChipBackend>;
    let backends: [(&str, MakeChip); 2] = [
        ("exact", |seed| Box::new(exact_chip(1, seed))),
        ("stabilizer", |seed| Box::new(fast_chip(1, seed))),
    ];
    for (name, make) in backends {
        for (duration, samples) in [(1.5e-6, 1500), (0.385e-6, 385)] {
            for seed in [3u64, 11, 29] {
                // With `skip`, even steps ask for no noise; odd steps
                // always draw. Returns every outcome and every drawn window.
                let run = |skip: bool| {
                    let mut chip = make(seed);
                    assert_eq!(chip.qubit(0).readout.samples_in(duration), samples);
                    let mut outcomes = Vec::new();
                    let mut windows = Vec::new();
                    for step in 0..8 {
                        let t = step as f64 * 2e-6;
                        y90(chip.as_mut(), 0, t, 1.0);
                        let mut noise = Vec::new();
                        let skipped = skip && step % 2 == 0;
                        let want = (!skipped).then_some(&mut noise);
                        outcomes.push(chip.measure_into(0, t + 30e-9, duration, want));
                        if !skipped {
                            assert_eq!(noise.len(), samples);
                            windows.push(noise.iter().map(|n| n.to_bits()).collect::<Vec<_>>());
                        }
                    }
                    (outcomes, windows)
                };
                let (drawn_bits, drawn_noise) = run(false);
                let (skipped_bits, skipped_noise) = run(true);
                let tag = format!("{name} chip, {samples} samples, seed {seed}");
                assert_eq!(skipped_bits, drawn_bits, "outcomes, {tag}");
                assert!(drawn_bits.contains(&0) && drawn_bits.contains(&1), "{tag}");
                let odd_windows: Vec<_> = drawn_noise.iter().skip(1).step_by(2).cloned().collect();
                assert_eq!(skipped_noise, odd_windows, "noise after a skip, {tag}");
            }
        }
    }
}

#[test]
fn seeded_x_injection_matches_exact_chip_statistics() {
    // Error patterns drawn from a fixed host seed: each backend sees the
    // same injected pulses and the same chip seed, so syndrome streams
    // agree bit-for-bit and the aggregated logical-error statistics are
    // identical — and a second pass reproduces them exactly.
    let run_all = || {
        let mut host = StdRng::seed_from_u64(0x5EED);
        let mut syndromes = Vec::new();
        let mut logical_errors = 0u32;
        for trial in 0..10u64 {
            let injections: Vec<(usize, usize)> = (0..2)
                .flat_map(|round| (0..3).map(move |data| (round, data)))
                .filter(|_| host.random::<f64>() < 0.3)
                .collect();
            let (exact_bits, _) = d3_shot(&mut exact_chip(5, trial), 2, &injections);
            let (fast_bits, _) = d3_shot(&mut fast_chip(5, trial), 2, &injections);
            assert_eq!(exact_bits, fast_bits, "trial {trial} {injections:?}");
            let data_ones: u8 = fast_bits[fast_bits.len() - 3..].iter().sum();
            logical_errors += u32::from(data_ones >= 2);
            syndromes.push(fast_bits);
        }
        (syndromes, logical_errors)
    };
    let (syndromes_a, errors_a) = run_all();
    let (syndromes_b, errors_b) = run_all();
    assert_eq!(syndromes_a, syndromes_b, "re-run must reproduce");
    assert_eq!(errors_a, errors_b);
    assert!(
        syndromes_a.iter().flatten().any(|&b| b == 1),
        "a 0.3 rate over 10 trials must fire at least one syndrome"
    );
}

proptest! {
    // The exact chip pays a state-vector price per op, so keep the case
    // count modest; the circuits themselves are drawn wide.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random Clifford+measure circuits on 3 qubits (with CZs coupling
    /// them): the stabilizer backend's outcome stream equals the exact
    /// backend's bit-for-bit under a shared seed.
    #[test]
    fn random_clifford_measure_circuits_agree(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            prop_oneof![
                4 => (0usize..3, 0usize..24).prop_map(|(q, c)| (0usize, q, c)),
                2 => (0usize..3).prop_map(|q| (1usize, q, 0usize)),
                1 => Just((2usize, 0usize, 0usize)),
            ],
            1..16,
        ),
    ) {
        let group = CliffordGroup::generate();
        let mut exact = exact_chip(3, seed);
        let mut fast = fast_chip(3, seed);
        for (step, &(kind, q, c)) in ops.iter().enumerate() {
            let t = (step + 1) as f64 * STEP_PITCH;
            match kind {
                0 => {
                    drive_element(&mut exact, &group, c, q, t);
                    drive_element(&mut fast, &group, c, q, t);
                }
                1 => {
                    let (te, oe) = exact.measure_with_truth(q, t, 0.3e-6);
                    let (tf, of) = fast.measure_with_truth(q, t, 0.3e-6);
                    prop_assert_eq!(oe, of, "outcome at step {}", step);
                    prop_assert_eq!(te.samples, tf.samples, "trace at step {}", step);
                }
                _ => {
                    exact.apply_cz(0, 1, t, 40e-9);
                    fast.apply_cz(0, 1, t, 40e-9);
                }
            }
        }
    }

    /// The randomized-benchmarking contract, on both backends at once: a
    /// random single-qubit Clifford word followed by its
    /// [`CliffordGroup::recovery`] element is the identity, so the final
    /// measurement is deterministically 0 — no RNG draw disagreement
    /// possible, any mismatch is a composition or recognition bug.
    #[test]
    fn recovery_word_returns_both_backends_to_ground(
        seed in any::<u64>(),
        word in proptest::collection::vec(0usize..24, 1..12),
    ) {
        let group = CliffordGroup::generate();
        let mut exact = exact_chip(1, seed);
        let mut fast = fast_chip(1, seed);
        for (step, &c) in word.iter().enumerate() {
            let t = (step + 1) as f64 * STEP_PITCH;
            drive_element(&mut exact, &group, c, 0, t);
            drive_element(&mut fast, &group, c, 0, t);
        }
        let t = (word.len() + 1) as f64 * STEP_PITCH;
        let recovery = group.recovery(&word);
        drive_element(&mut exact, &group, recovery, 0, t);
        drive_element(&mut fast, &group, recovery, 0, t);
        let (_, oe) = exact.measure_with_truth(0, t + STEP_PITCH, 0.3e-6);
        let (_, of) = fast.measure_with_truth(0, t + STEP_PITCH, 0.3e-6);
        prop_assert_eq!(oe, 0, "exact chip must return to |0>");
        prop_assert_eq!(of, 0, "stabilizer chip must return to |0>");
    }
}

//! The discrimination unit's fast path against its exact one: a window
//! discriminated from its raw RNG words (fast Box–Muller pairs, settled by
//! an error bracket, exact pairs only at a code edge) must give the same
//! `S_q` bits and bit as one discriminated from the exact Box–Muller noise
//! of those words, for either outcome. Release builds run the full
//! million windows (CI's `readout-bit-identity` step); debug builds a
//! smaller slice of the same streams.

use quma_core::mdu::MeasurementDiscriminationUnit;
use quma_qsim::normal::box_muller;
use quma_qsim::resonator::{synthesize_trace, ReadoutParams};
use quma_signal::adc::Adc;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The exact noise `words` define: one Box–Muller draw per sample.
fn exact_noise(words: &[u64], samples: usize) -> Vec<f64> {
    words
        .chunks_exact(2)
        .flat_map(|pair| box_muller(pair[0], pair[1]))
        .take(samples)
        .collect()
}

/// Compares both paths on `windows` windows of `mdu`'s length drawn from
/// a stream seeded with `seed`, for both outcomes; returns the fallbacks.
fn compare_windows(
    mdu: &MeasurementDiscriminationUnit,
    samples: usize,
    windows: u64,
    seed: u64,
) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut words = vec![0; 2 * samples.div_ceil(2)];
    let mut fallbacks = 0;
    for window in 0..windows {
        words.iter_mut().for_each(|w| *w = rng.next_u64());
        let noise = exact_noise(&words, samples);
        for outcome in [0, 1] {
            let exact = mdu.discriminate(outcome, &noise);
            let (fast, open) = mdu.discriminate_words(outcome, &words);
            assert_eq!(
                (fast.s.to_bits(), fast.bit),
                (exact.s.to_bits(), exact.bit),
                "seed {seed}, window {window}, outcome {outcome}"
            );
            fallbacks += open;
        }
    }
    fallbacks
}

#[test]
fn words_path_matches_the_exact_noise_on_a_million_paper_windows() {
    let windows: u64 = if cfg!(debug_assertions) {
        2_000
    } else {
        1_000_000
    };
    let readout = ReadoutParams::paper_default();
    let mdu = MeasurementDiscriminationUnit::calibrate(&readout, 1.5e-6);
    // Two threads, each over its own stream.
    let mdu = &mdu;
    let fallbacks: u64 = std::thread::scope(|scope| {
        [0x5EED_u64, 0xFA57]
            .map(|seed| scope.spawn(move || compare_windows(mdu, 1500, windows / 2, seed)))
            .into_iter()
            .map(|run| run.join().expect("no mismatch"))
            .sum()
    });
    // An open bracket is a one-in-10¹¹ event per sample here.
    assert!(fallbacks <= 2, "{fallbacks} fallbacks");

    // An odd window: the last pair's second half is drawn but unused.
    let odd = MeasurementDiscriminationUnit::calibrate(&readout, 0.385e-6);
    compare_windows(&odd, 385, windows / 100, 0x0DD);
}

/// Templates whose samples sit on code edges once the exact noise of
/// `words` is added: every fast bracket straddles its edge, so every
/// sample falls back to the exact pair.
fn templates_on_edges(words: &[u64], samples: usize, sigma: f64) -> MeasurementDiscriminationUnit {
    let noise = exact_noise(words, samples);
    let edges = Adc::paper_acquisition().code_edges();
    let on_edges = |offset: usize| -> Vec<f64> {
        noise
            .iter()
            .enumerate()
            .map(|(k, n)| edges[1 + (k * 37 + offset) % (edges.len() - 2)] - sigma * n)
            .collect()
    };
    MeasurementDiscriminationUnit::from_templates(on_edges(3), on_edges(150), sigma)
}

/// Words whose 53 uniform bits are 0 (clamped to `f64::MIN_POSITIVE`),
/// 1, or all ones, in every combination, repeated over `samples`.
fn extreme_words(samples: usize) -> Vec<u64> {
    let extremes = [0, 1 << 11, u64::MAX];
    let pairs = extremes
        .iter()
        .flat_map(|&a| extremes.iter().map(move |&b| [a, b]));
    pairs
        .cycle()
        .flatten()
        .take(2 * samples.div_ceil(2))
        .collect()
}

#[test]
fn samples_on_code_edges_and_extreme_words_fall_back_to_the_exact_pair() {
    let sigma = ReadoutParams::paper_default().noise_sigma;
    let mut rng = StdRng::seed_from_u64(0xED6E);
    let mut total = 0;
    for (samples, sigma) in [(1500usize, sigma), (385, sigma), (1500, -sigma)] {
        let random: Vec<u64> = (0..2 * samples.div_ceil(2))
            .map(|_| rng.next_u64())
            .collect();
        for words in [random, extreme_words(samples)] {
            let mdu = templates_on_edges(&words, samples, sigma);
            let noise = exact_noise(&words, samples);
            for outcome in [0, 1] {
                let exact = mdu.discriminate(outcome, &noise);
                let (fast, fallbacks) = mdu.discriminate_words(outcome, &words);
                assert_eq!((fast.s.to_bits(), fast.bit), (exact.s.to_bits(), exact.bit));
                assert_eq!(fallbacks, samples as u64, "every sample is on an edge");
                total += fallbacks;
            }
        }
    }
    assert!(total >= 100);

    // The extreme words on the `Paper` chain's own templates.
    let readout = ReadoutParams::paper_default();
    for window in [1.5e-6, 0.385e-6] {
        let samples = readout.samples_in(window);
        let mdu = MeasurementDiscriminationUnit::calibrate(&readout, window);
        let words = extreme_words(samples);
        let noise = exact_noise(&words, samples);
        for outcome in [0, 1] {
            let exact = mdu.discriminate(outcome, &noise);
            let (fast, _) = mdu.discriminate_words(outcome, &words);
            assert_eq!((fast.s.to_bits(), fast.bit), (exact.s.to_bits(), exact.bit));
        }
    }
    // A negative σ swaps which bracket end gives the lower sample.
    let t = |s| synthesize_trace(&readout, s, 1.5e-6, || 0.0).samples;
    let negative = MeasurementDiscriminationUnit::from_templates(t(0), t(1), -readout.noise_sigma);
    compare_windows(&negative, 1500, 200, 0x516);

    // Calibrating from templates is calibrating from the chain.
    let from = MeasurementDiscriminationUnit::from_templates(t(0), t(1), readout.noise_sigma);
    let calibrated = MeasurementDiscriminationUnit::calibrate(&readout, 1.5e-6);
    assert_eq!(from.discriminator(), calibrated.discriminator());
}

//! The measurement discrimination unit (Sections 4.2.1, 5.1.2):
//! hardware-based weighted integration and thresholding of readout traces,
//! replacing the slow software path so real-time feedback is possible.
//!
//! A readout trace is the projected state's noiseless template plus
//! `noise_sigma` times one standard-normal draw per sample (see
//! [`quma_qsim::resonator`]). Calibration already synthesizes both
//! templates to derive the weights, so the unit keeps them and
//! discriminates a window from the chip's outcome and noise alone: each
//! sample is rebuilt, digitized by the acquisition ADC and weighted, in
//! sample order. That is the same f64 arithmetic as synthesizing the
//! trace, digitizing it and integrating it — the result is bit for bit
//! the same — without a trace or a cosine per sample.
//!
//! ## Codes from raw RNG words
//!
//! The chip hands out the window's raw RNG words, not its normals
//! ([`quma_qsim::chip::ChipBackend::measure_words`]): sample `k`'s noise
//! `n` is a component of the exact libm Box–Muller pair [`box_muller`] of
//! its two words.
//! [`MeasurementDiscriminationUnit::discriminate_words`] computes the
//! table-driven pair [`box_muller_fast`] instead, whose components `n′`
//! lie within `E =` [`FAST_ERROR`] `= 2⁻⁴⁰ ≈ 9.1·10⁻¹³` of `n` for every
//! pair of words: the error budget is about `3·10⁻¹⁴`, and the largest
//! distance measured, `3.6·10⁻¹⁵`, is 256 times below `E` (see
//! [`quma_qsim::normal`]).
//!
//! That is enough to get every code exactly. The sample `v = t + σ·n` is
//! monotone in `n` under IEEE rounding (non-decreasing for `σ ≥ 0`,
//! non-increasing for a negative `σ`) and [`Adc::sample`] is monotone
//! non-decreasing in `v`, so the code of every `n` in the bracket
//! `[n′ − E, n′ + E]` lies between the codes of its two ends. When both
//! ends give one code, that is the exact `n`'s code, with no libm call.
//! (The ends are computed in f64, but their rounding is far below the
//! margin between `E` and the error.) [`Adc::code_edges`] makes the test
//! two comparisons: the ends share code `c` exactly when the lower sample
//! is at least `c`'s edge and the upper one below the next edge. Only a
//! sample whose bracket straddles a code edge calls the exact pair, about
//! one in 10¹¹ on the `Paper` chain (`RunStats::readout_fallbacks` counts
//! them). Then `S_q = Σ volts(code_k)·w_k` is summed in the same order as
//! [`MeasurementDiscriminationUnit::discriminate`] sums it, so every
//! result is the exact one, bit for bit. A window costs about 2.4 times
//! less than with the exact pair per sample.
//!
//! A noiseless chain (`noise_sigma == 0`) is decided at calibration: the
//! unit integrates both templates once and stores the two results, and
//! the control box asks the chip for no words at all (the chip jumps its
//! RNG past them). That is exact, not an approximation. A Box–Muller
//! draw is finite (`|n| ≤ √(−2 ln f64::MIN_POSITIVE) ≈ 37.6`), so `0·n`
//! is `±0`; `t + ±0` equals `t` up to the sign of zero; and the ADC
//! returns an `i32` code, which has no signed zero. Every sample's code,
//! hence `S_q`, is the noiseless template's, bit for bit, whatever the
//! noise.

use quma_qsim::normal::{box_muller, box_muller_fast, FAST_ERROR};
use quma_qsim::resonator::{synthesize_trace, Discriminator, ReadoutParams};
use quma_signal::adc::Adc;

/// A completed discrimination: the integrated value and the binary result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discrimination {
    /// Weighted integration result `S_q`.
    pub s: f64,
    /// Binary result `M_q = (S_q > T_q)`.
    pub bit: u8,
}

/// The MDU calibration for one readout chain and integration window:
/// digitizes each sample with the acquisition ADC, integrates against the
/// calibrated weight function, and thresholds. Immutable once calibrated,
/// so qubits with identical readout chains share one unit.
#[derive(Debug, Clone)]
pub struct MeasurementDiscriminationUnit {
    discriminator: Discriminator,
    /// Noiseless traces for `|0⟩` and `|1⟩` (the calibration run).
    templates: [Vec<f64>; 2],
    noise_sigma: f64,
    adc: Adc,
    /// [`Adc::to_volts`] per code, indexed by `code + levels/2`.
    volts: Vec<f64>,
    /// [`Adc::code_edges`]: code `i − levels/2` covers
    /// `[edges[i], edges[i + 1])`.
    edges: Vec<f64>,
    /// ADC codes per volt of input, for a first guess at a code.
    codes_per_volt: f64,
    /// The offsets from a fast normal to the ends of its error bracket
    /// that give the lower and the upper sample: `−E, +E`, swapped for a
    /// negative `noise_sigma`.
    bracket: [f64; 2],
    /// Both outcomes' results on a noiseless chain, where the noise
    /// cannot move a code (see the module docs); `None` when noisy.
    noiseless: Option<[Discrimination; 2]>,
}

impl MeasurementDiscriminationUnit {
    /// Calibrates an MDU for a readout chain, integrating traces of
    /// `integration_time` seconds.
    pub fn calibrate(readout: &ReadoutParams, integration_time: f64) -> Self {
        let t0 = synthesize_trace(readout, 0, integration_time, || 0.0).samples;
        let t1 = synthesize_trace(readout, 1, integration_time, || 0.0).samples;
        Self::from_templates(t0, t1, readout.noise_sigma)
    }

    /// Calibrates an MDU from the two noiseless traces (the `|0⟩` and
    /// `|1⟩` templates, of one length) of a chain with per-sample noise
    /// `noise_sigma`.
    pub fn from_templates(t0: Vec<f64>, t1: Vec<f64>, noise_sigma: f64) -> Self {
        assert_eq!(t0.len(), t1.len(), "templates of one window");
        let adc = Adc::paper_acquisition();
        let mut mdu = Self {
            discriminator: Discriminator::from_templates(&t0, &t1),
            templates: [t0, t1],
            noise_sigma,
            volts: adc.volts_table(),
            edges: adc.code_edges(),
            codes_per_volt: f64::from(adc.levels() / 2) / adc.full_scale,
            bracket: if noise_sigma < 0.0 {
                [FAST_ERROR, -FAST_ERROR]
            } else {
                [-FAST_ERROR, FAST_ERROR]
            },
            adc,
            noiseless: None,
        };
        if mdu.noise_sigma == 0.0 {
            let quiet = vec![0.0; mdu.templates[0].len()];
            mdu.noiseless = Some([0, 1].map(|outcome| mdu.discriminate(outcome, &quiet)));
        }
        mdu
    }

    /// The result for `outcome` on a noiseless chain, decided at
    /// calibration: equal bit for bit to [`Self::discriminate`] with any
    /// finite noise. `None` when the chain is noisy and the window's
    /// noise must be integrated.
    pub fn noiseless(&self, outcome: u8) -> Option<Discrimination> {
        self.noiseless.map(|d| d[usize::from(outcome)])
    }

    /// The calibrated discriminator (weights, threshold, calibration
    /// points).
    pub fn discriminator(&self) -> &Discriminator {
        &self.discriminator
    }

    /// Discriminates one window from the chip's projected `outcome` and
    /// its per-sample standard-normal readout `noise`: digitize → weighted
    /// integrate → threshold, over the samples `template[k] + σ·noise[k]`.
    pub fn discriminate(&self, outcome: u8, noise: &[f64]) -> Discrimination {
        let template = &self.templates[usize::from(outcome)];
        assert_eq!(noise.len(), template.len(), "one noise draw per sample");
        let codes = template
            .iter()
            .zip(noise)
            .map(|(t, n)| self.adc.sample(t + self.noise_sigma * n));
        let s = codes
            .zip(&self.discriminator.weights)
            .map(|(code, w)| self.volts[self.index(code)] * w)
            .sum();
        self.threshold(s)
    }

    /// [`Self::discriminate`] over the noise the raw RNG `words` define
    /// (the exact Box–Muller pair of each two words, `2·⌈n/2⌉` words for
    /// `n` samples), bit for bit, without computing that noise: each
    /// sample's code is settled from the fast pair's error bracket, and
    /// only a sample the bracket leaves open calls the exact pair (see the
    /// module docs). Returns the result and the number of such samples.
    ///
    /// Runs two passes per block of samples: the fast pairs first, then
    /// the codes and the running sum, in sample order.
    pub fn discriminate_words(&self, outcome: u8, words: &[u64]) -> (Discrimination, u64) {
        const BLOCK: usize = 256;
        let template = &self.templates[usize::from(outcome)];
        assert_eq!(
            words.len(),
            2 * template.len().div_ceil(2),
            "two RNG words per pair of samples"
        );
        let mut fallbacks = 0;
        let mut normals = [0.0; BLOCK];
        // `Iterator::sum`'s neutral element, so this left fold in sample
        // order is `discriminate`'s sum bit for bit.
        let mut s = std::iter::empty::<f64>().sum::<f64>();
        for ((block_t, block_w), block_weights) in template
            .chunks(BLOCK)
            .zip(words.chunks(BLOCK))
            .zip(self.discriminator.weights.chunks(BLOCK))
        {
            for (pair_n, pair_w) in normals.chunks_exact_mut(2).zip(block_w.chunks_exact(2)) {
                pair_n.copy_from_slice(&box_muller_fast(pair_w[0], pair_w[1]));
            }
            for (k, ((&t, &n), w)) in block_t.iter().zip(&normals).zip(block_weights).enumerate() {
                let index = self.settle(t, n).unwrap_or_else(|| {
                    fallbacks += 1;
                    let pair = k & !1;
                    let exact = box_muller(block_w[pair], block_w[pair + 1])[k & 1];
                    self.index(self.adc.sample(t + self.noise_sigma * exact))
                });
                s += self.volts[index] * w;
            }
        }
        (self.threshold(s), fallbacks)
    }

    /// The code index shared by the samples `t + σ·n` at both ends of the
    /// bracket `n ∈ [fast − E, fast + E]`, if they share one: a guess at
    /// the lower sample's index, confirmed exactly by the code edges.
    #[inline]
    fn settle(&self, t: f64, fast: f64) -> Option<usize> {
        let lo = t + self.noise_sigma * (fast + self.bracket[0]);
        let hi = t + self.noise_sigma * (fast + self.bracket[1]);
        let half = (self.volts.len() / 2) as f64;
        let top = (self.volts.len() - 1) as f64;
        let guess = (lo * self.codes_per_volt + half + 0.5).clamp(0.0, top) as usize;
        (self.edges[guess] <= lo && hi < self.edges[guess + 1]).then_some(guess)
    }

    /// A code's index into the volts and edge tables.
    #[inline]
    fn index(&self, code: i32) -> usize {
        (code + self.volts.len() as i32 / 2) as usize
    }

    /// Thresholds an integration result.
    fn threshold(&self, s: f64) -> Discrimination {
        let bit = u8::from(s > self.discriminator.threshold);
        Discrimination { s, bit }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quma_qsim::resonator::ReadoutTrace;

    /// The reference path the unit replaces: synthesize the trace,
    /// digitize it, integrate it.
    fn via_trace(p: &ReadoutParams, outcome: u8, noise: &[f64], window: f64) -> f64 {
        let mut draws = noise.iter().copied();
        let trace = synthesize_trace(p, outcome, window, || draws.next().unwrap());
        let adc = Adc::paper_acquisition();
        let digitized = ReadoutTrace {
            samples: adc.digitize(&trace.samples),
            ..trace
        };
        Discriminator::calibrate(p, window).integrate(&digitized)
    }

    fn lcg(mut seed: u64) -> impl FnMut() -> f64 {
        move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    #[test]
    fn discriminates_noiseless_states() {
        let p = ReadoutParams::noiseless();
        let mdu = MeasurementDiscriminationUnit::calibrate(&p, 1.5e-6);
        let quiet = vec![0.0; p.samples_in(1.5e-6)];
        for s in [0u8, 1u8] {
            assert_eq!(mdu.discriminate(s, &quiet).bit, s);
        }
    }

    #[test]
    fn discriminates_noisy_states_reliably() {
        let p = ReadoutParams::paper_default();
        let mdu = MeasurementDiscriminationUnit::calibrate(&p, 1.5e-6);
        let mut draw = lcg(77);
        for round in 0..40 {
            for s in [0u8, 1u8] {
                let noise: Vec<f64> = (0..1500).map(|_| draw()).collect();
                assert_eq!(mdu.discriminate(s, &noise).bit, s, "round {round}");
            }
        }
    }

    #[test]
    fn matches_synthesize_digitize_integrate_bit_for_bit() {
        // Odd and even windows, both states, a noisy and a noiseless
        // chain (the noiseless one exercises the signed-zero samples).
        let mut draw = lcg(5);
        for p in [ReadoutParams::paper_default(), ReadoutParams::noiseless()] {
            for window in [1.5e-6, 0.385e-6] {
                let mdu = MeasurementDiscriminationUnit::calibrate(&p, window);
                for s in [0u8, 1u8] {
                    let noise: Vec<f64> = (0..p.samples_in(window)).map(|_| 4.0 * draw()).collect();
                    let got = mdu.discriminate(s, &noise).s;
                    let want = via_trace(&p, s, &noise, window);
                    assert_eq!(got.to_bits(), want.to_bits(), "state {s}, window {window}");
                }
            }
        }
    }

    #[test]
    fn noiseless_chain_is_decided_at_calibration_bit_for_bit() {
        // The largest Box–Muller magnitude: √(−2 ln f64::MIN_POSITIVE).
        let extreme = (-2.0 * f64::MIN_POSITIVE.ln()).sqrt();
        assert!((extreme - 37.6).abs() < 0.1);
        let p = ReadoutParams::noiseless();
        let mut draw = lcg(11);
        for window in [1.5e-6, 0.385e-6] {
            let n = p.samples_in(window);
            let mdu = MeasurementDiscriminationUnit::calibrate(&p, window);
            let fixed = [0.0, -0.0, extreme, -extreme, f64::MAX, -f64::MIN_POSITIVE];
            let noises = [
                vec![0.0; n],
                vec![-0.0; n],
                vec![extreme; n],
                vec![-extreme; n],
                (0..n).map(|k| fixed[k % fixed.len()]).collect(),
                (0..n).map(|_| 40.0 * draw()).collect::<Vec<_>>(),
            ];
            for s in [0u8, 1u8] {
                let stored = mdu.noiseless(s).expect("σ = 0 is decided at calibration");
                for noise in &noises {
                    let d = mdu.discriminate(s, noise);
                    assert_eq!(stored.s.to_bits(), d.s.to_bits(), "state {s}, {n} samples");
                    assert_eq!(stored.bit, d.bit, "state {s}, {n} samples");
                }
                assert_eq!(stored.bit, s);
            }
        }
        let noisy =
            MeasurementDiscriminationUnit::calibrate(&ReadoutParams::paper_default(), 1.5e-6);
        assert_eq!(noisy.noiseless(0), None);
        assert_eq!(noisy.noiseless(1), None);
    }

    #[test]
    #[should_panic(expected = "one noise draw per sample")]
    fn short_noise_window_is_rejected() {
        let p = ReadoutParams::paper_default();
        let mdu = MeasurementDiscriminationUnit::calibrate(&p, 1.5e-6);
        mdu.discriminate(0, &vec![0.0; p.samples_in(1.5e-6) - 1]);
    }

    #[test]
    fn integration_value_is_monotone_in_state() {
        let p = ReadoutParams::noiseless();
        let mdu = MeasurementDiscriminationUnit::calibrate(&p, 1.0e-6);
        let quiet = vec![0.0; p.samples_in(1.0e-6)];
        let s0 = mdu.discriminate(0, &quiet).s;
        let s1 = mdu.discriminate(1, &quiet).s;
        assert!(s1 > s0, "matched filter orients 1 above 0");
        let t = mdu.discriminator().threshold;
        assert!(s0 < t && t < s1);
    }
}

//! The measurement discrimination unit (Sections 4.2.1, 5.1.2):
//! hardware-based weighted integration and thresholding of readout traces,
//! replacing the slow software path so real-time feedback is possible.
//!
//! A readout trace is the projected state's noiseless template plus
//! `noise_sigma` times one standard-normal draw per sample (see
//! [`quma_qsim::resonator`]). Calibration already synthesizes both
//! templates to derive the weights, so the unit keeps them and
//! discriminates a window from the chip's outcome and noise draws alone:
//! each sample is rebuilt, digitized by the acquisition ADC and weighted
//! in one pass, in sample order. That is the same f64 arithmetic as
//! synthesizing the trace, digitizing it and integrating it — the result
//! is bit for bit the same — without a trace or a cosine per sample.
//!
//! A noiseless chain (`noise_sigma == 0`) is decided at calibration: the
//! unit integrates both templates once and stores the two results, and
//! the control box asks the chip for no noise at all (the chip still
//! jumps its RNG past the draws, see
//! [`quma_qsim::chip::ChipBackend::measure_into`]). That is exact, not an
//! approximation. A Box–Muller draw is finite (`|n| ≤ √(−2 ln
//! f64::MIN_POSITIVE) ≈ 37.6`), so `0·n` is `±0`; `t + ±0` equals `t` up
//! to the sign of zero; and the ADC returns an `i32` code, which has no
//! signed zero. Every sample's code, hence `S_q`, is the noiseless
//! template's, bit for bit, whatever the noise.

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
        let mut mdu = Self {
            discriminator: Discriminator::from_templates(&t0, &t1),
            templates: [t0, t1],
            noise_sigma: readout.noise_sigma,
            adc: Adc::paper_acquisition(),
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
        let s = template
            .iter()
            .zip(noise)
            .zip(&self.discriminator.weights)
            .map(|((v, n), w)| self.adc.to_volts(self.adc.sample(v + self.noise_sigma * n)) * w)
            .sum();
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

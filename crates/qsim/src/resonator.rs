//! Dispersive readout-resonator model producing heterodyne measurement
//! traces.
//!
//! Section 2.2 of the paper: qubit measurement exploits the qubit-state
//! dependent fundamental frequency of a readout resonator coupled to the
//! transmon and a feedline. A pulsed transmission measurement near the
//! resonator fundamental is demodulated to a 40 MHz intermediate frequency;
//! integration and discrimination of that signal infer the qubit state.
//!
//! The model computes the resonator's complex transmission at the probe
//! frequency for each qubit state from a Lorentzian line shape with a
//! dispersive shift `2χ`, then synthesizes the demodulated IF trace with
//! additive Gaussian noise — the same signal the paper's 8-bit ADCs digitize.
//!
//! A trace is a noiseless per-state template plus `noise_sigma` times one
//! standard-normal draw per sample, and the template is exactly what
//! [`synthesize_trace`] returns for an all-zero noise stream. The control
//! pipeline relies on that split: the chip hands out only the projected
//! outcome and the raw RNG words its noise draws are made of (see
//! [`crate::normal`]), and the measurement discrimination unit integrates
//! the cached calibration template plus that noise without ever building
//! the trace. [`synthesize_trace`] stays
//! the reference view for tests and for `ChipBackend::measure`.

use crate::complex::C64;

/// Parameters of a readout resonator and its measurement chain.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutParams {
    /// Resonator fundamental with the qubit in `|0⟩`, Hz (paper: 6.850 GHz).
    pub f_resonator: f64,
    /// Dispersive shift χ in Hz: with the qubit in `|1⟩` the resonance sits
    /// at `f_resonator − 2χ`.
    pub chi: f64,
    /// Resonator linewidth κ in Hz.
    pub kappa: f64,
    /// Probe (measurement carrier) frequency, Hz (paper: 6.849 GHz).
    pub f_probe: f64,
    /// Intermediate frequency after demodulation, Hz (paper: 40 MHz).
    pub f_if: f64,
    /// ADC sample rate for the acquired trace, samples/s.
    pub sample_rate: f64,
    /// RMS additive Gaussian noise per sample, in units of the (unit)
    /// drive amplitude.
    pub noise_sigma: f64,
}

impl ReadoutParams {
    /// Paper-flavoured defaults: fR = 6.850 GHz, probe at 6.849 GHz,
    /// 40 MHz IF, χ/2π = 0.5 MHz, κ/2π = 1 MHz.
    pub fn paper_default() -> Self {
        Self {
            f_resonator: 6.850e9,
            chi: 0.5e6,
            kappa: 1.0e6,
            f_probe: 6.849e9,
            f_if: 40e6,
            sample_rate: 1e9,
            noise_sigma: 0.05,
        }
    }

    /// A noiseless variant for deterministic tests.
    pub fn noiseless() -> Self {
        Self {
            noise_sigma: 0.0,
            ..Self::paper_default()
        }
    }

    /// Complex transmission of the feedline at the probe frequency when the
    /// qubit is in state `s` (0 or 1): a notch-type Lorentzian dip whose
    /// center shifts by `−2χ` for `|1⟩`.
    pub fn transmission(&self, s: u8) -> C64 {
        let f_res = match s {
            0 => self.f_resonator,
            1 => self.f_resonator - 2.0 * self.chi,
            _ => panic!("qubit state must be 0 or 1"),
        };
        let delta = self.f_probe - f_res;
        // S21(f) = 1 − (κ/2) / (κ/2 + i·Δ): unity far off resonance, zero
        // transmission at the dip center for this idealized notch.
        let half_kappa = C64::real(self.kappa / 2.0);
        let denom = half_kappa + C64::new(0.0, delta);
        C64::real(1.0) - half_kappa * denom.recip()
    }

    /// Number of ADC samples in a readout window of `duration` seconds.
    pub fn samples_in(&self, duration: f64) -> usize {
        (duration * self.sample_rate).round() as usize
    }

    /// Separation between the two transmission points in the IQ plane;
    /// readout SNR is `separation / noise_sigma` per sample.
    pub fn iq_separation(&self) -> f64 {
        (self.transmission(1) - self.transmission(0)).abs()
    }
}

/// A digitized measurement trace at the intermediate frequency, i.e. what
/// the master controller's ADCs hand to the measurement discrimination unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutTrace {
    /// Real-valued IF samples.
    pub samples: Vec<f64>,
    /// Sample period in seconds.
    pub sample_period: f64,
    /// Intermediate frequency the trace is centred on, Hz.
    pub f_if: f64,
}

impl ReadoutTrace {
    /// Trace duration in seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 * self.sample_period
    }
}

/// Synthesizes the IF trace for a qubit projected to state `s`, lasting
/// `duration` seconds. `noise` supplies one standard-normal draw per sample
/// (pass an empty or zero iterator for noiseless traces).
pub fn synthesize_trace(
    params: &ReadoutParams,
    s: u8,
    duration: f64,
    mut noise: impl FnMut() -> f64,
) -> ReadoutTrace {
    let n = params.samples_in(duration);
    let dt = 1.0 / params.sample_rate;
    let s21 = params.transmission(s);
    let amp = s21.abs();
    let phase = s21.arg();
    let omega = 2.0 * std::f64::consts::PI * params.f_if;
    let samples = (0..n)
        .map(|k| {
            let t = k as f64 * dt;
            amp * (omega * t + phase).cos() + params.noise_sigma * noise()
        })
        .collect();
    ReadoutTrace {
        samples,
        sample_period: dt,
        f_if: params.f_if,
    }
}

/// The matched-filter weight function for discriminating the two states:
/// the difference of the two noiseless traces (Section 4.2.1's calibrated
/// `W_q(t)`), plus the decision threshold sitting midway between the two
/// noiseless integration results.
#[derive(Debug, Clone, PartialEq)]
pub struct Discriminator {
    /// Weight samples `W_q(t)`.
    pub weights: Vec<f64>,
    /// Decision threshold `T_q` on the integrated signal.
    pub threshold: f64,
    /// Noiseless integral for state 0 (calibration point).
    pub s0: f64,
    /// Noiseless integral for state 1 (calibration point).
    pub s1: f64,
}

impl Discriminator {
    /// Calibrates weights and threshold from the model (noiseless traces of
    /// `duration` seconds), mirroring the experimental calibration run.
    pub fn calibrate(params: &ReadoutParams, duration: f64) -> Self {
        let t0 = synthesize_trace(params, 0, duration, || 0.0);
        let t1 = synthesize_trace(params, 1, duration, || 0.0);
        Self::from_templates(&t0.samples, &t1.samples)
    }

    /// Calibrates from the two noiseless traces (the state-0 and state-1
    /// templates) directly.
    pub fn from_templates(t0: &[f64], t1: &[f64]) -> Self {
        let weights: Vec<f64> = t1.iter().zip(t0.iter()).map(|(a, b)| a - b).collect();
        let s0 = integrate(t0, &weights);
        let s1 = integrate(t1, &weights);
        Self {
            weights,
            threshold: (s0 + s1) / 2.0,
            s0,
            s1,
        }
    }

    /// Integrates a trace against the weights: `S_q = Σ V(t)·W_q(t)`.
    pub fn integrate(&self, trace: &ReadoutTrace) -> f64 {
        integrate(&trace.samples, &self.weights)
    }

    /// Full discrimination: `M_q = 1` iff `S_q > T_q` (matching the paper's
    /// convention with `s1 > s0` guaranteed by the matched filter).
    pub fn discriminate(&self, trace: &ReadoutTrace) -> u8 {
        u8::from(self.integrate(trace) > self.threshold)
    }
}

fn integrate(samples: &[f64], weights: &[f64]) -> f64 {
    samples.iter().zip(weights.iter()).map(|(v, w)| v * w).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_differs_between_states() {
        let p = ReadoutParams::paper_default();
        let sep = p.iq_separation();
        assert!(sep > 1e-4, "dispersive shift must separate the states");
    }

    #[test]
    fn transmission_is_bounded() {
        let p = ReadoutParams::paper_default();
        for s in [0, 1] {
            let a = p.transmission(s).abs();
            assert!((0.0..=1.0 + 1e-12).contains(&a));
        }
    }

    #[test]
    fn trace_has_expected_length_and_frequency() {
        let p = ReadoutParams::noiseless();
        let tr = synthesize_trace(&p, 0, 1.5e-6, || 0.0);
        assert_eq!(tr.samples.len(), 1500);
        assert!((tr.duration() - 1.5e-6).abs() < 1e-12);
        assert_eq!(tr.f_if, 40e6);
    }

    #[test]
    fn noiseless_discrimination_is_perfect() {
        let p = ReadoutParams::noiseless();
        let d = Discriminator::calibrate(&p, 1.5e-6);
        let t0 = synthesize_trace(&p, 0, 1.5e-6, || 0.0);
        let t1 = synthesize_trace(&p, 1, 1.5e-6, || 0.0);
        assert_eq!(d.discriminate(&t0), 0);
        assert_eq!(d.discriminate(&t1), 1);
    }

    #[test]
    fn calibration_points_straddle_threshold() {
        let p = ReadoutParams::noiseless();
        let d = Discriminator::calibrate(&p, 1.0e-6);
        assert!(d.s0 < d.threshold && d.threshold < d.s1);
    }

    #[test]
    fn noisy_discrimination_with_deterministic_noise() {
        // A crude LCG provides reproducible pseudo-noise without rand.
        let p = ReadoutParams::paper_default();
        let d = Discriminator::calibrate(&p, 1.5e-6);
        let mut seed = 0x2545F491u64;
        let mut lcg = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut errors = 0;
        for _ in 0..50 {
            let t0 = synthesize_trace(&p, 0, 1.5e-6, &mut lcg);
            let t1 = synthesize_trace(&p, 1, 1.5e-6, &mut lcg);
            errors += usize::from(d.discriminate(&t0) != 0);
            errors += usize::from(d.discriminate(&t1) != 1);
        }
        assert_eq!(errors, 0, "matched filter should discriminate reliably");
    }

    #[test]
    fn longer_integration_increases_separation() {
        let p = ReadoutParams::noiseless();
        let d_short = Discriminator::calibrate(&p, 0.5e-6);
        let d_long = Discriminator::calibrate(&p, 2.0e-6);
        assert!((d_long.s1 - d_long.s0) > (d_short.s1 - d_short.s0));
    }

    #[test]
    #[should_panic(expected = "qubit state must be 0 or 1")]
    fn invalid_state_panics() {
        ReadoutParams::paper_default().transmission(2);
    }
}

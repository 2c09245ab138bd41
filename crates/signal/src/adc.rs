//! Analog-to-digital conversion: the master controller's 8-bit digitizers
//! that sample the demodulated measurement signal (Section 7.1).

/// An ADC with a given resolution and symmetric input range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    /// Resolution in bits (paper master controller: 8).
    pub bits: u8,
    /// Full-scale input amplitude.
    pub full_scale: f64,
}

impl Adc {
    /// Creates an ADC; panics unless `1 ≤ bits ≤ 24`.
    pub fn new(bits: u8, full_scale: f64) -> Self {
        assert!((1..=24).contains(&bits), "unsupported ADC resolution");
        assert!(full_scale > 0.0);
        Self { bits, full_scale }
    }

    /// The paper's 8-bit acquisition ADC, with ±2 full scale leaving
    /// headroom over the unit-amplitude readout tone.
    pub fn paper_acquisition() -> Self {
        Self::new(8, 2.0)
    }

    /// Number of output codes.
    #[inline]
    pub fn levels(&self) -> u32 {
        1u32 << self.bits
    }

    /// Digitizes one sample to a signed code.
    #[inline]
    pub fn sample(&self, v: f64) -> i32 {
        let half = (self.levels() / 2) as f64;
        let clipped = v.clamp(-self.full_scale, self.full_scale);
        ((clipped / self.full_scale * half).round() as i32).clamp(-(half as i32), half as i32 - 1)
    }

    /// Converts a code back to volts.
    #[inline]
    pub fn to_volts(&self, code: i32) -> f64 {
        let half = (self.levels() / 2) as f64;
        code as f64 / half * self.full_scale
    }

    /// Digitizes a whole trace, returning reconstructed voltages (the values
    /// downstream digital processing actually sees).
    pub fn digitize(&self, trace: &[f64]) -> Vec<f64> {
        trace
            .iter()
            .map(|&v| self.to_volts(self.sample(v)))
            .collect()
    }

    /// Raw code stream for a trace.
    pub fn codes(&self, trace: &[f64]) -> Vec<i32> {
        trace.iter().map(|&v| self.sample(v)).collect()
    }

    /// One least-significant bit in volts.
    pub fn lsb(&self) -> f64 {
        2.0 * self.full_scale / self.levels() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digitization_error_bounded() {
        let adc = Adc::paper_acquisition();
        let trace: Vec<f64> = (0..200).map(|k| (k as f64 * 0.13).sin() * 1.5).collect();
        let out = adc.digitize(&trace);
        for (a, b) in trace.iter().zip(out.iter()) {
            assert!((a - b).abs() <= adc.lsb() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn saturation_clips_cleanly() {
        let adc = Adc::new(8, 1.0);
        assert_eq!(adc.sample(10.0), 127);
        assert_eq!(adc.sample(-10.0), -128);
    }

    #[test]
    fn eight_bits_has_256_levels() {
        assert_eq!(Adc::new(8, 1.0).levels(), 256);
    }

    #[test]
    fn codes_and_volts_round_trip() {
        let adc = Adc::new(8, 2.0);
        for code in [-128, -1, 0, 1, 127] {
            assert_eq!(adc.sample(adc.to_volts(code)), code);
        }
    }

    #[test]
    fn discrimination_survives_8bit_quantization() {
        // The integration-based discrimination of the MDU must still work
        // after the readout trace passes through the paper's 8-bit ADC.
        use quma_qsim::resonator::{synthesize_trace, Discriminator, ReadoutParams};
        let p = ReadoutParams::paper_default();
        let d = Discriminator::calibrate(&p, 1.0e-6);
        let adc = Adc::paper_acquisition();
        let mut seed = 12345u64;
        let mut lcg = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for s in [0u8, 1u8] {
            let trace = synthesize_trace(&p, s, 1.0e-6, &mut lcg);
            let digitized = quma_qsim::resonator::ReadoutTrace {
                samples: adc.digitize(&trace.samples),
                sample_period: trace.sample_period,
                f_if: trace.f_if,
            };
            assert_eq!(d.discriminate(&digitized), s);
        }
    }
}

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

    /// Digitizes one sample to a signed code: the input in LSBs, rounded
    /// half away from zero, clamped to the code range. Monotone
    /// non-decreasing in `v`.
    #[inline]
    pub fn sample(&self, v: f64) -> i32 {
        let half = (self.levels() / 2) as f64;
        let clipped = v.clamp(-self.full_scale, self.full_scale);
        let x = clipped / self.full_scale * half;
        // `f64::round` without the libm call: `t` truncates toward zero
        // and `x − t`, the fraction of a float, is exact, so a fraction
        // of at least one half steps one code away from zero. NaN makes
        // `t` 0 and fails both tests, as `round` then `as` gives 0.
        let t = x as i64;
        let d = x - t as f64;
        let rounded = t + i64::from(d >= 0.5) - i64::from(d <= -0.5);
        (rounded as i32).clamp(-(half as i32), half as i32 - 1)
    }

    /// Converts a code back to volts.
    #[inline]
    pub fn to_volts(&self, code: i32) -> f64 {
        let half = (self.levels() / 2) as f64;
        code as f64 / half * self.full_scale
    }

    /// The code edges, indexed like [`Self::volts_table`] plus one end:
    /// entry `i` of `0 < i < levels` is the least input `v` with
    /// `sample(v) ≥ i − levels/2`, entry 0 is −∞ and entry `levels` is
    /// +∞. Since [`Self::sample`] is monotone, `sample(v)` is the code
    /// `i − levels/2` exactly when `edges[i] ≤ v < edges[i + 1]`, for any
    /// `v` but NaN: two comparisons decide whether an interval of inputs
    /// shares one code. Found by bisection over the order of f64 values,
    /// so each edge is exact.
    pub fn code_edges(&self) -> Vec<f64> {
        // f64 values in order as unsigned keys (−0 just below +0).
        let key = |v: f64| {
            let bits = v.to_bits();
            if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            }
        };
        let value = |k: u64| {
            if k >> 63 == 1 {
                f64::from_bits(k & !(1 << 63))
            } else {
                f64::from_bits(!k)
            }
        };
        let half = (self.levels() / 2) as i32;
        let mut edges = vec![f64::NEG_INFINITY];
        for code in -half + 1..half {
            // sample(value(below)) < code ≤ sample(value(at)).
            let (mut below, mut at) = (key(f64::NEG_INFINITY), key(f64::INFINITY));
            while at - below > 1 {
                let mid = below + (at - below) / 2;
                if self.sample(value(mid)) >= code {
                    at = mid;
                } else {
                    below = mid;
                }
            }
            edges.push(value(at));
        }
        edges.push(f64::INFINITY);
        edges
    }

    /// [`Self::to_volts`] of every code, indexed by `code + levels/2`:
    /// the per-code table a discrimination unit reads instead of
    /// dividing per sample.
    pub fn volts_table(&self) -> Vec<f64> {
        let half = (self.levels() / 2) as i32;
        (-half..half).map(|code| self.to_volts(code)).collect()
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

    /// The conversion `sample` replaced: libm's `round`, half away from
    /// zero.
    fn sample_via_round(adc: &Adc, v: f64) -> i32 {
        let half = (adc.levels() / 2) as f64;
        let clipped = v.clamp(-adc.full_scale, adc.full_scale);
        ((clipped / adc.full_scale * half).round() as i32).clamp(-(half as i32), half as i32 - 1)
    }

    fn adcs() -> [Adc; 4] {
        [
            Adc::paper_acquisition(),
            Adc::new(8, 1.0),
            Adc::new(12, 3.0),
            Adc::new(1, 0.7),
        ]
    }

    #[test]
    fn sample_rounds_as_libm_round_on_every_tie_code_and_edge() {
        for adc in adcs() {
            let half = i64::from(adc.levels() / 2);
            let lsb_volts = adc.full_scale / half as f64;
            let mut inputs = vec![
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                adc.full_scale,
                -adc.full_scale,
                2.0 * adc.full_scale,
                -2.0 * adc.full_scale,
            ];
            // Every code and every `k ± 0.5` tie, with both neighbours.
            for k in -half - 2..=half + 2 {
                for at in [k as f64, k as f64 - 0.5, k as f64 + 0.5] {
                    let v = at * lsb_volts;
                    inputs.extend([v, v.next_down(), v.next_up()]);
                }
            }
            for v in inputs {
                assert_eq!(adc.sample(v), sample_via_round(&adc, v), "{adc:?} at {v:e}");
            }
            // A dense sweep past both clamps.
            let steps = 400_000;
            for i in 0..=steps {
                let v = (2.5 * i as f64 / steps as f64 - 1.25) * adc.full_scale;
                assert_eq!(adc.sample(v), sample_via_round(&adc, v), "{adc:?} at {v:e}");
            }
        }
    }

    #[test]
    fn sample_is_monotone_and_clamps_to_the_code_range() {
        for adc in adcs() {
            let half = (adc.levels() / 2) as i32;
            let mut last = i32::MIN;
            for i in 0..=100_000 {
                let v = (3.0 * i as f64 / 100_000.0 - 1.5) * adc.full_scale;
                let code = adc.sample(v);
                assert!(
                    code >= last && (-half..half).contains(&code),
                    "{adc:?} at {v}"
                );
                last = code;
            }
        }
    }

    #[test]
    fn volts_table_is_to_volts_bit_for_bit() {
        for adc in adcs() {
            let table = adc.volts_table();
            let half = (adc.levels() / 2) as i32;
            assert_eq!(table.len(), adc.levels() as usize);
            for code in -half..half {
                let entry = table[(code + half) as usize];
                assert_eq!(
                    entry.to_bits(),
                    adc.to_volts(code).to_bits(),
                    "{adc:?} code {code}"
                );
            }
        }
    }

    #[test]
    fn code_edges_bound_every_code_exactly() {
        for adc in adcs() {
            let edges = adc.code_edges();
            let half = (adc.levels() / 2) as i32;
            assert_eq!(edges.len(), adc.levels() as usize + 1);
            assert_eq!(
                (edges[0], edges[edges.len() - 1]),
                (f64::NEG_INFINITY, f64::INFINITY)
            );
            for (i, pair) in edges.windows(2).enumerate() {
                let code = i as i32 - half;
                let (first, last) = (pair[0].max(f64::MIN), pair[1].next_down());
                assert_eq!(
                    adc.sample(first),
                    code,
                    "{adc:?} code {code} from {first:e}"
                );
                assert_eq!(adc.sample(last), code, "{adc:?} code {code} to {last:e}");
                if i > 0 {
                    assert_eq!(
                        adc.sample(first.next_down()),
                        code - 1,
                        "{adc:?} below {code}"
                    );
                }
            }
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

//! The QuMA-vs-APS2 architectural comparison of Section 6 and §5.1.1.
//!
//! Quantifies the axes the paper argues on: waveform-memory footprint,
//! upload latency, number of binaries, reconfiguration cost when one gate
//! changes, and synchronization stalls when scaling module counts.

use crate::waveform_memory::{SequenceCompiler, UploadModel, WaveformBank};
use quma_qsim::gates::PrimitiveGate;

/// Parameters of a combination-style experiment (AllXY-shaped).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentShape {
    /// Number of operation combinations (AllXY: 21).
    pub combinations: usize,
    /// Operations per combination (AllXY: 2).
    pub ops_per_combination: usize,
    /// Distinct primitive pulses needed (AllXY: 7).
    pub primitive_pulses: usize,
    /// Samples per pulse per quadrature (20 ns × 1 GS/s = 20).
    pub samples_per_pulse: usize,
    /// Sample width in bits (paper: 12).
    pub sample_bits: u8,
}

impl ExperimentShape {
    /// The paper's AllXY shape.
    pub fn allxy() -> Self {
        Self {
            combinations: 21,
            ops_per_combination: 2,
            primitive_pulses: 7,
            samples_per_pulse: 20,
            sample_bits: 12,
        }
    }
}

/// The comparison result (one row of the Section 6 discussion).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// The experiment shape compared.
    pub shape: ExperimentShape,
    /// QuMA codeword-scheme wave memory in bytes.
    pub quma_memory_bytes: usize,
    /// Baseline full-waveform memory in bytes.
    pub baseline_memory_bytes: usize,
    /// QuMA pulse-library upload time in seconds.
    pub quma_upload_seconds: f64,
    /// Baseline waveform upload time in seconds.
    pub baseline_upload_seconds: f64,
    /// Binaries to manage: QuMA is centralized (1).
    pub quma_binaries: usize,
    /// Baseline binaries: one per module plus the TDM.
    pub baseline_binaries: usize,
    /// Bytes re-uploaded when one primitive pulse is recalibrated: QuMA
    /// re-uploads that one pulse.
    pub quma_reconfig_bytes: usize,
    /// Baseline: every combination waveform containing the changed gate is
    /// re-uploaded (worst case: all of them).
    pub baseline_reconfig_bytes: usize,
}

/// Computes the comparison for a given experiment shape, upload link, and
/// baseline module count.
pub fn compare(
    shape: ExperimentShape,
    link: UploadModel,
    baseline_modules: usize,
) -> ComparisonReport {
    let per_pulse_samples = 2 * shape.samples_per_pulse; // I and Q
    let quma_samples = shape.primitive_pulses * per_pulse_samples;
    let baseline_samples = shape.combinations * shape.ops_per_combination * per_pulse_samples;
    let bits = shape.sample_bits;
    let quma_memory_bytes = quma_signal::dac::memory_bytes(quma_samples, bits);
    let baseline_memory_bytes = quma_signal::dac::memory_bytes(baseline_samples, bits);
    let per_pulse_bytes = quma_signal::dac::memory_bytes(per_pulse_samples, bits);
    let per_combination_bytes =
        quma_signal::dac::memory_bytes(shape.ops_per_combination * per_pulse_samples, bits);
    ComparisonReport {
        shape,
        quma_memory_bytes,
        baseline_memory_bytes,
        quma_upload_seconds: link.upload_time(quma_memory_bytes, shape.primitive_pulses),
        baseline_upload_seconds: link.upload_time(baseline_memory_bytes, shape.combinations),
        quma_binaries: 1,
        baseline_binaries: baseline_modules + 1,
        quma_reconfig_bytes: per_pulse_bytes,
        // Worst case: the recalibrated gate appears in every combination.
        baseline_reconfig_bytes: shape.combinations * per_combination_bytes,
    }
}

/// Builds the actual 21-combination AllXY waveform bank (not just the byte
/// arithmetic) and checks it against the analytic number. Returns the bank
/// for further inspection.
pub fn build_allxy_bank() -> WaveformBank {
    let compiler = SequenceCompiler::paper_default();
    let mut bank = WaveformBank::new();
    for [a, b] in allxy_pairs() {
        bank.add(compiler.compile(&[a, b]));
    }
    bank
}

/// The 21 AllXY gate pairs (Algorithm 1's `gate[21][2]`).
pub fn allxy_pairs() -> [[PrimitiveGate; 2]; 21] {
    use PrimitiveGate::*;
    [
        [I, I],
        [X180, X180],
        [Y180, Y180],
        [X180, Y180],
        [Y180, X180],
        [X90, I],
        [Y90, I],
        [X90, Y90],
        [Y90, X90],
        [X90, Y180],
        [Y90, X180],
        [X180, Y90],
        [Y180, X90],
        [X90, X180],
        [X180, X90],
        [Y90, Y180],
        [Y180, Y90],
        [X180, I],
        [Y180, I],
        [X90, X90],
        [Y90, Y90],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_511_numbers() {
        let r = compare(ExperimentShape::allxy(), UploadModel::usb(), 9);
        assert_eq!(r.quma_memory_bytes, 420);
        assert_eq!(r.baseline_memory_bytes, 2520);
        assert!(r.baseline_upload_seconds > r.quma_upload_seconds);
        assert_eq!(r.quma_binaries, 1);
        assert_eq!(r.baseline_binaries, 10);
    }

    #[test]
    fn quma_memory_is_constant_in_combinations() {
        let mut shape = ExperimentShape::allxy();
        let r21 = compare(shape, UploadModel::usb(), 9);
        shape.combinations = 210;
        let r210 = compare(shape, UploadModel::usb(), 9);
        assert_eq!(r21.quma_memory_bytes, r210.quma_memory_bytes);
        assert_eq!(r210.baseline_memory_bytes, 10 * r21.baseline_memory_bytes);
    }

    #[test]
    fn reconfiguration_favours_quma() {
        let r = compare(ExperimentShape::allxy(), UploadModel::usb(), 9);
        assert_eq!(r.quma_reconfig_bytes, 60, "one 20 ns I/Q pulse at 12 bits");
        assert_eq!(r.baseline_reconfig_bytes, 21 * 120);
        assert!(r.baseline_reconfig_bytes > 40 * r.quma_reconfig_bytes / 2);
    }

    #[test]
    fn built_bank_matches_analytic_bytes() {
        let bank = build_allxy_bank();
        assert_eq!(bank.len(), 21);
        assert_eq!(
            bank.memory_bytes(12),
            compare(ExperimentShape::allxy(), UploadModel::usb(), 9).baseline_memory_bytes
        );
    }

    #[test]
    fn allxy_pairs_first_five_return_to_ground() {
        // Sanity on the table itself: the first 5 pairs return |0⟩ to |0⟩
        // (as states — e.g. X180·Y180 composes to a Z-like operator, which
        // still fixes |0⟩).
        use quma_qsim::state::DensityMatrix;
        for (i, [a, b]) in allxy_pairs().iter().enumerate().take(5) {
            let mut rho = DensityMatrix::ground();
            rho.apply_unitary(&a.matrix());
            rho.apply_unitary(&b.matrix());
            assert!(
                (rho.p0() - 1.0).abs() < 1e-9,
                "pair {i} should return to ground, p0 = {}",
                rho.p0()
            );
        }
    }

    #[test]
    fn allxy_pairs_last_four_reach_excited() {
        use quma_qsim::state::DensityMatrix;
        for [a, b] in allxy_pairs().iter().skip(17).take(2) {
            let mut rho = DensityMatrix::ground();
            rho.apply_unitary(&a.matrix());
            rho.apply_unitary(&b.matrix());
            assert!((rho.p1() - 1.0).abs() < 1e-9);
        }
        // Pairs 19 and 20 (X90,X90 / Y90,Y90) compose to π rotations and
        // also reach |1⟩.
        for [a, b] in allxy_pairs().iter().skip(19) {
            let mut rho = DensityMatrix::ground();
            rho.apply_unitary(&a.matrix());
            rho.apply_unitary(&b.matrix());
            assert!((rho.p1() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn allxy_pairs_middle_reach_equator() {
        use quma_qsim::state::DensityMatrix;
        for (i, [a, b]) in allxy_pairs().iter().enumerate().skip(5).take(12) {
            let mut rho = DensityMatrix::ground();
            rho.apply_unitary(&a.matrix());
            rho.apply_unitary(&b.matrix());
            assert!(
                (rho.p1() - 0.5).abs() < 1e-9,
                "pair {i} should reach the equator, p1 = {}",
                rho.p1()
            );
        }
    }
}

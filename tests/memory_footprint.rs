//! §5.1.1 golden numbers, cross-checked three ways: the analytic
//! comparison, the actually-built QuMA pulse library, and the
//! actually-built APS2 waveform bank.

use quma::baseline::prelude::*;
use quma::core::prelude::*;

#[test]
fn quma_pulse_library_is_420_bytes() {
    // The CTPG's real library: 7 pulses × 2 quadratures × 20 samples at
    // 12 bits = 420 bytes.
    let lib = PulseLibraryBuilder::paper_default(std::f64::consts::PI / 8e-9).build_table1();
    assert_eq!(lib.populated(), 7);
    assert_eq!(lib.total_samples(), 280);
    assert_eq!(lib.memory_bytes(12), 420);
}

#[test]
fn aps2_bank_is_2520_bytes() {
    let bank = build_allxy_bank();
    assert_eq!(bank.len(), 21);
    assert_eq!(bank.total_samples(), 1680);
    assert_eq!(bank.memory_bytes(12), 2520);
}

#[test]
fn analytic_comparison_matches_built_artifacts() {
    let lib = PulseLibraryBuilder::paper_default(std::f64::consts::PI / 8e-9).build_table1();
    let bank = build_allxy_bank();
    let report = compare(ExperimentShape::allxy(), UploadModel::usb(), 9);
    assert_eq!(report.quma_memory_bytes, lib.memory_bytes(12));
    assert_eq!(report.baseline_memory_bytes, bank.memory_bytes(12));
    assert_eq!(report.baseline_memory_bytes, 6 * report.quma_memory_bytes);
}

#[test]
fn quma_saving_grows_with_combinations() {
    // "When more complex combination of operations is required, the memory
    // consumption [of QuMA] will remain the same and the memory saving
    // will be more significant."
    let mut prev_ratio = 0.0;
    for combos in [21usize, 42, 84, 168, 336, 672, 1344] {
        let shape = ExperimentShape {
            combinations: combos,
            ..ExperimentShape::allxy()
        };
        let r = compare(shape, UploadModel::usb(), 9);
        assert_eq!(r.quma_memory_bytes, 420, "QuMA memory is flat");
        // Two 20-sample I/Q pulses per combination: 80 samples at 12 bits.
        assert_eq!(r.baseline_memory_bytes, 120 * combos, "baseline memory");
        let ratio = r.baseline_memory_bytes as f64 / r.quma_memory_bytes as f64;
        assert!(ratio > prev_ratio, "saving must grow with combinations");
        prev_ratio = ratio;
    }
    assert_eq!(prev_ratio, 384.0, "at 1344 combinations the ratio is 384×");
}

#[test]
fn twelve_bit_packing_is_dense_in_the_real_library() {
    // Actually bit-pack the quantized samples of the built library and
    // confirm the byte count matches the analytic formula.
    use quma::signal::prelude::*;
    let lib = PulseLibraryBuilder::paper_default(std::f64::consts::PI / 8e-9).build_table1();
    let dac = Dac::new(12, 1.0);
    let mut all_codes = Vec::new();
    for cw in 0..7u16 {
        let w = lib.get(cw).expect("populated");
        for s in w.i.iter().chain(w.q.iter()) {
            all_codes.push(dac.quantize(*s));
        }
    }
    let packed = pack_codes(&all_codes, 12);
    assert_eq!(packed.len(), 420);
    let unpacked = unpack_codes(&packed, 12, all_codes.len());
    assert_eq!(unpacked, all_codes, "wave memory contents survive packing");
}

//! Codeword-triggered pulse generation (Section 5.1.1, Table 1).
//!
//! The CTPG stores a small lookup table of calibrated primitive pulses,
//! indexed by codeword, and converts a digitally stored pulse into an
//! analog one when (and only when) it receives a codeword trigger — with a
//! fixed trigger-to-output delay (80 ns in the paper's implementation).
//!
//! Pulses are stored *pre-modulated* at the single-sideband frequency with
//! phase referenced to t = 0, exactly as the experiment uploads them. The
//! drive axis is therefore only correct when the trigger lands on a cycle
//! commensurate with the SSB period (20 ns for 50 MHz); this is the
//! physical root of the paper's timing-accuracy requirement and is
//! reproduced faithfully by this model.

use crate::uop_unit::Codeword;
use quma_qsim::complex::C64;
use quma_qsim::gates::PrimitiveGate;
use quma_signal::dac::{memory_bytes, Dac};
use quma_signal::envelope::Envelope;
use quma_signal::ssb::SsbModulator;
use quma_signal::waveform::IqWaveform;
use std::sync::Arc;

/// A lookup table of codeword-indexed pulses (the CTPG wave memory).
#[derive(Debug, Clone)]
pub struct PulseLibrary {
    entries: Vec<Option<IqWaveform>>,
    sample_rate: f64,
}

impl PulseLibrary {
    /// An empty library with `slots` codeword entries.
    pub fn new(slots: usize, sample_rate: f64) -> Self {
        Self {
            entries: vec![None; slots],
            sample_rate,
        }
    }

    /// Stores a pulse at a codeword slot.
    pub fn set(&mut self, cw: Codeword, pulse: IqWaveform) {
        assert!(
            (cw as usize) < self.entries.len(),
            "codeword {cw} out of range"
        );
        assert_eq!(pulse.sample_rate, self.sample_rate, "sample-rate mismatch");
        self.entries[cw as usize] = Some(pulse);
    }

    /// Fetches the pulse for a codeword.
    pub fn get(&self, cw: Codeword) -> Option<&IqWaveform> {
        self.entries.get(cw as usize).and_then(Option::as_ref)
    }

    /// Number of populated entries.
    pub fn populated(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Sample rate of the stored pulses.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Total stored samples across both quadratures (I and Q count
    /// separately, as in the paper's §5.1.1 accounting).
    pub fn total_samples(&self) -> usize {
        self.entries.iter().flatten().map(|w| 2 * w.len()).sum()
    }

    /// Wave-memory footprint in bytes at `bits` per sample (the paper uses
    /// 12-bit samples for its 420-byte figure).
    pub fn memory_bytes(&self, bits: u8) -> usize {
        memory_bytes(self.total_samples(), bits)
    }

    /// Returns a copy with every pulse's amplitude scaled by `k` — the
    /// "power error" knob used to produce AllXY error signatures.
    pub fn with_amplitude_scale(&self, k: f64) -> Self {
        Self {
            entries: self
                .entries
                .iter()
                .map(|e| e.as_ref().map(|w| w.scaled(k)))
                .collect(),
            sample_rate: self.sample_rate,
        }
    }
}

/// Builds the Table 1 pulse library: codewords 0–6 hold I, X(π), X(π/2),
/// X(−π/2), Y(π), Y(π/2), Y(−π/2), each a Gaussian envelope calibrated so
/// its demodulated area times `rabi_coefficient` equals the target angle,
/// pre-modulated at the SSB frequency with phase reference t = 0.
#[derive(Debug, Clone)]
pub struct PulseLibraryBuilder {
    /// Gate-pulse duration in seconds (paper: 20 ns).
    pub pulse_duration: f64,
    /// AWG sample rate (paper: 1 GS/s).
    pub sample_rate: f64,
    /// SSB modulator (paper: −50 MHz).
    pub ssb: SsbModulator,
    /// The target qubit's Rabi coefficient (rad per unit-amplitude·second).
    pub rabi_coefficient: f64,
}

impl PulseLibraryBuilder {
    /// Paper defaults with the given Rabi coefficient.
    pub fn paper_default(rabi_coefficient: f64) -> Self {
        Self {
            pulse_duration: 20e-9,
            sample_rate: 1e9,
            ssb: SsbModulator::paper_default(),
            rabi_coefficient,
        }
    }

    /// Builds the 7-entry Table 1 library.
    pub fn build_table1(&self) -> PulseLibrary {
        let mut lib = PulseLibrary::new(PrimitiveGate::ALL.len(), self.sample_rate);
        for (cw, gate) in PrimitiveGate::ALL.iter().enumerate() {
            lib.set(cw as Codeword, self.pulse_for(*gate));
        }
        lib
    }

    /// Builds the calibrated, SSB-modulated pulse for one primitive gate.
    pub fn pulse_for(&self, gate: PrimitiveGate) -> IqWaveform {
        let angle = gate.angle();
        if angle == 0.0 {
            // Identity: a stored all-zero pulse slot (still consumes memory,
            // as in the paper's 7-pulse accounting).
            let n = (self.pulse_duration * self.sample_rate).round() as usize;
            return IqWaveform::zeros(n, self.sample_rate);
        }
        let envelope = Envelope::standard_gaussian(self.pulse_duration, 1.0);
        let target_area = angle.abs() / self.rabi_coefficient;
        let envelope = envelope.with_area(target_area, self.sample_rate);
        // Axis phase: x = 0, y = π/2; negative rotations flip the axis.
        let mut phase = match gate.axis() {
            quma_qsim::gates::Axis::X => 0.0,
            quma_qsim::gates::Axis::Y => std::f64::consts::FRAC_PI_2,
            _ => unreachable!("Table 1 primitives are equatorial"),
        };
        if angle < 0.0 {
            phase += std::f64::consts::PI;
        }
        let baseband = IqWaveform::from_envelope(&envelope, phase, self.sample_rate);
        self.ssb.modulate(&baseband, 0.0)
    }
}

/// The codeword-triggered pulse generation unit of one AWG.
///
/// Its wave memory holds every stored pulse DAC-ready: quantized once,
/// when the library is set ([`Ctpg::new`], [`Ctpg::upload`]), so a
/// trigger only shares the stored samples and stamps their start time.
#[derive(Debug, Clone)]
pub struct Ctpg {
    library: PulseLibrary,
    /// Per codeword: the library's pulse as the DAC plays it, complex
    /// baseband `I + iQ`.
    wave_memory: Vec<Option<Arc<[C64]>>>,
    /// Fixed trigger-to-output delay in cycles (paper: 80 ns = 16 cycles).
    delay_cycles: u32,
    /// Cycle period in seconds (paper: 5 ns).
    cycle_time: f64,
    dac: Dac,
    triggers: u64,
}

/// A pulse scheduled for play-out on the analog output.
#[derive(Debug, Clone, PartialEq)]
pub struct PlayedPulse {
    /// Absolute start time in seconds (trigger cycle + fixed delay).
    pub start: f64,
    /// DAC-quantized complex baseband samples, shared with the wave memory.
    pub samples: Arc<[C64]>,
    /// Sample period in seconds.
    pub sample_period: f64,
    /// The codeword that produced it.
    pub codeword: Codeword,
}

/// Error: a codeword with no stored pulse was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownCodeword(pub Codeword);

impl std::fmt::Display for UnknownCodeword {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codeword {} has no pulse in the lookup table", self.0)
    }
}

impl std::error::Error for UnknownCodeword {}

impl Ctpg {
    /// Creates a CTPG over a pulse library with the paper's fixed delay and
    /// a 14-bit output DAC.
    pub fn new(library: PulseLibrary, delay_cycles: u32, cycle_time: f64) -> Self {
        let dac = Dac::paper_awg();
        Self {
            wave_memory: quantize(&library, &dac),
            library,
            delay_cycles,
            cycle_time,
            dac,
            triggers: 0,
        }
    }

    /// The pulse library (wave memory).
    pub fn library(&self) -> &PulseLibrary {
        &self.library
    }

    /// Replaces the library (re-upload, e.g. after recalibration or for
    /// error-injection experiments), quantizing it into the wave memory.
    pub fn upload(&mut self, library: PulseLibrary) {
        self.wave_memory = quantize(&library, &self.dac);
        self.library = library;
    }

    /// The fixed trigger-to-output delay in cycles.
    pub fn delay_cycles(&self) -> u32 {
        self.delay_cycles
    }

    /// Number of triggers received.
    pub fn triggers(&self) -> u64 {
        self.triggers
    }

    /// Zeroes the trigger counter (called on device reset so run statistics
    /// are per-run, matching a freshly built device).
    pub fn reset_triggers(&mut self) {
        self.triggers = 0;
    }

    /// Handles a codeword trigger arriving at absolute cycle `cycle`:
    /// returns the pulse that will play `delay_cycles` later.
    pub fn trigger(&mut self, cw: Codeword, cycle: u64) -> Result<PlayedPulse, UnknownCodeword> {
        let samples = self
            .wave_memory
            .get(cw as usize)
            .and_then(Option::as_ref)
            .ok_or(UnknownCodeword(cw))?;
        self.triggers += 1;
        Ok(PlayedPulse {
            start: (cycle + u64::from(self.delay_cycles)) as f64 * self.cycle_time,
            samples: Arc::clone(samples),
            sample_period: 1.0 / self.library.sample_rate(),
            codeword: cw,
        })
    }
}

/// The wave memory of `library`: each populated codeword's pulse passed
/// through `dac`, quadrature by quadrature.
fn quantize(library: &PulseLibrary, dac: &Dac) -> Vec<Option<Arc<[C64]>>> {
    library
        .entries
        .iter()
        .map(|entry| {
            entry.as_ref().map(|wave| {
                wave.i
                    .iter()
                    .zip(&wave.q)
                    .map(|(&i, &q)| C64::new(dac.convert(i), dac.convert(q)))
                    .collect()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quma_qsim::transmon::{Transmon, TransmonParams};
    use std::f64::consts::PI;

    const CYCLE: f64 = 5e-9;

    fn builder() -> PulseLibraryBuilder {
        PulseLibraryBuilder::paper_default(PI / 10e-9)
    }

    /// The per-trigger conversion the wave memory replaced, kept frozen
    /// as the reference it must reproduce bit for bit.
    fn reference_trigger(ctpg: &Ctpg, cw: Codeword, cycle: u64) -> Option<PlayedPulse> {
        let wave = ctpg.library().get(cw)?;
        let dac = Dac::paper_awg();
        Some(PlayedPulse {
            start: (cycle + u64::from(ctpg.delay_cycles())) as f64 * CYCLE,
            samples: wave
                .to_complex()
                .iter()
                .map(|z| C64::new(dac.convert(z.re), dac.convert(z.im)))
                .collect(),
            sample_period: 1.0 / wave.sample_rate,
            codeword: cw,
        })
    }

    /// Every codeword slot of `ctpg` (and one past the end) triggers
    /// exactly as the reference conversion of its current library.
    fn assert_plays_reference(ctpg: &mut Ctpg) {
        let slots = ctpg.library().entries.len() as Codeword;
        for cw in 0..=slots {
            let cycle = 40_000 + u64::from(cw);
            match reference_trigger(ctpg, cw, cycle) {
                Some(want) => assert_eq!(ctpg.trigger(cw, cycle), Ok(want), "codeword {cw}"),
                None => assert_eq!(ctpg.trigger(cw, cycle), Err(UnknownCodeword(cw))),
            }
        }
    }

    fn calibrated_transmon() -> Transmon {
        let mut p = TransmonParams::ideal();
        p.rabi_coefficient = PI / 10e-9;
        Transmon::new(p)
    }

    #[test]
    fn table1_library_has_seven_pulses() {
        let lib = builder().build_table1();
        assert_eq!(lib.populated(), 7);
        // 7 pulses × 2 quadratures × 20 samples = 280 samples → 420 bytes
        // at 12 bits (the paper's §5.1.1 number).
        assert_eq!(lib.total_samples(), 280);
        assert_eq!(lib.memory_bytes(12), 420);
    }

    #[test]
    fn triggered_x180_excites_ideal_qubit() {
        let lib = builder().build_table1();
        let mut ctpg = Ctpg::new(lib, 16, CYCLE);
        let mut q = calibrated_transmon();
        // Trigger X(π) (codeword 1) at cycle 40000: starts at cycle 40016,
        // i.e. t = 200.08 µs — a multiple of the 20 ns SSB period, so the
        // axis is exact.
        let p = ctpg.trigger(1, 40000).unwrap();
        assert!((p.start - 40016.0 * CYCLE).abs() < 1e-15);
        q.drive(&p.samples, p.start, p.sample_period);
        assert!((q.p1() - 1.0).abs() < 1e-4, "p1 = {}", q.p1());
        assert_eq!(ctpg.triggers(), 1);
    }

    #[test]
    fn x90_and_xm90_cancel() {
        let lib = builder().build_table1();
        let mut ctpg = Ctpg::new(lib, 16, CYCLE);
        let mut q = calibrated_transmon();
        let p1 = ctpg.trigger(2, 0).unwrap(); // X90 → plays at cycle 16
        q.drive(&p1.samples, p1.start, p1.sample_period);
        let p2 = ctpg.trigger(3, 4).unwrap(); // mX90 → plays at cycle 20
        q.drive(&p2.samples, p2.start, p2.sample_period);
        assert!(q.p1() < 1e-4, "p1 = {}", q.p1());
    }

    #[test]
    fn y180_rotates_about_y() {
        let lib = builder().build_table1();
        let mut ctpg = Ctpg::new(lib, 16, CYCLE);
        let mut q = calibrated_transmon();
        // Y90 (codeword 5): |0⟩ → (|0⟩+|1⟩)/√2 with Bloch vector +x.
        let p = ctpg.trigger(5, 0).unwrap();
        q.drive(&p.samples, p.start, p.sample_period);
        let [x, _, z] = q.state().bloch_vector();
        assert!(x > 0.999, "x = {x}");
        assert!(z.abs() < 1e-3);
    }

    #[test]
    fn five_ns_trigger_skew_rotates_axis() {
        // The paper's marquee timing hazard: triggering the same stored
        // X(π/2) pulse one cycle (5 ns) late turns it into a ±y rotation.
        let lib = builder().build_table1();
        let mut ctpg = Ctpg::new(lib, 16, CYCLE);
        let mut q = calibrated_transmon();
        let p = ctpg.trigger(2, 1).unwrap(); // X90 triggered at cycle 1, not 0
        q.drive(&p.samples, p.start, p.sample_period);
        let [x, y, _] = q.state().bloch_vector();
        // On-time X90 leaves the Bloch vector on ±y; a 5 ns skew moves it
        // onto ±x instead.
        assert!(x.abs() > 0.999, "x = {x}, y = {y}");
        assert!(y.abs() < 1e-3);
    }

    #[test]
    fn identity_pulse_is_all_zero() {
        let lib = builder().build_table1();
        let w = lib.get(0).unwrap();
        assert!(w.i.iter().chain(w.q.iter()).all(|&s| s == 0.0));
        assert_eq!(w.len(), 20);
    }

    #[test]
    fn unknown_codeword_is_an_error() {
        let lib = builder().build_table1();
        let mut ctpg = Ctpg::new(lib, 16, CYCLE);
        assert_eq!(ctpg.trigger(42, 0), Err(UnknownCodeword(42)));
    }

    #[test]
    fn amplitude_scale_produces_under_rotation() {
        let lib = builder().build_table1().with_amplitude_scale(0.9);
        let mut ctpg = Ctpg::new(lib, 16, CYCLE);
        let mut q = calibrated_transmon();
        let p = ctpg.trigger(1, 0).unwrap(); // 10% weak X180
        q.drive(&p.samples, p.start, p.sample_period);
        let expected = (0.9f64 * PI / 2.0).sin().powi(2);
        assert!((q.p1() - expected).abs() < 1e-3, "p1 = {}", q.p1());
    }

    #[test]
    fn dac_quantization_error_is_small() {
        // 14-bit quantization must not visibly corrupt gate fidelity.
        let lib = builder().build_table1();
        let mut ctpg = Ctpg::new(lib, 16, CYCLE);
        let mut q = calibrated_transmon();
        let p = ctpg.trigger(1, 0).unwrap();
        q.drive(&p.samples, p.start, p.sample_period);
        assert!(q.p1() > 0.9999);
    }

    #[test]
    fn upload_swaps_library() {
        let lib = builder().build_table1();
        let mut ctpg = Ctpg::new(lib, 16, CYCLE);
        ctpg.upload(builder().build_table1().with_amplitude_scale(0.5));
        let p = ctpg.trigger(1, 0).unwrap();
        let mut q = calibrated_transmon();
        q.drive(&p.samples, p.start, p.sample_period);
        assert!((q.p1() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn wave_memory_plays_the_per_trigger_conversion() {
        let mut ctpg = Ctpg::new(builder().build_table1(), 16, CYCLE);
        assert_plays_reference(&mut ctpg);
        // A sparse library: an empty slot between populated ones.
        let mut lib = PulseLibrary::new(4, 1e9);
        lib.set(0, builder().pulse_for(PrimitiveGate::ALL[1]));
        lib.set(3, builder().pulse_for(PrimitiveGate::ALL[5]));
        let mut sparse = Ctpg::new(lib, 16, CYCLE);
        assert_plays_reference(&mut sparse);
        assert_eq!(sparse.trigger(1, 0), Err(UnknownCodeword(1)));
        assert_eq!(sparse.triggers(), 2, "failed triggers are not counted");
    }

    #[test]
    fn upload_replaces_the_played_wave_memory() {
        let mut ctpg = Ctpg::new(builder().build_table1(), 16, CYCLE);
        let before = ctpg.trigger(1, 0).unwrap();
        // AllXY's power-error path: re-upload a scaled copy.
        let scaled = ctpg.library().with_amplitude_scale(0.9);
        ctpg.upload(scaled);
        assert_plays_reference(&mut ctpg);
        assert_ne!(ctpg.trigger(1, 0).unwrap().samples, before.samples);
        // A smaller library: the codewords it dropped become unknown.
        let mut lib = PulseLibrary::new(2, 1e9);
        lib.set(1, builder().pulse_for(PrimitiveGate::ALL[2]));
        ctpg.upload(lib);
        assert_plays_reference(&mut ctpg);
        assert_eq!(ctpg.trigger(5, 0), Err(UnknownCodeword(5)));
    }
}

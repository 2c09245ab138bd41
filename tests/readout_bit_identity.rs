//! Cross-commit bit-identity pin for the readout path.
//!
//! The differential suites compare two paths built from the same source,
//! so a drift that moves every path alike (say, a reordered sum in the
//! MDU integral) passes them all. This suite instead folds every
//! observable a readout feeds — each `MdRecord`'s `s` bits, bit and
//! `T_D`, the data-collector averages and the final registers — into one
//! FNV-1a digest per scenario and compares it with a constant recorded
//! from the trace-synthesis implementation. Any change to the projection
//! or readout-noise stream, the ADC, or the integration order shows up
//! here.

use quma::compiler::prelude::RepetitionCode;
use quma::core::prelude::*;
use quma::experiments::prelude::QecConfig;
use quma::experiments::qec::device_config;
use quma::isa::prelude::{Assembler, Program};

/// Two windows per shot on two qubits: a 300-cycle window (1500 samples)
/// and a 77-cycle one (385 samples — odd, so the Box–Muller half left
/// over at the end of the window is discarded). The X90s make both
/// outcomes occur.
const TWO_WINDOWS: &str = "\
    mov r15, 40000
    QNopReg r15
    Pulse {q0, q1}, X90
    Wait 4
    MPG {q0}, 300
    MD {q0}, r7
    Wait 400
    MPG {q1}, 77
    MD {q1}, r8
    Wait 200
    MPG {q0, q1}, 77
    MD {q0}, r9
    MD {q1}, r10
    Wait 200
    halt
";

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &RunReport) {
        self.word(r.md_results.len() as u64);
        for md in &r.md_results {
            self.word(md.s.to_bits());
            self.word(u64::from(md.bit));
            self.word(md.td);
            self.word(md.qubit as u64);
        }
        for per_qubit in &r.collector_averages {
            self.word(per_qubit.len() as u64);
            for avg in per_qubit {
                self.word(avg.to_bits());
            }
        }
        for reg in r.registers {
            self.word(u64::from(reg as u32));
        }
    }
}

fn digest_shots(cfg: DeviceConfig, program: &Program, shots: u64) -> (u64, usize) {
    let mut session = Session::new(cfg).expect("config valid");
    let loaded = session.load(program);
    let batch = session.run_shots(&loaded, shots).expect("batch runs");
    let mut d = Digest::new();
    for r in &batch.shots {
        d.report(r);
    }
    (d.0, batch.total_md_results())
}

fn two_windows(chip: ChipProfile) -> (DeviceConfig, Program) {
    let cfg = DeviceConfig {
        num_qubits: 2,
        chip,
        chip_seed: 0x5EED,
        ..DeviceConfig::default()
    };
    let program = Assembler::new().assemble(TWO_WINDOWS).expect("assembles");
    (cfg, program)
}

fn qec(distance: usize, profile: ChipProfile) -> (DeviceConfig, Program) {
    let cfg = QecConfig {
        distance,
        profile,
        ..QecConfig::default()
    };
    let program = RepetitionCode::new(cfg.distance, cfg.rounds).compile();
    (device_config(&cfg), program)
}

#[test]
fn ideal_two_window_shots_are_pinned() {
    let (cfg, program) = two_windows(ChipProfile::Ideal);
    assert_eq!(
        digest_shots(cfg, &program, 300),
        (10119877623199885383, 1200)
    );
}

#[test]
fn paper_two_window_shots_are_pinned() {
    let (cfg, program) = two_windows(ChipProfile::Paper);
    assert_eq!(
        digest_shots(cfg, &program, 300),
        (7922728117544059323, 1200)
    );
}

#[test]
fn paper_distance3_qec_shots_are_pinned() {
    let (cfg, program) = qec(3, ChipProfile::Paper);
    assert_eq!(digest_shots(cfg, &program, 16), (9445550004479371098, 112));
}

#[test]
fn stabilizer_distance7_qec_shots_are_pinned() {
    let (cfg, program) = qec(7, ChipProfile::Stabilizer);
    assert_eq!(digest_shots(cfg, &program, 16), (5959084066429050949, 304));
}

/// `(measurements, readout Gaussians)` of each shot of a batch.
fn readout_draws(cfg: DeviceConfig, program: &Program, shots: u64) -> Vec<(u64, u64)> {
    let mut session = Session::new(cfg).expect("config valid");
    let loaded = session.load(program);
    let batch = session.run_shots(&loaded, shots).expect("batch runs");
    batch
        .shots
        .iter()
        .map(|r| (r.stats.measurements, r.stats.readout_gaussians))
        .collect()
}

/// The quickstart segment: initialise, two `X90`s, one 1500-sample window.
const QUICKSTART: &str = "\
    mov r15, 40000
    QNopReg r15
    Pulse {q0}, X90
    Wait 4
    Pulse {q0}, X90
    Wait 4
    MPG {q0}, 300
    MD {q0}, r7
    halt
";

#[test]
fn noiseless_chains_generate_no_readout_gaussians() {
    // 19 windows of 1500 samples per d = 7 shot (2 rounds × 6 ancillas
    // + 7 data qubits), all decided at calibration.
    let (cfg, program) = qec(7, ChipProfile::Stabilizer);
    assert_eq!(readout_draws(cfg, &program, 4), vec![(19, 0); 4]);
    let (cfg, program) = two_windows(ChipProfile::Ideal);
    assert_eq!(readout_draws(cfg, &program, 4), vec![(4, 0); 4]);
}

#[test]
fn noisy_chains_generate_one_gaussian_per_window_sample() {
    let cfg = DeviceConfig {
        chip: ChipProfile::Paper,
        ..DeviceConfig::default()
    };
    let program = Assembler::new().assemble(QUICKSTART).expect("assembles");
    assert_eq!(readout_draws(cfg, &program, 4), vec![(1, 1500); 4]);
    // 1500 + 385 + 2 · 385 samples over the four windows.
    let (cfg, program) = two_windows(ChipProfile::Paper);
    assert_eq!(readout_draws(cfg, &program, 4), vec![(4, 2655); 4]);
}

/// `(RNG words stepped, RNG words jumped, exact Box–Muller fallbacks)` of
/// each shot of a batch.
fn rng_words(cfg: DeviceConfig, program: &Program, shots: u64) -> Vec<(u64, u64, u64)> {
    let mut session = Session::new(cfg).expect("config valid");
    let loaded = session.load(program);
    let batch = session.run_shots(&loaded, shots).expect("batch runs");
    batch
        .shots
        .iter()
        .map(|r| {
            let s = &r.stats;
            (s.rng_words_stepped, s.rng_words_jumped, s.readout_fallbacks)
        })
        .collect()
}

#[test]
fn a_noisy_quickstart_shot_steps_its_window_words() {
    // One projection plus 750 Box–Muller pairs; no window is skipped and
    // every sample's code is settled without the exact pair.
    let cfg = DeviceConfig {
        chip: ChipProfile::Paper,
        ..DeviceConfig::default()
    };
    let program = Assembler::new().assemble(QUICKSTART).expect("assembles");
    let counts = rng_words(cfg.clone(), &program, 4);
    assert_eq!(counts, vec![(1 + 1500, 0, 0); 4]);
    assert_eq!(rng_words(cfg, &program, 4), counts, "repeats exactly");
    // Four projections plus 1500 + 3 · 386 words (odd windows draw their
    // last pair whole).
    let (cfg, program) = two_windows(ChipProfile::Paper);
    assert_eq!(rng_words(cfg, &program, 4), vec![(4 + 2658, 0, 0); 4]);
}

#[test]
fn a_noiseless_qec_shot_jumps_its_window_words() {
    // 19 projections stepped; 19 windows of 1500 samples jumped past.
    let (cfg, program) = qec(7, ChipProfile::Stabilizer);
    let counts = rng_words(cfg.clone(), &program, 4);
    assert_eq!(counts, vec![(19, 19 * 1500, 0); 4]);
    assert_eq!(rng_words(cfg, &program, 4), counts, "repeats exactly");
}

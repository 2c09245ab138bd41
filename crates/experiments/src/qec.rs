//! Repetition-code QEC experiment driver on the batch shot engine.
//!
//! The paper's headline capability is conditional execution fast enough
//! to act *within* an experiment ("the feedback control determines the
//! next operations based on the result of measurements", §4.2.1). This
//! driver runs the canonical multi-qubit stress of that path — a
//! distance-3/5 bit-flip repetition code whose syndrome decoder and
//! ancilla resets are branch instructions in the running program — and
//! reports logical error rates over a distance × rounds × injected-error
//! sweep. It runs through the harness as two [`Experiment`]s: a fixed
//! injection pattern is a derived-seed shot batch
//! ([`ExecutionMode::Shots`]), while sampled per-shot error patterns are
//! structurally distinct programs ([`ExecutionMode::ProgramSweep`], each
//! distinct pattern compiled once and `Arc`-shared across its shots).
//! [`QecCompiled`] is the fixed-pattern point with its program compiled
//! by the caller, so a serving layer can compile it once per pattern.
//! None of them changes its device, so a pool serves them on warm
//! sessions ([`Experiment::mutates_device`]).

use crate::harness::{self, ExecutionMode, Experiment, ExperimentError, SweepAxes, SweepPoint};
use crate::stats::{mean, sem};
use quma_compiler::prelude::{data_reg, InjectedX, RepetitionCode};
use quma_core::prelude::{ChipProfile, DeviceConfig, RunReport, TraceLevel};
use quma_isa::program::Program;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// QEC experiment configuration.
#[derive(Debug, Clone)]
pub struct QecConfig {
    /// Code distance: odd, in `3..=25`. Distances above 5 exceed the
    /// exact register chip (`2d − 1 > 10` qubits) and require
    /// [`ChipProfile::Stabilizer`].
    pub distance: usize,
    /// Syndrome rounds per shot.
    pub rounds: usize,
    /// Shots per point.
    pub shots: u64,
    /// Probability of an injected X per data qubit per round (compiled
    /// into each shot's program from `injection_seed`; 0 = clean).
    pub error_rate: f64,
    /// Prepare (and expect) logical `|1⟩` instead of `|0⟩`.
    pub logical_one: bool,
    /// Emit the feedback decoder (off = syndrome recording only, the
    /// ablation baseline).
    pub feedback: bool,
    /// Chip profile (ideal for deterministic recovery, paper for noisy).
    pub profile: ChipProfile,
    /// Chip RNG base seed.
    pub chip_seed: u64,
    /// Host RNG seed for sampling injected errors.
    pub injection_seed: u64,
    /// Worker threads (1 = sequential, 0 = one per available core):
    /// shards the fixed-program batch and the sampled-error sweep across
    /// device clones, bit-identical to sequential either way.
    pub threads: usize,
    /// Initialization idle in cycles.
    pub init_cycles: u32,
}

impl Default for QecConfig {
    fn default() -> Self {
        Self {
            distance: 3,
            rounds: 2,
            shots: 32,
            error_rate: 0.0,
            logical_one: false,
            feedback: true,
            profile: ChipProfile::Ideal,
            chip_seed: 0x0EC,
            injection_seed: 0x1517,
            threads: 1,
            init_cycles: 2000,
        }
    }
}

/// One completed QEC point.
#[derive(Debug, Clone)]
pub struct QecResult {
    /// Code distance.
    pub distance: usize,
    /// Syndrome rounds.
    pub rounds: usize,
    /// Shots run.
    pub shots: u64,
    /// Injected-error probability of this point.
    pub error_rate: f64,
    /// Shots whose majority-voted data readout disagreed with the
    /// prepared logical state.
    pub logical_errors: u64,
    /// `logical_errors / shots`.
    pub logical_error_rate: f64,
    /// Standard error of the logical error rate.
    pub error_sem: f64,
    /// Total X180s injected across all shots.
    pub injected_flips: u64,
    /// Per-shot majority-voted logical readout.
    pub majority_bits: Vec<u8>,
}

/// The device configuration a QEC point runs on.
///
/// # Panics
///
/// Above distance 5 the layout needs `2d − 1 > 10` qubits, more than the
/// exact register chip simulates; such points must select
/// [`ChipProfile::Stabilizer`].
pub fn device_config(cfg: &QecConfig) -> DeviceConfig {
    assert!(
        cfg.distance <= 5 || cfg.profile == ChipProfile::Stabilizer,
        "distance {} needs {} qubits: beyond the exact register chip, \
         select ChipProfile::Stabilizer",
        cfg.distance,
        2 * cfg.distance - 1
    );
    DeviceConfig {
        num_qubits: 2 * cfg.distance - 1,
        chip: cfg.profile,
        chip_seed: cfg.chip_seed,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

/// The program builder for a point (injections added per shot).
pub fn code_for(cfg: &QecConfig) -> RepetitionCode {
    let mut code = RepetitionCode::new(cfg.distance, cfg.rounds);
    code.logical_one = cfg.logical_one;
    code.feedback = cfg.feedback;
    code.init_cycles = cfg.init_cycles;
    code
}

/// Majority vote over the final data-qubit readout. Up to distance 5 the
/// readout fans out into the `r8..` data registers; above that the
/// program ends with a bare `MPG`/`MD` over all data qubits, so the vote
/// reads the last `distance` discrimination records instead.
pub fn majority_bit(report: &RunReport, distance: usize) -> u8 {
    let ones: usize = if distance <= 5 {
        (0..distance)
            .map(|j| report.registers[data_reg(j).index() as usize] as usize)
            .sum()
    } else {
        let records = &report.md_results;
        assert!(
            records.len() >= distance,
            "final data readout missing from discrimination records"
        );
        records[records.len() - distance..]
            .iter()
            .map(|r| r.bit as usize)
            .sum()
    };
    u8::from(ones * 2 > distance)
}

fn summarize(cfg: &QecConfig, reports: &[RunReport], injected_flips: u64) -> QecResult {
    let expected = u8::from(cfg.logical_one);
    let majority_bits: Vec<u8> = reports
        .iter()
        .map(|r| majority_bit(r, cfg.distance))
        .collect();
    let indicators: Vec<f64> = majority_bits
        .iter()
        .map(|&b| f64::from(b != expected))
        .collect();
    let logical_errors = indicators.iter().filter(|&&x| x > 0.5).count() as u64;
    QecResult {
        distance: cfg.distance,
        rounds: cfg.rounds,
        shots: cfg.shots,
        error_rate: cfg.error_rate,
        logical_errors,
        logical_error_rate: mean(&indicators),
        error_sem: sem(&indicators),
        injected_flips,
        majority_bits,
    }
}

/// The fixed-injection QEC experiment: one compiled program, `shots`
/// derived-seed shots.
#[derive(Debug, Clone, Default)]
pub struct QecInjected {
    /// The X180s compiled into every shot.
    pub injections: Vec<InjectedX>,
}

impl QecInjected {
    /// The program builder for `cfg` with these injections. It holds
    /// every compile input, so its `Debug` form can key a program cache.
    pub fn code(&self, cfg: &QecConfig) -> RepetitionCode {
        let mut code = code_for(cfg);
        code.injected_x.extend_from_slice(&self.injections);
        code
    }
}

impl Experiment for QecInjected {
    type Config = QecConfig;
    type Output = QecResult;

    fn name(&self) -> &'static str {
        "qec-injected"
    }

    fn device_config(&self, cfg: &QecConfig) -> DeviceConfig {
        device_config(cfg)
    }

    fn axes(&self, cfg: &QecConfig) -> Result<SweepAxes, ExperimentError> {
        QecCompiled::new(self.clone(), cfg).axes(cfg)
    }

    fn analyze(
        &self,
        cfg: &QecConfig,
        _axes: &SweepAxes,
        reports: &[RunReport],
    ) -> Result<QecResult, ExperimentError> {
        Ok(summarize(
            cfg,
            reports,
            self.injections.len() as u64 * cfg.shots,
        ))
    }

    fn mutates_device(&self) -> bool {
        false
    }
}

/// A [`QecInjected`] point whose program is already compiled: what a
/// serving layer submits after fetching the program from a cache keyed
/// on [`QecInjected::code`]. It runs and analyzes exactly as the
/// `QecInjected` it was compiled from.
#[derive(Debug, Clone)]
pub struct QecCompiled {
    /// The experiment the program was compiled from.
    pub injected: QecInjected,
    /// `injected.code(cfg).compile()` for the config the point runs with.
    pub program: Arc<Program>,
}

impl QecCompiled {
    /// Compiles `injected` for `cfg`.
    pub fn new(injected: QecInjected, cfg: &QecConfig) -> Self {
        let program = Arc::new(injected.code(cfg).compile());
        Self { injected, program }
    }
}

impl Experiment for QecCompiled {
    type Config = QecConfig;
    type Output = QecResult;

    fn name(&self) -> &'static str {
        self.injected.name()
    }

    fn device_config(&self, cfg: &QecConfig) -> DeviceConfig {
        device_config(cfg)
    }

    fn axes(&self, cfg: &QecConfig) -> Result<SweepAxes, ExperimentError> {
        Ok(SweepAxes::new(
            Vec::new(),
            ExecutionMode::Shots {
                program: Arc::clone(&self.program),
                shots: cfg.shots,
            },
        )
        .with_threads(cfg.threads))
    }

    fn analyze(
        &self,
        cfg: &QecConfig,
        axes: &SweepAxes,
        reports: &[RunReport],
    ) -> Result<QecResult, ExperimentError> {
        self.injected.analyze(cfg, axes, reports)
    }

    fn mutates_device(&self) -> bool {
        false
    }
}

/// The sampled-injection QEC experiment: each shot's error pattern is
/// drawn from `injection_seed` and compiled into its own program (each
/// distinct pattern once).
#[derive(Debug, Clone, Copy, Default)]
pub struct QecSampled;

impl Experiment for QecSampled {
    type Config = QecConfig;
    type Output = QecResult;

    fn name(&self) -> &'static str {
        "qec-sampled"
    }

    fn device_config(&self, cfg: &QecConfig) -> DeviceConfig {
        device_config(cfg)
    }

    fn axes(&self, cfg: &QecConfig) -> Result<SweepAxes, ExperimentError> {
        let mut rng = StdRng::seed_from_u64(cfg.injection_seed);
        // Most shots at realistic rates sample few distinct injection
        // patterns (usually the empty one), so compile each pattern once
        // and share it across its shots.
        let mut compiled: HashMap<Vec<(usize, usize)>, Arc<Program>> = HashMap::new();
        let mut points = Vec::with_capacity(cfg.shots as usize);
        for _ in 0..cfg.shots {
            let mut pattern: Vec<(usize, usize)> = Vec::new();
            for round in 0..cfg.rounds {
                for data in 0..cfg.distance {
                    if rng.random::<f64>() < cfg.error_rate {
                        pattern.push((round, data));
                    }
                }
            }
            let flips = pattern.len();
            let program = compiled
                .entry(pattern)
                .or_insert_with_key(|pattern| {
                    let mut code = code_for(cfg);
                    code.injected_x.extend(
                        pattern
                            .iter()
                            .map(|&(round, data)| InjectedX { round, data }),
                    );
                    Arc::new(code.compile())
                })
                .clone();
            points.push(SweepPoint {
                x: flips as f64,
                program: Some(program),
                ..SweepPoint::default()
            });
        }
        Ok(SweepAxes::new(points, ExecutionMode::ProgramSweep).with_threads(cfg.threads))
    }

    fn analyze(
        &self,
        cfg: &QecConfig,
        axes: &SweepAxes,
        reports: &[RunReport],
    ) -> Result<QecResult, ExperimentError> {
        let injected_flips = axes.points.iter().map(|p| p.x as u64).sum();
        Ok(summarize(cfg, reports, injected_flips))
    }

    fn mutates_device(&self) -> bool {
        false
    }
}

/// Runs one QEC point.
///
/// * `error_rate == 0` (or an explicit injection set via [`run_injected`])
///   executes one fixed program through the batch engine — sequentially,
///   or sharded across `threads` device clones with identical derived
///   seeds when `threads > 1`;
/// * `error_rate > 0` samples an injection pattern per shot from
///   `injection_seed` (compiling each distinct pattern once) and drives
///   the per-shot programs through the engine's sweep path.
pub fn run(cfg: &QecConfig) -> Result<QecResult, ExperimentError> {
    if cfg.error_rate == 0.0 {
        return run_injected(cfg, &[]);
    }
    harness::run(&QecSampled, cfg)
}

/// Runs one point with a fixed, explicit injection pattern compiled into
/// every shot (the deterministic recovery harness).
pub fn run_injected(
    cfg: &QecConfig,
    injections: &[InjectedX],
) -> Result<QecResult, ExperimentError> {
    harness::run(
        &QecInjected {
            injections: injections.to_vec(),
        },
        cfg,
    )
}

/// Runs the full distance × rounds × error-rate grid, sharing the base
/// configuration.
pub fn run_grid(
    base: &QecConfig,
    distances: &[usize],
    rounds: &[usize],
    error_rates: &[f64],
) -> Result<Vec<QecResult>, ExperimentError> {
    let mut out = Vec::with_capacity(distances.len() * rounds.len() * error_rates.len());
    for &distance in distances {
        for &r in rounds {
            for &error_rate in error_rates {
                let cfg = QecConfig {
                    distance,
                    rounds: r,
                    error_rate,
                    ..base.clone()
                };
                out.push(run(&cfg)?);
            }
        }
    }
    Ok(out)
}

/// Fits `1 − p_L` versus rounds to an exponential decay
/// `A·e^{−r/τ} + B` with the shared fit machinery, returning
/// `(A, τ_rounds, B)`. Feed it one [`QecResult`] per round count.
pub fn fit_logical_fidelity(
    results: &[QecResult],
) -> Result<(f64, f64, f64), crate::fit::FitError> {
    let rounds: Vec<f64> = results.iter().map(|r| r.rounds as f64).collect();
    let fidelity: Vec<f64> = results.iter().map(|r| 1.0 - r.logical_error_rate).collect();
    crate::fit::fit_exponential_decay(&rounds, &fidelity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_code_has_zero_logical_error_rate() {
        let cfg = QecConfig {
            shots: 6,
            ..QecConfig::default()
        };
        let result = run(&cfg).expect("runs");
        assert_eq!(result.logical_errors, 0);
        assert_eq!(result.logical_error_rate, 0.0);
        assert_eq!(result.injected_flips, 0);
        assert_eq!(result.majority_bits, vec![0; 6]);
    }

    #[test]
    fn logical_one_round_trips() {
        let cfg = QecConfig {
            shots: 4,
            logical_one: true,
            ..QecConfig::default()
        };
        let result = run(&cfg).expect("runs");
        assert_eq!(result.logical_errors, 0);
        assert_eq!(result.majority_bits, vec![1; 4]);
    }

    #[test]
    fn a_precompiled_point_runs_exactly_as_its_source_experiment() {
        let cfg = QecConfig {
            shots: 6,
            profile: ChipProfile::Paper,
            ..QecConfig::default()
        };
        let injected = QecInjected {
            injections: vec![InjectedX { round: 1, data: 2 }],
        };
        let compiled = QecCompiled::new(injected.clone(), &cfg);
        assert!(!compiled.mutates_device() && !injected.mutates_device());
        let want = harness::run(&injected, &cfg).expect("runs");
        let got = harness::run(&compiled, &cfg).expect("runs");
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_eq!(got.injected_flips, 6);
    }

    #[test]
    fn feedback_beats_the_ablation_on_spread_errors() {
        // One X per round on different qubits: with per-round feedback
        // each is corrected before the next lands; without feedback they
        // accumulate past the majority vote.
        let injections = [
            InjectedX { round: 0, data: 0 },
            InjectedX { round: 1, data: 1 },
        ];
        let with = run_injected(
            &QecConfig {
                shots: 4,
                ..QecConfig::default()
            },
            &injections,
        )
        .expect("runs");
        assert_eq!(with.logical_errors, 0, "feedback corrects round by round");
        let without = run_injected(
            &QecConfig {
                shots: 4,
                feedback: false,
                ..QecConfig::default()
            },
            &injections,
        )
        .expect("runs");
        assert_eq!(
            without.logical_errors, 4,
            "two uncorrected flips defeat the majority vote"
        );
    }

    #[test]
    fn sampled_injections_are_deterministic() {
        // Note: a distance-3 code only corrects one error per round; a
        // 0.4 rate will sometimes land two in one round, so the assertion
        // here is determinism, not perfection.
        let cfg = QecConfig {
            shots: 5,
            error_rate: 0.4,
            ..QecConfig::default()
        };
        let a = run(&cfg).expect("runs");
        let b = run(&cfg).expect("runs");
        assert_eq!(a.majority_bits, b.majority_bits);
        assert_eq!(a.injected_flips, b.injected_flips);
        assert!(a.injected_flips > 0, "rate 0.4 over 30 draws injects");
        assert_eq!(a.logical_errors, b.logical_errors);
        // The sharded sweep path must reproduce the sequential one.
        let parallel = run(&QecConfig { threads: 3, ..cfg }).expect("runs");
        assert_eq!(a.majority_bits, parallel.majority_bits);
    }

    #[test]
    fn stabilizer_profile_matches_ideal_at_distance_3() {
        let cfg = QecConfig {
            shots: 4,
            ..QecConfig::default()
        };
        let ideal = run(&cfg).expect("runs");
        let stab = run(&QecConfig {
            profile: ChipProfile::Stabilizer,
            ..cfg
        })
        .expect("runs");
        assert_eq!(ideal.majority_bits, stab.majority_bits);
        assert_eq!(ideal.logical_errors, stab.logical_errors);
    }

    #[test]
    fn distance7_single_errors_recover_on_the_stabilizer_chip() {
        let cfg = QecConfig {
            distance: 7,
            rounds: 2,
            shots: 2,
            profile: ChipProfile::Stabilizer,
            ..QecConfig::default()
        };
        for round in 0..2 {
            for data in [0usize, 3, 6] {
                let result = run_injected(&cfg, &[InjectedX { round, data }]).expect("runs");
                assert_eq!(
                    result.logical_errors, 0,
                    "single X at round {round} data {data} must decode"
                );
            }
        }
    }

    #[test]
    fn large_distance_grid_runs_on_the_stabilizer_chip() {
        let base = QecConfig {
            shots: 1,
            rounds: 1,
            profile: ChipProfile::Stabilizer,
            ..QecConfig::default()
        };
        let grid = run_grid(&base, &[7, 11], &[1], &[0.0]).expect("runs");
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(|p| p.logical_errors == 0));
    }

    #[test]
    #[should_panic(expected = "select ChipProfile::Stabilizer")]
    fn large_distance_rejects_the_exact_chip() {
        device_config(&QecConfig {
            distance: 7,
            ..QecConfig::default()
        });
    }

    #[test]
    fn grid_covers_every_point() {
        let base = QecConfig {
            shots: 2,
            rounds: 1,
            ..QecConfig::default()
        };
        let grid = run_grid(&base, &[3], &[1, 2], &[0.0]).expect("runs");
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].rounds, 1);
        assert_eq!(grid[1].rounds, 2);
        assert!(grid.iter().all(|p| p.logical_errors == 0));
    }

    #[test]
    fn fidelity_fit_runs_on_grid_output() {
        // Synthetic results exercise the fit plumbing without burning
        // simulation time on statistics.
        let mk = |rounds: usize, p: f64| QecResult {
            distance: 3,
            rounds,
            shots: 100,
            error_rate: 0.1,
            logical_errors: (p * 100.0) as u64,
            logical_error_rate: p,
            error_sem: 0.0,
            injected_flips: 0,
            majority_bits: Vec::new(),
        };
        let results: Vec<QecResult> = (1..=6)
            .map(|r| mk(r, 0.5 * (1.0 - (-0.3 * r as f64).exp())))
            .collect();
        let (a, tau, b) = fit_logical_fidelity(&results).expect("fit converges");
        assert!(tau > 0.0, "decay constant positive: A={a} tau={tau} B={b}");
    }
}

//! Device configuration: the knobs of the control box and its environment.

use crate::trace::TraceLevel;

/// Which simulated quantum chip to attach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChipProfile {
    /// Noise-free qubits and noiseless readout: microarchitecture tests.
    #[default]
    Ideal,
    /// The paper's validation device: qubit-2 coherence figures and noisy
    /// dispersive readout.
    Paper,
    /// Stabilizer-tableau chip: noise-free Clifford-only simulation that
    /// scales to 64 qubits (the exact register chip stops at 10). Drives
    /// must demodulate to Clifford rotations; measurement RNG streams are
    /// bit-compatible with [`Ideal`](ChipProfile::Ideal) under shared seeds.
    Stabilizer,
}

/// Full device configuration. Defaults reproduce the paper's prototype:
/// 200 MHz control cycle (5 ns), 1 GS/s AWGs, 80 ns CTPG delay, 300-cycle
/// measurement pulses.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Number of qubits (each with its own AWG channel pair and MDU).
    pub num_qubits: usize,
    /// Control cycle time in seconds (paper: 5 ns).
    pub cycle_time: f64,
    /// AWG/ADC sample rate in samples/s (paper: 1 GS/s).
    pub sample_rate: f64,
    /// CTPG fixed trigger-to-output delay in cycles (paper: 80 ns = 16).
    pub ctpg_delay_cycles: u32,
    /// µ-op unit processing delay Δ in cycles (Table 5's `∆`).
    pub uop_delay_cycles: u32,
    /// Delay from an MPG trigger to the measurement pulse reaching the
    /// qubit, in cycles. Defaults to the CTPG delay so gate and measurement
    /// paths stay aligned and back-to-back sequences work unmodified.
    pub msmt_trigger_delay_cycles: u32,
    /// MDU processing latency in cycles from the end of the integration
    /// window to result-valid (paper: total readout latency < 1 µs).
    pub mdu_latency_cycles: u32,
    /// Capacity of each timing-control-unit queue (backpressure bound).
    pub queue_capacity: usize,
    /// Capacity of the decode FIFO between the execution controller and the
    /// physical microcode unit.
    pub decode_fifo_capacity: usize,
    /// Maximum extra per-instruction latency in the execution controller
    /// (0 = deterministic; >0 exercises the non-deterministic domain).
    pub max_jitter_cycles: u32,
    /// Seed for the jitter model.
    pub jitter_seed: u64,
    /// Seed for the quantum chip (projection + readout noise).
    pub chip_seed: u64,
    /// Chip profile.
    pub chip: ChipProfile,
    /// Slots `K` of each data collection unit (AllXY: 42).
    pub collector_k: usize,
    /// Data-memory size in 32-bit words.
    pub mem_words: usize,
    /// Abort threshold on host cycles (deadlock/runaway guard).
    pub max_host_cycles: u64,
    /// Trace verbosity.
    pub trace: TraceLevel,
    /// The deterministic clock only starts on a host cycle that is a
    /// multiple of this value, so `T_D = 0` is aligned with the
    /// single-sideband carrier phase (paper: 50 MHz SSB ↔ 20 ns = 4 cycles).
    /// Pre-modulated CTPG pulses then play with the correct drive axis.
    pub start_alignment_cycles: u32,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            num_qubits: 1,
            cycle_time: 5e-9,
            sample_rate: 1e9,
            ctpg_delay_cycles: 16,
            uop_delay_cycles: 0,
            msmt_trigger_delay_cycles: 16,
            mdu_latency_cycles: 60,
            queue_capacity: 1024,
            decode_fifo_capacity: 64,
            max_jitter_cycles: 0,
            jitter_seed: 0xC0FFEE,
            chip_seed: 0x5EED,
            chip: ChipProfile::Ideal,
            collector_k: 1,
            mem_words: 4096,
            max_host_cycles: 50_000_000_000,
            trace: TraceLevel::Full,
            start_alignment_cycles: 4,
        }
    }
}

impl DeviceConfig {
    /// The paper's validation setup: one noisy transmon, full trace off
    /// (the AllXY run is long).
    pub fn paper_validation() -> Self {
        Self {
            chip: ChipProfile::Paper,
            collector_k: 42,
            trace: TraceLevel::Off,
            ..Self::default()
        }
    }

    /// True when `self` and `other` build the same calibrated device up
    /// to its seeds: every field but `chip_seed` and `jitter_seed` is
    /// equal. Seeds only seed the RNGs, so a device built for one config
    /// serves the other after [`crate::device::Device::rebase`]; the
    /// device pool keys its warm devices and sessions on this.
    pub fn same_calibration(&self, other: &Self) -> bool {
        // The derived equality compares every field, a new one included,
        // once the seeds are taken from `self`.
        *self
            == Self {
                chip_seed: self.chip_seed,
                jitter_seed: self.jitter_seed,
                ..other.clone()
            }
    }

    /// Converts cycles to seconds under this configuration.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_time
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        let max_qubits = match self.chip {
            ChipProfile::Stabilizer => 64,
            _ => 16,
        };
        if self.num_qubits == 0 || self.num_qubits > max_qubits {
            return Err(format!(
                "num_qubits = {} outside supported 1..={max_qubits} for {:?}",
                self.num_qubits, self.chip
            ));
        }
        if self.cycle_time <= 0.0 || self.sample_rate <= 0.0 {
            return Err("cycle_time and sample_rate must be positive".into());
        }
        if self.queue_capacity == 0 || self.decode_fifo_capacity == 0 {
            return Err("queue capacities must be positive".into());
        }
        if self.collector_k == 0 {
            return Err("collector_k must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_numbers() {
        let c = DeviceConfig::default();
        assert_eq!(c.cycle_time, 5e-9);
        assert_eq!(c.sample_rate, 1e9);
        assert_eq!(c.ctpg_delay_cycles, 16); // 80 ns
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cycles_to_seconds() {
        let c = DeviceConfig::default();
        assert!((c.cycles_to_seconds(40000) - 200e-6).abs() < 1e-15);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let broken = [
            DeviceConfig {
                num_qubits: 0,
                ..DeviceConfig::default()
            },
            DeviceConfig {
                num_qubits: 17,
                ..DeviceConfig::default()
            },
            DeviceConfig {
                collector_k: 0,
                ..DeviceConfig::default()
            },
            DeviceConfig {
                queue_capacity: 0,
                ..DeviceConfig::default()
            },
        ];
        for c in broken {
            assert!(c.validate().is_err(), "{c:?} should be rejected");
        }
    }

    #[test]
    fn stabilizer_profile_raises_the_qubit_ceiling() {
        let ok = DeviceConfig {
            num_qubits: 64,
            chip: ChipProfile::Stabilizer,
            ..DeviceConfig::default()
        };
        assert!(ok.validate().is_ok());
        let too_many = DeviceConfig {
            num_qubits: 65,
            chip: ChipProfile::Stabilizer,
            ..DeviceConfig::default()
        };
        assert!(too_many.validate().is_err());
        // Exact-register profiles keep the old bound.
        let exact = DeviceConfig {
            num_qubits: 17,
            chip: ChipProfile::Ideal,
            ..DeviceConfig::default()
        };
        assert!(exact.validate().is_err());
    }

    #[test]
    fn same_calibration_ignores_only_the_seeds() {
        let base = DeviceConfig::default();
        let reseeded = DeviceConfig {
            chip_seed: 1,
            jitter_seed: 2,
            ..base.clone()
        };
        assert!(base.same_calibration(&reseeded));
        assert_ne!(base, reseeded);
        let recalibrated = [
            DeviceConfig {
                num_qubits: 2,
                ..base.clone()
            },
            DeviceConfig {
                chip: ChipProfile::Paper,
                ..base.clone()
            },
            DeviceConfig {
                max_jitter_cycles: 1,
                ..base.clone()
            },
            DeviceConfig {
                trace: TraceLevel::Off,
                ..base.clone()
            },
        ];
        for other in recalibrated {
            assert!(!base.same_calibration(&other), "{other:?}");
        }
    }

    #[test]
    fn paper_validation_profile() {
        let c = DeviceConfig::paper_validation();
        assert_eq!(c.chip, ChipProfile::Paper);
        assert_eq!(c.collector_k, 42);
        assert!(c.validate().is_ok());
    }
}

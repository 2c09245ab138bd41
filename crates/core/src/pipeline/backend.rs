//! The deterministic timing domain and analog path (paper Figure 4,
//! right half).
//!
//! Timing control unit → µ-op units → CTPGs → simulated chip →
//! MPG/MDU/data collectors → result write-backs. Every action in here
//! lands on an exact deterministic-domain cycle; the only way the
//! frontend's scheduling can reach this side is through the labeled
//! queues of the timing control unit.

use crate::collector::DataCollector;
use crate::config::{ChipProfile, DeviceConfig};
use crate::ctpg::{Ctpg, PulseLibraryBuilder};
use crate::device::{DeviceError, MdRecord};
use crate::digital_out::DigitalOutputUnit;
use crate::event::{Event, FiredEvent};
use crate::mdu::{Discrimination, MeasurementDiscriminationUnit};
use crate::timing::{TimingControlUnit, TimingStats};
use crate::trace::{Trace, TraceKind, TraceLevel};
use crate::uop_unit::{seq_z, CodewordTrigger, MicroOpUnit};
use quma_isa::prelude::Reg;
use quma_qsim::chip::{ChipBackend, QuantumChip};
use quma_qsim::resonator::ReadoutParams;
use quma_qsim::stabilizer::StabilizerChip;
use std::collections::VecDeque;

/// A chip-facing action with its effect cycle, ordered before execution.
#[derive(Debug, Clone)]
enum ChipAction {
    Drive {
        qubit: usize,
        pulse: crate::ctpg::PlayedPulse,
        at: u64,
        trigger_td: u64,
    },
    Measure {
        qubit: usize,
        window: u64,
        duration_cycles: u32,
        at: u64,
    },
    Cz {
        a: usize,
        b: usize,
        at: u64,
    },
}

impl ChipAction {
    fn at(&self) -> u64 {
        match self {
            ChipAction::Drive { at, .. }
            | ChipAction::Measure { at, .. }
            | ChipAction::Cz { at, .. } => *at,
        }
    }

    /// The qubits the action touches: one, or a CZ's two.
    fn qubits(&self) -> [Option<usize>; 2] {
        match self {
            ChipAction::Drive { qubit, .. } | ChipAction::Measure { qubit, .. } => {
                [Some(*qubit), None]
            }
            ChipAction::Cz { a, b, .. } => [Some(*a), Some(*b)],
        }
    }
}

/// A scheduled result write-back: the MD's destination and the window it
/// was issued with.
#[derive(Debug, Clone, Copy)]
struct Writeback {
    qubit: usize,
    rd: Option<Reg>,
    window: u64,
}

/// A measurement window opened by an MPG on one qubit.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// MPG sequence number this run (1-based, across all qubits).
    id: u64,
    duration_cycles: u32,
    /// Claimed by an MD; a window reports to at most one MD.
    bound: bool,
    /// Latched when the chip plays the window.
    result: Option<Discrimination>,
}

/// One MDU calibration, shared by every qubit whose readout chain it
/// matches.
#[derive(Debug, Clone)]
struct Calibration {
    readout: ReadoutParams,
    duration_cycles: u32,
    mdu: MeasurementDiscriminationUnit,
}

/// The deterministic half of the pipeline.
#[derive(Debug, Clone)]
pub struct Backend {
    tcu: TimingControlUnit,
    uop_units: Vec<MicroOpUnit>,
    ctpgs: Vec<Ctpg>,
    chip: Box<dyn ChipBackend>,
    /// MDU calibrations keyed by `(readout chain, window)`: qubits with
    /// identical chains share one, and a retuned chain recalibrates.
    calibrations: Vec<Calibration>,
    /// Readout-noise RNG words the chip fills per noisy measurement
    /// (reused, so a steady-state measurement allocates nothing).
    words: Vec<u64>,
    /// Windows opened this run (the last window id).
    opened: u64,
    /// Per qubit: the latest window plus any earlier ones an MD still
    /// awaits, in MPG order.
    windows: Vec<Vec<Window>>,
    collectors: Vec<DataCollector>,
    digital_out: DigitalOutputUnit,
    /// Scheduled write-backs by completion cycle, FIFO within a cycle.
    writebacks: VecDeque<(u64, Writeback)>,
    md_results: Vec<MdRecord>,
    /// Host cycle at which T_D = 0, once the deterministic clock started.
    td_start: Option<u64>,
    /// Last committed chip-action cycle per qubit (chronology guard).
    last_chip_cycle: Vec<u64>,
    trace: Trace,
    measurements: u64,
    /// Readout-noise samples of the windows discriminated from their noise
    /// this run.
    readout_gaussians: u64,
    /// Chip RNG words stepped (projections plus drawn noise words) and
    /// jumped past (skipped noise words) this run.
    rng_words_stepped: u64,
    rng_words_jumped: u64,
    /// Readout samples whose ADC code the exact Box–Muller decided.
    readout_fallbacks: u64,
    /// Per-advance scratch, empty between calls and reused so a
    /// steady-state shot allocates none of it: fired events, codeword
    /// triggers, and chip actions.
    fired: Vec<FiredEvent>,
    triggers: Vec<CodewordTrigger>,
    actions: Vec<ChipAction>,
}

impl Backend {
    /// Builds the backend: creates the chip per profile and calibrates one
    /// pulse library + CTPG + µ-op unit per qubit (with `Seq_Z` defined in
    /// every µ-op unit). This is the expensive construction step the
    /// engine layer amortizes across shots.
    pub fn new(config: &DeviceConfig) -> Self {
        let chip: Box<dyn ChipBackend> = match config.chip {
            ChipProfile::Ideal => Box::new(QuantumChip::ideal_device(
                config.num_qubits,
                config.chip_seed,
            )),
            ChipProfile::Paper => Box::new(QuantumChip::paper_device(
                config.num_qubits,
                config.chip_seed,
            )),
            ChipProfile::Stabilizer => Box::new(StabilizerChip::ideal_device(
                config.num_qubits,
                config.chip_seed,
            )),
        };
        let mut backend = Self {
            tcu: TimingControlUnit::new(config.queue_capacity),
            uop_units: Vec::new(),
            ctpgs: Vec::new(),
            chip,
            calibrations: Vec::new(),
            words: Vec::new(),
            opened: 0,
            windows: vec![Vec::new(); config.num_qubits],
            collectors: (0..config.num_qubits)
                .map(|_| DataCollector::new(config.collector_k))
                .collect(),
            digital_out: DigitalOutputUnit::new(),
            writebacks: VecDeque::new(),
            md_results: Vec::new(),
            td_start: None,
            last_chip_cycle: vec![0; config.num_qubits],
            trace: Trace::new(config.trace),
            measurements: 0,
            readout_gaussians: 0,
            rng_words_stepped: 0,
            rng_words_jumped: 0,
            readout_fallbacks: 0,
            fired: Vec::new(),
            triggers: Vec::new(),
            actions: Vec::new(),
        };
        for q in 0..config.num_qubits {
            // Calibrate each qubit's pulse library against its own Rabi
            // coefficient and SSB frequency; qubits that share both share
            // one calibrated wave memory.
            let params = backend.chip.qubit(q).transmon.params();
            let key = (params.rabi_coefficient, params.ssb_frequency);
            let twin = (0..q).find(|&p| {
                let earlier = backend.chip.qubit(p).transmon.params();
                (earlier.rabi_coefficient, earlier.ssb_frequency) == key
            });
            let ctpg = match twin {
                Some(p) => backend.ctpgs[p].clone(),
                None => {
                    let mut builder = PulseLibraryBuilder::paper_default(key.0);
                    builder.sample_rate = config.sample_rate;
                    builder.ssb = quma_signal::ssb::SsbModulator::new(key.1);
                    Ctpg::new(
                        builder.build_table1(),
                        config.ctpg_delay_cycles,
                        config.cycle_time,
                    )
                }
            };
            backend.ctpgs.push(ctpg);
            let mut uops = MicroOpUnit::with_table1(config.uop_delay_cycles);
            uops.define(quma_isa::uop::UopId(crate::microcode::UOP_Z), seq_z());
            backend.uop_units.push(uops);
        }
        backend
    }

    /// Resets all run state for a fresh program, keeping the calibrated
    /// pulse libraries, µ-op definitions, and MDU calibration cache.
    pub fn reset(&mut self, config: &DeviceConfig) {
        self.tcu.reset();
        self.opened = 0;
        for q in 0..config.num_qubits {
            self.windows[q].clear();
            self.collectors[q].reset();
            self.last_chip_cycle[q] = 0;
            self.ctpgs[q].reset_triggers();
            // An aborted run (e.g. MaxCyclesExceeded) can leave triggers
            // scheduled at stale absolute cycles; they must never replay
            // into the next run.
            self.uop_units[q].clear_pending();
        }
        // Likewise an error mid-advance (e.g. an MD without an MPG at the
        // label of an earlier MPG) leaves chip actions queued in the
        // reused buffers; the next run must not play them.
        self.fired.clear();
        self.triggers.clear();
        self.actions.clear();
        self.writebacks.clear();
        self.md_results.clear();
        self.td_start = None;
        self.digital_out.clear();
        self.trace.clear();
        self.measurements = 0;
        self.readout_gaussians = 0;
        self.rng_words_stepped = 0;
        self.rng_words_jumped = 0;
        self.readout_fallbacks = 0;
        self.chip.reset_all(0.0);
    }

    /// Reseeds the chip's RNG (per-shot reset): future projection and
    /// readout noise match a freshly built chip with this seed.
    pub fn reseed(&mut self, chip_seed: u64) {
        self.chip.reseed(chip_seed);
    }

    /// The simulated chip (for error injection and inspection).
    pub fn chip_mut(&mut self) -> &mut dyn ChipBackend {
        self.chip.as_mut()
    }

    /// The simulated chip, immutable.
    pub fn chip(&self) -> &dyn ChipBackend {
        self.chip.as_ref()
    }

    /// A qubit's CTPG (to re-upload pulse libraries).
    pub fn ctpg_mut(&mut self, qubit: usize) -> &mut Ctpg {
        &mut self.ctpgs[qubit]
    }

    /// A qubit's CTPG, immutable.
    pub fn ctpg(&self, qubit: usize) -> &Ctpg {
        &self.ctpgs[qubit]
    }

    /// A qubit's µ-op unit (to define emulated operations).
    pub fn uop_unit_mut(&mut self, qubit: usize) -> &mut MicroOpUnit {
        &mut self.uop_units[qubit]
    }

    /// The timing control unit (queue inspection).
    pub fn tcu(&self) -> &TimingControlUnit {
        &self.tcu
    }

    /// Mutable timing control unit, for the frontend's queue fills.
    pub fn tcu_mut(&mut self) -> &mut TimingControlUnit {
        &mut self.tcu
    }

    /// Starts the deterministic clock on the first buffered work, on a
    /// carrier-phase-aligned host cycle. Returns the aligned future cycle
    /// to revisit when `cycle` itself is not aligned.
    pub fn maybe_start_clock(&mut self, cycle: u64, config: &DeviceConfig) -> Option<u64> {
        if self.td_start.is_none() && !self.tcu.is_drained() {
            let align = u64::from(config.start_alignment_cycles.max(1));
            if cycle.is_multiple_of(align) {
                self.tcu.start();
                self.td_start = Some(cycle);
            } else {
                return Some(cycle.next_multiple_of(align));
            }
        }
        None
    }

    /// True when every timing queue, µ-op unit, and pending write-back has
    /// drained.
    pub fn is_drained(&self) -> bool {
        self.tcu.is_drained()
            && self.uop_units.iter().all(MicroOpUnit::is_drained)
            && self.writebacks.is_empty()
    }

    /// Host cycle of the next timing-queue fire, if the clock runs.
    pub fn next_fire_cycle(&self) -> Option<u64> {
        let start = self.td_start?;
        let until = self.tcu.cycles_until_fire()?;
        Some(start + self.tcu.td() + until)
    }

    /// Earliest pending codeword trigger across all µ-op units.
    pub fn next_uop_trigger(&self) -> Option<u64> {
        self.uop_units
            .iter()
            .filter_map(MicroOpUnit::next_trigger_cycle)
            .min()
    }

    /// Host cycle of the earliest scheduled write-back.
    pub fn next_writeback(&self) -> Option<u64> {
        self.writebacks.front().map(|&(c, _)| c)
    }

    /// Advances the timing control unit so its `T_D` corresponds to host
    /// cycle `cycle`, dispatching every event that fires on the way.
    pub fn advance_deterministic(
        &mut self,
        cycle: u64,
        config: &DeviceConfig,
    ) -> Result<(), DeviceError> {
        let Some(start) = self.td_start else {
            return Ok(());
        };
        let target_td = cycle.saturating_sub(start);
        let delta = target_td.saturating_sub(self.tcu.td());
        self.tcu.advance_into(delta, &mut self.fired);
        let mut last_label = None;
        for ev in self.fired.drain(..) {
            if last_label != Some(ev.label) {
                self.trace
                    .record(ev.td, TraceKind::TimePoint { label: ev.label });
                last_label = Some(ev.label);
            }
            match ev.event {
                Event::Pulse { qubits, uop } if uop.raw() == crate::microcode::UOP_CZ => {
                    // Two-qubit flux path: the CZ pulse goes to the shared
                    // flux-bias line, not through the per-qubit µ-op units.
                    let mut qs = qubits.iter();
                    let (Some(a), Some(b), None) = (qs.next(), qs.next(), qs.next()) else {
                        return Err(DeviceError::CzArity { qubits, td: ev.td });
                    };
                    self.trace.record(ev.td, TraceKind::FluxPulse { qubits });
                    self.actions.push(ChipAction::Cz {
                        a,
                        b,
                        at: start + ev.td + u64::from(config.ctpg_delay_cycles),
                    });
                }
                Event::Pulse { qubits, uop } => {
                    for q in qubits.iter() {
                        self.trace.record(
                            ev.td,
                            TraceKind::MicroOp {
                                qubit: q,
                                uop: uop.raw(),
                            },
                        );
                        self.uop_units[q]
                            .fire(uop, start + ev.td)
                            .map_err(DeviceError::UndefinedUop)?;
                    }
                }
                Event::Mpg { qubits, duration } => {
                    self.trace
                        .record(ev.td, TraceKind::MsmtPulse { qubits, duration });
                    // Figure 6: the digital output unit raises the masked
                    // marker lines for D cycles, triggering the measurement
                    // carrier generators.
                    self.digital_out.assert_channels(qubits, ev.td, duration);
                    let at = start + ev.td + u64::from(config.msmt_trigger_delay_cycles);
                    for q in qubits.iter() {
                        self.opened += 1;
                        let id = self.opened;
                        // An unclaimed earlier window can never be claimed
                        // now: an MD binds the latest window only.
                        self.windows[q].retain(|w| w.bound);
                        self.windows[q].push(Window {
                            id,
                            duration_cycles: duration,
                            bound: false,
                            result: None,
                        });
                        self.actions.push(ChipAction::Measure {
                            qubit: q,
                            window: id,
                            duration_cycles: duration,
                            at,
                        });
                    }
                }
                Event::Md { qubits, rd } => {
                    self.trace.record(ev.td, TraceKind::MdStart { qubits });
                    for q in qubits.iter() {
                        // The MD binds the qubit's latest window (its MPG
                        // fired at or before this label) and reports when
                        // that window closes.
                        let window = match self.windows[q].last_mut() {
                            Some(w) if !w.bound => w,
                            _ => {
                                return Err(DeviceError::MdWithoutMpg {
                                    qubit: q,
                                    td: ev.td,
                                })
                            }
                        };
                        window.bound = true;
                        let complete = start
                            + ev.td
                            + u64::from(config.msmt_trigger_delay_cycles)
                            + u64::from(window.duration_cycles)
                            + u64::from(config.mdu_latency_cycles);
                        let behind = self.writebacks.partition_point(|&(c, _)| c <= complete);
                        self.writebacks.insert(
                            behind,
                            (
                                complete,
                                Writeback {
                                    qubit: q,
                                    rd,
                                    window: window.id,
                                },
                            ),
                        );
                    }
                }
            }
        }
        // µ-op units: codeword triggers due by now.
        for q in 0..self.uop_units.len() {
            self.uop_units[q].drain_due_into(cycle, &mut self.triggers);
            for trig in self.triggers.drain(..) {
                self.trace.record(
                    trig.cycle - start,
                    TraceKind::Codeword {
                        qubit: q,
                        codeword: trig.codeword,
                    },
                );
                let pulse = self.ctpgs[q]
                    .trigger(trig.codeword, trig.cycle)
                    .map_err(DeviceError::UnknownCodeword)?;
                let at = trig.cycle + u64::from(self.ctpgs[q].delay_cycles());
                self.actions.push(ChipAction::Drive {
                    qubit: q,
                    pulse,
                    at,
                    trigger_td: trig.cycle - start,
                });
            }
        }
        // Apply chip actions in chronological order.
        let mut actions = std::mem::take(&mut self.actions);
        actions.sort_by_key(ChipAction::at);
        let applied = actions
            .drain(..)
            .try_for_each(|action| self.apply(action, config));
        self.actions = actions;
        applied
    }

    /// Plays one chip action, after checking it does not go back in time
    /// on any qubit it touches.
    fn apply(&mut self, action: ChipAction, config: &DeviceConfig) -> Result<(), DeviceError> {
        let at = action.at();
        for qubit in action.qubits().into_iter().flatten() {
            if at < self.last_chip_cycle[qubit] {
                return Err(DeviceError::ChronologyViolation {
                    qubit,
                    at,
                    last: self.last_chip_cycle[qubit],
                });
            }
            self.last_chip_cycle[qubit] = at;
        }
        match action {
            ChipAction::Drive {
                qubit,
                pulse,
                at: _,
                trigger_td,
            } => {
                self.trace.record(
                    trigger_td + u64::from(config.ctpg_delay_cycles),
                    TraceKind::PulseStart {
                        qubit,
                        codeword: pulse.codeword,
                    },
                );
                self.chip
                    .drive(qubit, &pulse.samples, pulse.start, pulse.sample_period);
            }
            ChipAction::Measure {
                qubit,
                window,
                duration_cycles,
                at,
            } => {
                self.measurements += 1;
                let t0 = at as f64 * config.cycle_time;
                let dur = f64::from(duration_cycles) * config.cycle_time;
                // Discriminate now and latch the result on its window;
                // the MD reports it at the unchanged write-back cycle.
                // A window superseded before any MD claimed it is gone,
                // and a noiseless chain's result was decided at
                // calibration: neither needs the chip's noise words.
                let open = self.windows[qubit]
                    .iter()
                    .position(|w| w.id == window)
                    .map(|i| (i, self.calibration(qubit, duration_cycles, config)));
                let noisy =
                    open.is_some_and(|(_, cal)| self.calibrations[cal].mdu.noiseless(0).is_none());
                let outcome =
                    self.chip
                        .measure_words(qubit, t0, dur, noisy.then_some(&mut self.words));
                let samples = self.chip.qubit(qubit).readout.samples_in(dur) as u64;
                self.rng_words_stepped += 1;
                if noisy {
                    self.readout_gaussians += samples;
                    self.rng_words_stepped += self.words.len() as u64;
                } else {
                    self.rng_words_jumped += 2 * samples.div_ceil(2);
                }
                if let Some((i, cal)) = open {
                    let mdu = &self.calibrations[cal].mdu;
                    let d = mdu.noiseless(outcome).unwrap_or_else(|| {
                        let (d, fallbacks) = mdu.discriminate_words(outcome, &self.words);
                        self.readout_fallbacks += fallbacks;
                        d
                    });
                    self.windows[qubit][i].result = Some(d);
                }
            }
            ChipAction::Cz { a, b, at } => {
                let t0 = at as f64 * config.cycle_time;
                // The paper quotes ~40 ns (8 cycles) for CZ flux pulses.
                let dur = 8.0 * config.cycle_time;
                self.chip.apply_cz(a, b, t0, dur);
            }
        }
        Ok(())
    }

    /// Completes every write-back due by `cycle`: takes the discrimination
    /// latched on the MD's window, records collector and trace entries,
    /// and hands each `(register, value)` completion that must cross back
    /// to the frontend's scoreboard to `complete`.
    pub fn apply_writebacks(
        &mut self,
        cycle: u64,
        mut complete: impl FnMut(Reg, i32),
    ) -> Result<(), DeviceError> {
        while self.writebacks.front().is_some_and(|&(c, _)| c <= cycle) {
            let (c, wb) = self.writebacks.pop_front().expect("front checked");
            let td = c.saturating_sub(self.td_start.unwrap_or(0));
            let open = &mut self.windows[wb.qubit];
            let d = open
                .iter()
                .position(|w| w.id == wb.window)
                .and_then(|i| open.remove(i).result)
                .ok_or(DeviceError::MdWithoutMpg {
                    qubit: wb.qubit,
                    td,
                })?;
            if let Some(rd) = wb.rd {
                complete(rd, i32::from(d.bit));
            }
            self.collectors[wb.qubit].record(d.s);
            self.trace.record(
                td,
                TraceKind::MdResult {
                    qubit: wb.qubit,
                    bit: d.bit,
                    rd: wb.rd,
                },
            );
            self.md_results.push(MdRecord {
                td,
                qubit: wb.qubit,
                bit: d.bit,
                s: d.s,
                rd: wb.rd,
            });
        }
        Ok(())
    }

    /// Index of the calibration for `qubit`'s current readout chain and a
    /// `duration_cycles` window, calibrating on a miss. A miss also drops
    /// calibrations no qubit's chain matches any more, so retunes through
    /// `device_mut` cannot grow the cache without bound.
    fn calibration(&mut self, qubit: usize, duration_cycles: u32, config: &DeviceConfig) -> usize {
        let chip = self.chip.as_ref();
        let readout = &chip.qubit(qubit).readout;
        if let Some(i) = self
            .calibrations
            .iter()
            .position(|c| c.duration_cycles == duration_cycles && c.readout == *readout)
        {
            return i;
        }
        self.calibrations
            .retain(|c| (0..chip.num_qubits()).any(|q| chip.qubit(q).readout == c.readout));
        let integration = f64::from(duration_cycles) * config.cycle_time;
        self.calibrations.push(Calibration {
            readout: readout.clone(),
            duration_cycles,
            mdu: MeasurementDiscriminationUnit::calibrate(readout, integration),
        });
        self.calibrations.len() - 1
    }

    /// Final deterministic-domain time.
    pub fn td_final(&self) -> u64 {
        self.tcu.td()
    }

    /// Timing statistics.
    pub fn timing_stats(&self) -> TimingStats {
        self.tcu.stats()
    }

    /// Codeword triggers delivered per CTPG this run.
    pub fn ctpg_triggers(&self) -> Vec<u64> {
        self.ctpgs.iter().map(Ctpg::triggers).collect()
    }

    /// Number of cached MDU calibrations.
    #[cfg(test)]
    pub(crate) fn calibration_count(&self) -> usize {
        self.calibrations.len()
    }

    /// Measurement pulses played this run.
    pub fn measurements(&self) -> u64 {
        self.measurements
    }

    /// Readout-noise samples discriminated this run (0 when every window
    /// was noiseless or unread).
    pub fn readout_gaussians(&self) -> u64 {
        self.readout_gaussians
    }

    /// Chip RNG words stepped this run: one per projection plus every
    /// noise word drawn.
    pub fn rng_words_stepped(&self) -> u64 {
        self.rng_words_stepped
    }

    /// Chip RNG words jumped past this run: the noise words of every
    /// window discriminated without its noise.
    pub fn rng_words_jumped(&self) -> u64 {
        self.rng_words_jumped
    }

    /// Readout samples this run whose ADC code the fast normal's error
    /// bracket left open and the exact Box–Muller decided.
    pub fn readout_fallbacks(&self) -> u64 {
        self.readout_fallbacks
    }

    /// Marker pulses asserted by the digital output unit this run.
    pub fn marker_pulses(&self) -> Vec<crate::digital_out::MarkerPulse> {
        self.digital_out.pulses().to_vec()
    }

    /// Data-collection averages per qubit.
    pub fn collector_averages(&self) -> Vec<Vec<f64>> {
        self.collectors
            .iter()
            .map(DataCollector::averages)
            .collect()
    }

    /// Takes the accumulated discrimination records, leaving room for as
    /// many next run (a steady-state shot records as many as the last
    /// one, so its records never regrow).
    pub fn take_md_results(&mut self) -> Vec<MdRecord> {
        let capacity = self.md_results.len();
        std::mem::replace(&mut self.md_results, Vec::with_capacity(capacity))
    }

    /// Takes the deterministic-domain trace, leaving an empty one at the
    /// given level.
    pub fn take_trace(&mut self, level: TraceLevel) -> Trace {
        std::mem::replace(&mut self.trace, Trace::new(level))
    }
}

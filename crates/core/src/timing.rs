//! Queue-based event timing control (Section 5.2, Tables 2–4).
//!
//! The timing control unit divides QuMA into two timing domains. On the
//! non-deterministic side, the execution controller and physical execution
//! layer fill a *timing queue* of `(interval, label)` pairs and several
//! *event queues* of `(event, label)` pairs as fast as they can. On the
//! deterministic side, a counter counts cycles; when it reaches the interval
//! at the head of the timing queue, the corresponding timing label is
//! broadcast to every event queue, the counter restarts, and each event
//! queue fires the events at its head whose label matches.
//!
//! The unit exposes [`TimingControlUnit::advance`] so a surrounding
//! event-driven simulation can jump over quiet stretches (e.g. the 40000 /
//! 200 µs initialization waits of AllXY) without per-cycle stepping, while
//! preserving exact cycle semantics.

use crate::event::{Event, FiredEvent};
use std::collections::VecDeque;

/// A timing-queue entry: fire `interval` cycles after the previous time
/// point, broadcasting `label`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimePoint {
    /// Interval since the previous time point, in cycles.
    pub interval: u32,
    /// The timing label broadcast when the interval expires.
    pub label: u32,
}

/// Identifier of an event queue within the timing control unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueId {
    /// Single-qubit pulse micro-operations (the paper's "Pulse Queue").
    Pulse,
    /// Measurement pulse generation (the "MPG Queue").
    Mpg,
    /// Measurement discrimination (the "MD Queue").
    Md,
}

impl QueueId {
    /// All queues in display order.
    pub const ALL: [QueueId; 3] = [QueueId::Pulse, QueueId::Mpg, QueueId::Md];
}

/// One event queue: FIFO of `(event, label)`.
#[derive(Debug, Clone, Default)]
struct EventQueue {
    entries: VecDeque<(Event, u32)>,
    high_water: usize,
}

/// Statistics the unit tracks for scalability analysis (Section 6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimingStats {
    /// Total time points fired.
    pub time_points_fired: u64,
    /// Total events fired across all queues.
    pub events_fired: u64,
    /// Number of underruns: a time point whose interval had already elapsed
    /// by the time it was enqueued (the non-deterministic domain fell
    /// behind). The event still fires, but late — a control error.
    pub underruns: u64,
    /// Maximum occupancy observed on the timing queue.
    pub timing_high_water: usize,
    /// Maximum occupancy observed on the pulse queue.
    pub pulse_high_water: usize,
    /// Maximum occupancy observed on the MPG queue.
    pub mpg_high_water: usize,
    /// Maximum occupancy observed on the MD queue.
    pub md_high_water: usize,
}

/// A snapshot of all queue contents, front of queue last (matching the
/// layout of the paper's Tables 2–4, where "the bottom of the table
/// corresponds to the front of the queues").
#[derive(Debug, Clone, PartialEq)]
pub struct QueueSnapshot {
    /// Deterministic-domain time at the snapshot, in cycles.
    pub td: u64,
    /// Timing-queue entries, back-to-front.
    pub timing: Vec<TimePoint>,
    /// Pulse-queue entries, back-to-front.
    pub pulse: Vec<(Event, u32)>,
    /// MPG-queue entries, back-to-front.
    pub mpg: Vec<(Event, u32)>,
    /// MD-queue entries, back-to-front.
    pub md: Vec<(Event, u32)>,
}

/// The timing control unit.
#[derive(Debug, Clone)]
pub struct TimingControlUnit {
    timing: VecDeque<TimePoint>,
    pulse: EventQueue,
    mpg: EventQueue,
    md: EventQueue,
    /// Queue capacity (entries) for each queue; pushes beyond this are
    /// refused so the non-deterministic domain experiences backpressure.
    capacity: usize,
    /// Deterministic-domain clock T_D in cycles; `None` until started.
    td: Option<u64>,
    /// Cycles counted since the last fired time point.
    counter: u64,
    /// Highest timing label already broadcast (labels are monotonic).
    fired_watermark: u32,
    stats: TimingStats,
}

impl TimingControlUnit {
    /// Creates a unit with the given per-queue capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            timing: VecDeque::new(),
            pulse: EventQueue::default(),
            mpg: EventQueue::default(),
            md: EventQueue::default(),
            capacity,
            td: None,
            counter: 0,
            fired_watermark: 0,
            stats: TimingStats::default(),
        }
    }

    /// Returns the unit to its freshly built state — empty queues, stopped
    /// clock, zero statistics — keeping the queues' storage.
    pub(crate) fn reset(&mut self) {
        self.timing.clear();
        for queue in [&mut self.pulse, &mut self.mpg, &mut self.md] {
            queue.entries.clear();
            queue.high_water = 0;
        }
        self.td = None;
        self.counter = 0;
        self.fired_watermark = 0;
        self.stats = TimingStats::default();
    }

    /// Starts the deterministic-domain clock at `T_D = 0`.
    pub fn start(&mut self) {
        if self.td.is_none() {
            self.td = Some(0);
            self.counter = 0;
        }
    }

    /// Whether the clock is running.
    pub fn started(&self) -> bool {
        self.td.is_some()
    }

    /// Current `T_D` (0 if not yet started).
    pub fn td(&self) -> u64 {
        self.td.unwrap_or(0)
    }

    /// Collected statistics.
    pub fn stats(&self) -> TimingStats {
        self.stats
    }

    /// The highest timing label already broadcast. An event tagged with a
    /// label at or below this watermark would never fire; the QMB uses
    /// this to open a fresh time point for post-measurement feedback
    /// operations.
    pub fn fired_watermark(&self) -> u32 {
        self.fired_watermark
    }

    /// True when every queue is empty.
    pub fn is_drained(&self) -> bool {
        self.timing.is_empty()
            && self.pulse.entries.is_empty()
            && self.mpg.entries.is_empty()
            && self.md.entries.is_empty()
    }

    /// Free slots in the timing queue.
    pub fn timing_free(&self) -> usize {
        self.capacity - self.timing.len()
    }

    /// Free slots in the given event queue.
    pub fn event_free(&self, q: QueueId) -> usize {
        self.capacity - self.queue(q).entries.len()
    }

    /// Pushes a time point; returns `false` (and drops nothing) when the
    /// timing queue is full.
    #[must_use]
    pub fn push_time_point(&mut self, tp: TimePoint) -> bool {
        if self.timing.len() >= self.capacity {
            return false;
        }
        self.timing.push_back(tp);
        self.stats.timing_high_water = self.stats.timing_high_water.max(self.timing.len());
        true
    }

    /// Pushes an event tagged with a timing label; returns `false` when the
    /// target queue is full.
    #[must_use]
    pub fn push_event(&mut self, q: QueueId, event: Event, label: u32) -> bool {
        let cap = self.capacity;
        let queue = self.queue_mut(q);
        if queue.entries.len() >= cap {
            return false;
        }
        queue.entries.push_back((event, label));
        queue.high_water = queue.high_water.max(queue.entries.len());
        match q {
            QueueId::Pulse => self.stats.pulse_high_water = self.pulse.high_water,
            QueueId::Mpg => self.stats.mpg_high_water = self.mpg.high_water,
            QueueId::Md => self.stats.md_high_water = self.md.high_water,
        }
        true
    }

    /// Cycles until the next time point would fire, or `None` when the
    /// clock is stopped or the timing queue is empty.
    pub fn cycles_until_fire(&self) -> Option<u64> {
        self.td?;
        let head = self.timing.front()?;
        Some(u64::from(head.interval).saturating_sub(self.counter))
    }

    /// Advances the deterministic clock by `cycles`, firing any time points
    /// (and their matching events) that come due. Events are returned in
    /// fire order with their exact `T_D` timestamps.
    pub fn advance(&mut self, cycles: u64) -> Vec<FiredEvent> {
        let mut fired = Vec::new();
        self.advance_into(cycles, &mut fired);
        fired
    }

    /// Like [`TimingControlUnit::advance`], appending the fired events to
    /// `fired` so a caller can reuse one buffer.
    pub(crate) fn advance_into(&mut self, cycles: u64, fired: &mut Vec<FiredEvent>) {
        let Some(td) = self.td else {
            return;
        };
        let mut now = td;
        let mut remaining = cycles;
        loop {
            let Some(head) = self.timing.front().copied() else {
                // Clock keeps running; the counter accumulates so a late
                // push is detected as an underrun.
                self.counter += remaining;
                now += remaining;
                break;
            };
            let need = u64::from(head.interval).saturating_sub(self.counter);
            if need > remaining {
                self.counter += remaining;
                now += remaining;
                break;
            }
            // Fire this time point.
            now += need;
            remaining -= need;
            if self.counter > u64::from(head.interval) {
                self.stats.underruns += 1;
            }
            self.timing.pop_front();
            self.counter = 0;
            self.fired_watermark = self.fired_watermark.max(head.label);
            self.stats.time_points_fired += 1;
            for q in QueueId::ALL {
                let queue = self.queue_mut(q);
                let mut popped = 0u64;
                while queue.entries.front().is_some_and(|&(_, l)| l == head.label) {
                    let (event, _) = queue.entries.pop_front().expect("front checked");
                    fired.push(FiredEvent {
                        td: now,
                        label: head.label,
                        queue: q,
                        event,
                    });
                    popped += 1;
                }
                self.stats.events_fired += popped;
            }
        }
        self.td = Some(now);
    }

    /// Takes a snapshot of all queues for inspection (Tables 2–4 golden
    /// tests and debugging).
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            td: self.td(),
            timing: self.timing.iter().copied().collect(),
            pulse: self.pulse.entries.iter().cloned().collect(),
            mpg: self.mpg.entries.iter().cloned().collect(),
            md: self.md.entries.iter().cloned().collect(),
        }
    }

    fn queue(&self, q: QueueId) -> &EventQueue {
        match q {
            QueueId::Pulse => &self.pulse,
            QueueId::Mpg => &self.mpg,
            QueueId::Md => &self.md,
        }
    }

    fn queue_mut(&mut self, q: QueueId) -> &mut EventQueue {
        match q {
            QueueId::Pulse => &mut self.pulse,
            QueueId::Mpg => &mut self.mpg,
            QueueId::Md => &mut self.md,
        }
    }
}

impl Default for TimingControlUnit {
    fn default() -> Self {
        Self::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quma_isa::prelude::{QubitMask, Reg, UopId};

    fn pulse_event(uop: u8) -> Event {
        Event::Pulse {
            qubits: QubitMask::single(0),
            uop: UopId(uop),
        }
    }

    fn mpg_event(duration: u32) -> Event {
        Event::Mpg {
            qubits: QubitMask::single(0),
            duration,
        }
    }

    fn md_event() -> Event {
        Event::Md {
            qubits: QubitMask::single(0),
            rd: Some(Reg::r(7)),
        }
    }

    /// Loads the round-0 prefix of the AllXY experiment exactly as in
    /// Table 2 of the paper.
    fn load_allxy_prefix(t: &mut TimingControlUnit) {
        // Timing queue (front first): (40000,1),(4,2),(4,3),(40000,4),(4,5),(4,6)
        for (interval, label) in [(40000, 1), (4, 2), (4, 3), (40000, 4), (4, 5), (4, 6)] {
            assert!(t.push_time_point(TimePoint { interval, label }));
        }
        // Pulse queue: (I,1),(I,2),(Xpi,4),(Xpi,5)
        assert!(t.push_event(QueueId::Pulse, pulse_event(0), 1));
        assert!(t.push_event(QueueId::Pulse, pulse_event(0), 2));
        assert!(t.push_event(QueueId::Pulse, pulse_event(1), 4));
        assert!(t.push_event(QueueId::Pulse, pulse_event(1), 5));
        // MPG queue: (3),(6); MD queue: (r7,3),(r7,6)
        assert!(t.push_event(QueueId::Mpg, mpg_event(300), 3));
        assert!(t.push_event(QueueId::Mpg, mpg_event(300), 6));
        assert!(t.push_event(QueueId::Md, md_event(), 3));
        assert!(t.push_event(QueueId::Md, md_event(), 6));
    }

    #[test]
    fn table2_to_table4_queue_evolution() {
        let mut t = TimingControlUnit::new(64);
        load_allxy_prefix(&mut t);
        t.start();

        // Table 2: T_D = 0, nothing fired yet.
        let s = t.snapshot();
        assert_eq!(s.td, 0);
        assert_eq!(s.timing.len(), 6);
        assert_eq!(s.pulse.len(), 4);
        assert_eq!(s.mpg.len(), 2);
        assert_eq!(s.md.len(), 2);

        // Advance to T_D = 40000: label 1 fires, first I pulse emitted
        // (Table 3: pulse queue now has 3 entries, timing queue 5).
        let fired = t.advance(40000);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].td, 40000);
        assert_eq!(fired[0].label, 1);
        assert_eq!(fired[0].queue, QueueId::Pulse);
        let s = t.snapshot();
        assert_eq!(s.td, 40000);
        assert_eq!(s.timing.len(), 5);
        assert_eq!(s.pulse.len(), 3);
        assert_eq!(s.mpg.len(), 2, "MPG queue untouched at T_D = 40000");

        // Advance to T_D = 40008: labels 2 and 3 fire; the second I pulse,
        // then MPG and MD together (Table 4).
        let fired = t.advance(8);
        assert_eq!(fired.len(), 3);
        assert_eq!(fired[0].td, 40004);
        assert_eq!(fired[0].label, 2);
        assert_eq!(fired[0].queue, QueueId::Pulse);
        assert_eq!(fired[1].td, 40008);
        assert_eq!(fired[1].label, 3);
        assert_eq!(fired[1].queue, QueueId::Mpg);
        assert_eq!(fired[2].td, 40008);
        assert_eq!(fired[2].label, 3);
        assert_eq!(fired[2].queue, QueueId::Md);
        let s = t.snapshot();
        assert_eq!(s.td, 40008);
        assert_eq!(s.timing.len(), 3);
        assert_eq!(s.pulse.len(), 2);
        assert_eq!(s.mpg.len(), 1);
        assert_eq!(s.md.len(), 1);
    }

    #[test]
    fn clock_does_not_run_before_start() {
        let mut t = TimingControlUnit::new(8);
        assert!(t.push_time_point(TimePoint {
            interval: 1,
            label: 1
        }));
        assert!(t.advance(100).is_empty());
        assert_eq!(t.td(), 0);
        t.start();
        let fired = t.advance(100);
        assert_eq!(fired.len(), 0, "no events enqueued, just the time point");
        assert_eq!(t.stats().time_points_fired, 1);
        assert_eq!(t.td(), 100);
    }

    #[test]
    fn advance_in_small_steps_equals_one_big_step() {
        let build = || {
            let mut t = TimingControlUnit::new(64);
            load_allxy_prefix(&mut t);
            t.start();
            t
        };
        let mut a = build();
        let mut b = build();
        let fired_a = a.advance(80016);
        let mut fired_b = Vec::new();
        for _ in 0..80016 {
            fired_b.extend(b.advance(1));
        }
        assert_eq!(fired_a, fired_b);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn reset_in_place_behaves_as_a_fresh_unit() {
        let run = |t: &mut TimingControlUnit| {
            load_allxy_prefix(t);
            t.start();
            let fired = t.advance(40008);
            (fired, t.snapshot(), t.stats(), t.fired_watermark())
        };
        let mut fresh = TimingControlUnit::new(64);
        let want = run(&mut fresh);
        // Leave the reused unit mid-run: queues part-drained, clock and
        // counter running, watermark and high-water marks raised.
        let mut reused = TimingControlUnit::new(64);
        run(&mut reused);
        reused.advance(3);
        reused.reset();
        assert!(!reused.started());
        assert!(reused.is_drained());
        assert_eq!(reused.stats(), TimingStats::default());
        assert_eq!(run(&mut reused), want);
    }

    #[test]
    fn cycles_until_fire_tracks_counter() {
        let mut t = TimingControlUnit::new(8);
        assert!(t.push_time_point(TimePoint {
            interval: 10,
            label: 1
        }));
        assert_eq!(t.cycles_until_fire(), None, "not started");
        t.start();
        assert_eq!(t.cycles_until_fire(), Some(10));
        t.advance(3);
        assert_eq!(t.cycles_until_fire(), Some(7));
        t.advance(7);
        assert_eq!(t.cycles_until_fire(), None, "queue drained");
    }

    #[test]
    fn late_time_point_counts_as_underrun() {
        let mut t = TimingControlUnit::new(8);
        t.start();
        // Clock runs 100 cycles with an empty timing queue.
        t.advance(100);
        // Now a 10-cycle interval arrives — 90 cycles too late.
        assert!(t.push_time_point(TimePoint {
            interval: 10,
            label: 1
        }));
        let fired = t.advance(0);
        // Fires immediately (counter 100 ≥ interval 10) as an underrun.
        assert_eq!(t.stats().underruns, 1);
        assert_eq!(t.stats().time_points_fired, 1);
        assert!(fired.is_empty());
        assert_eq!(t.td(), 100);
    }

    #[test]
    fn capacity_backpressure() {
        let mut t = TimingControlUnit::new(2);
        assert!(t.push_time_point(TimePoint {
            interval: 1,
            label: 1
        }));
        assert!(t.push_time_point(TimePoint {
            interval: 1,
            label: 2
        }));
        assert!(!t.push_time_point(TimePoint {
            interval: 1,
            label: 3
        }));
        assert_eq!(t.timing_free(), 0);
        assert!(t.push_event(QueueId::Pulse, pulse_event(0), 1));
        assert!(t.push_event(QueueId::Pulse, pulse_event(0), 2));
        assert!(!t.push_event(QueueId::Pulse, pulse_event(0), 3));
        assert_eq!(t.event_free(QueueId::Pulse), 0);
    }

    #[test]
    fn events_only_fire_on_matching_label() {
        let mut t = TimingControlUnit::new(8);
        assert!(t.push_time_point(TimePoint {
            interval: 5,
            label: 1
        }));
        assert!(t.push_time_point(TimePoint {
            interval: 5,
            label: 2
        }));
        // Event for label 2 sits behind the label-1 time point.
        assert!(t.push_event(QueueId::Pulse, pulse_event(3), 2));
        t.start();
        let fired = t.advance(5);
        assert!(fired.is_empty(), "label 1 has no events");
        let fired = t.advance(5);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].label, 2);
        assert_eq!(fired[0].td, 10);
    }

    #[test]
    fn multiple_events_same_label_fire_together_in_order() {
        let mut t = TimingControlUnit::new(8);
        assert!(t.push_time_point(TimePoint {
            interval: 3,
            label: 7
        }));
        assert!(t.push_event(QueueId::Pulse, pulse_event(1), 7));
        assert!(t.push_event(QueueId::Pulse, pulse_event(2), 7));
        t.start();
        let fired = t.advance(3);
        assert_eq!(fired.len(), 2);
        assert!(
            matches!(fired[0].event, Event::Pulse { uop, .. } if uop == UopId(1)),
            "FIFO order preserved"
        );
        assert!(matches!(fired[1].event, Event::Pulse { uop, .. } if uop == UopId(2)));
    }

    #[test]
    fn drained_detection() {
        let mut t = TimingControlUnit::new(8);
        assert!(t.is_drained());
        assert!(t.push_time_point(TimePoint {
            interval: 1,
            label: 1
        }));
        assert!(!t.is_drained());
        t.start();
        t.advance(1);
        assert!(t.is_drained());
    }

    #[test]
    fn high_water_marks_recorded() {
        let mut t = TimingControlUnit::new(8);
        for i in 0..5 {
            assert!(t.push_time_point(TimePoint {
                interval: 1,
                label: i
            }));
        }
        assert!(t.push_event(QueueId::Md, md_event(), 0));
        let s = t.stats();
        assert_eq!(s.timing_high_water, 5);
        assert_eq!(s.md_high_water, 1);
        assert_eq!(s.pulse_high_water, 0);
    }
}

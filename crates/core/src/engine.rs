//! The shot engine: reusable batched execution on top of [`Device`].
//!
//! [`Device::new`] is expensive — it synthesizes one Table 1 pulse library
//! per qubit (Gaussian envelopes, area calibration, SSB modulation) and
//! seeds the whole control box — while an individual shot only needs the
//! architectural state cleared and the stochastic sources reseeded. The
//! engine layer separates the two costs:
//!
//! * [`Session`] owns a calibrated device and keeps it alive across shots;
//! * [`Session::load`] assembles/validates a program once into a
//!   [`LoadedProgram`] that batches reuse; [`Session::load_template`]
//!   does the same for compile-once [`ProgramTemplate`]s, whose
//!   immediate fields are rewritten per sweep point (O(1) per axis)
//!   instead of re-assembling a program per point;
//! * a [`Workload`] describes a batch once — a derived-seed shot batch,
//!   a program sweep, or a template sweep — as items that each pick a
//!   program state plus its seeds, and [`Session::execute`] runs any
//!   sub-range of it with a cheap per-item reset ([`Device::reseed`]
//!   plus the ordinary run reset) instead of reconstruction;
//! * with more than one thread, `execute` shards the range on **scoped
//!   threads over warm replicas, at most one per core**: contiguous
//!   blocks, block 0 on the calling thread and the rest on
//!   [`std::thread::scope`] threads, each on its own warm clone of the
//!   owned device. The session makes those clones on the first call
//!   that needs them and reuses them until [`Session::device_mut`]
//!   touches the owned device, so batches never pay a per-call device
//!   clone — while per-item seeds keep the results bit-identical to the
//!   sequential batch. The engine owns no long-lived threads.
//!
//! Determinism contract: shot `i` of a batch is bit-identical to a freshly
//! built device whose config carries the seeds of [`SeedPlan::shot`]`(i)`
//! — the property `tests/concurrent_runs.rs` locks in.

use crate::config::DeviceConfig;
use crate::device::{Device, DeviceError, RunReport};
use quma_isa::prelude::Program;
use quma_isa::template::{PatchError, ProgramTemplate};
use quma_obs::trace::{now_ns, SpanEvent, SpanKind, TraceBuffer, TraceId};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The two per-shot random seeds: the chip's projection/readout RNG and
/// the execution controller's instruction-jitter RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShotSeeds {
    /// Seed for the quantum chip (projection + readout noise).
    pub chip: u64,
    /// Seed for the execution-controller jitter model.
    pub jitter: u64,
}

/// Derives per-shot seeds from a pair of base seeds, via splitmix64.
///
/// The derivation is a pure function of `(base, index)`, so a batch shot
/// can be reproduced on a fresh device by copying its derived seeds into
/// the device configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedPlan {
    /// Base seed for the chip RNG stream.
    pub chip_base: u64,
    /// Base seed for the jitter RNG stream.
    pub jitter_base: u64,
}

/// splitmix64: the standard 64-bit finalizer (Steele et al.), used here to
/// decorrelate consecutive shot indices into independent seed values.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for `index` from a base seed (exposed so tests and
/// fresh-device reproductions can mirror a batch exactly).
pub fn derive_seed(base: u64, index: u64) -> u64 {
    splitmix64(base ^ index.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Resolves a requested worker-thread count against the amount of work:
/// `0` means "use [`std::thread::available_parallelism`]" (falling back
/// to 1 if the parallelism query fails), and the result is clamped to
/// `1..=items` so no worker ever starts with nothing to do.
/// [`Session::execute`] resolves its `threads` argument through this
/// function, so `threads == 0` is the portable "auto" spelling
/// everywhere.
pub fn resolve_threads(threads: usize, items: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    };
    requested.clamp(1, items.max(1))
}

/// One batch of work, described once: a list of items, each a program
/// state plus the seeds it runs with. [`Session::execute`] runs any
/// sub-range of the items, sequentially or sharded, and item `i` always
/// produces the same report — the property chunked streaming and
/// checkpoint resume rely on.
///
/// Sharded blocks borrow the workload, so sharding copies nothing.
/// Cloning is cheap too: programs and point lists are [`Arc`]-shared,
/// so a clone copies pointers, not instructions.
#[derive(Clone)]
pub enum Workload {
    /// `count` derived-seed shots of one program: item `i` runs with
    /// `plan.shot(first + i)`.
    Shots {
        /// The program every shot runs.
        program: LoadedProgram,
        /// The plan the per-shot seeds derive from; `None` uses the
        /// executing session's [`Session::seed_plan`].
        plan: Option<SeedPlan>,
        /// Seed index of item 0 (a batch continuing an earlier one
        /// starts past it).
        first: u64,
        /// Number of shots.
        count: u64,
    },
    /// A sweep of prepared programs, each point with explicit seeds.
    Sweep {
        /// The points, in order.
        points: Arc<[(LoadedProgram, ShotSeeds)]>,
    },
    /// A patch-per-point sweep of one template: item `i` patches the
    /// axes of `points[i]` into a copy of `working` and runs it with the
    /// point's seeds. Every point must patch the same set of axes (see
    /// [`TemplatePoint::patches`]); a mismatch against point 0 is
    /// rejected before any item of the range runs.
    TemplateSweep {
        /// The template program in the state the sweep starts from
        /// (patches applied before the sweep — e.g. fixing a non-swept
        /// axis — are kept).
        working: Arc<Program>,
        /// The points, in order.
        points: Arc<[TemplatePoint]>,
    },
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Workload::Shots { .. } => "Shots",
            Workload::Sweep { .. } => "Sweep",
            Workload::TemplateSweep { .. } => "TemplateSweep",
        };
        f.debug_struct(name).field("items", &self.len()).finish()
    }
}

impl Workload {
    /// A template sweep starting from `template`'s current working state
    /// (shared, not copied).
    pub fn template_sweep(template: &LoadedTemplate, points: Arc<[TemplatePoint]>) -> Self {
        Workload::TemplateSweep {
            working: Arc::clone(&template.working),
            points,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        match self {
            Workload::Shots { count, .. } => usize::try_from(*count).unwrap_or(usize::MAX),
            Workload::Sweep { points } => points.len(),
            Workload::TemplateSweep { points, .. } => points.len(),
        }
    }

    /// True when the workload has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `items` back to back on `device`: the per-item body every
    /// execution path shares. `session_plan` seeds shot batches that
    /// carry no plan of their own. A template sweep forks one private
    /// copy of its working program per block. Stops at the first failing
    /// item.
    fn run_block(
        &self,
        device: &mut Device,
        items: Range<usize>,
        session_plan: SeedPlan,
    ) -> Result<Vec<RunReport>, DeviceError> {
        let mut patched: Option<Program> = None;
        let mut reports = Vec::with_capacity(items.len());
        for i in items {
            let (program, seeds) = match self {
                Workload::Shots {
                    program,
                    plan,
                    first,
                    ..
                } => (
                    program.program(),
                    plan.unwrap_or(session_plan).shot(first + i as u64),
                ),
                Workload::Sweep { points } => (points[i].0.program(), points[i].1),
                Workload::TemplateSweep { working, points } => {
                    let working = patched.get_or_insert_with(|| Program::clone(working));
                    for (name, value) in &points[i].patches {
                        working.patch(name, *value)?;
                    }
                    (&*working, points[i].seeds)
                }
            };
            device.reseed(seeds.chip, seeds.jitter);
            reports.push(device.run(program)?);
        }
        Ok(reports)
    }
}

/// Rejects template-sweep items whose points patch a different axis set
/// than point 0: a skipped axis would inherit worker-dependent state,
/// breaking sequential == parallel.
fn check_axis_sets(points: &[TemplatePoint], items: Range<usize>) -> Result<(), DeviceError> {
    fn axes(p: &TemplatePoint) -> Vec<&str> {
        let mut names: Vec<&str> = p.patches.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names
    }
    // An empty sweep has no items to check.
    let want = points.first().map(axes).unwrap_or_default();
    for i in items {
        let got = axes(&points[i]);
        if got != want {
            return Err(DeviceError::Config(format!(
                "template sweep point {i} patches axes {got:?}, expected {want:?}"
            )));
        }
    }
    Ok(())
}

impl SeedPlan {
    /// A plan whose base seeds come from the device configuration.
    pub fn from_config(cfg: &DeviceConfig) -> Self {
        Self {
            chip_base: cfg.chip_seed,
            jitter_base: cfg.jitter_seed,
        }
    }

    /// The seeds for shot `index`.
    pub fn shot(&self, index: u64) -> ShotSeeds {
        ShotSeeds {
            chip: derive_seed(self.chip_base, index),
            jitter: derive_seed(self.jitter_base ^ 0x6A09_E667_F3BC_C909, index),
        }
    }
}

/// A program prepared for repeated execution: assembled once (if from
/// source), so the per-shot path never re-parses. Gate resolution still
/// happens in the decode pipeline at run time. The instruction sequence
/// is shared behind an [`std::sync::Arc`], so cloning a loaded program
/// (per sweep point) is a pointer copy.
#[derive(Debug, Clone)]
pub struct LoadedProgram {
    program: Arc<Program>,
}

impl LoadedProgram {
    /// Wraps an already-shared program without copying it (sweeps that
    /// deduplicate compiled programs hand the same `Arc` to many points).
    pub fn from_arc(program: Arc<Program>) -> Self {
        Self { program }
    }

    /// The underlying instruction sequence.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.program.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.program.len() == 0
    }
}

/// A template prepared for patch-per-point sweeps: the pristine program
/// and the working copy, both shared behind an [`Arc`]. The working copy
/// is copied on write — only by the first patch while it is shared (with
/// the base, a clone, or a [`Workload`]) — and its slots are then
/// rewritten in place: no re-assembly, no re-encode of anything but the
/// touched immediates.
#[derive(Debug, Clone)]
pub struct LoadedTemplate {
    base: Arc<Program>,
    working: Arc<Program>,
}

impl LoadedTemplate {
    /// The pristine template program (as compiled; never patched).
    pub fn base(&self) -> &Program {
        &self.base
    }

    /// The working copy in its current patch state.
    pub fn working(&self) -> &Program {
        &self.working
    }

    /// Patches every slot named `name` in the working copy; O(1) per
    /// site.
    pub fn patch(&mut self, name: &str, value: i64) -> Result<usize, PatchError> {
        Arc::make_mut(&mut self.working).patch(name, value)
    }

    /// Restores the working copy to the pristine template (a pointer
    /// copy; the next patch copies the program again).
    pub fn reset(&mut self) {
        self.working = Arc::clone(&self.base);
    }
}

/// One point of a template sweep: the axis values to patch and the shot
/// seeds to run with.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplatePoint {
    /// `(axis name, value)` pairs applied before the shot. Every point of
    /// a sweep must patch the same set of axes (points only write the
    /// slots they name, so a skipped axis would inherit whatever the
    /// previous point on the same worker left behind — and sequential and
    /// parallel sweeps stride points differently).
    pub patches: Vec<(String, i64)>,
    /// The shot seeds for this point.
    pub seeds: ShotSeeds,
}

/// A batch of completed shots, in shot order.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per shot, index-aligned with the seed plan.
    pub shots: Vec<RunReport>,
}

impl BatchReport {
    /// Number of shots.
    pub fn len(&self) -> usize {
        self.shots.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.shots.is_empty()
    }

    /// Fraction of discrimination results reading `|1⟩` on `qubit`,
    /// pooled across every shot in the batch.
    pub fn ones_fraction(&self, qubit: usize) -> f64 {
        let (ones, total) = self
            .shots
            .iter()
            .flat_map(|r| r.md_results.iter())
            .filter(|m| m.qubit == qubit)
            .fold((0u64, 0u64), |(o, t), m| (o + u64::from(m.bit), t + 1));
        ones as f64 / total.max(1) as f64
    }

    /// Total discrimination results across the batch.
    pub fn total_md_results(&self) -> usize {
        self.shots.iter().map(|r| r.md_results.len()).sum()
    }
}

/// Observability attachment for a [`Session`]: a shared span ring plus
/// the trace id and thread lane every batch span should carry. The
/// device pool installs one per job on its warm worker sessions so
/// engine-level `shot_batch` spans join the job's end-to-end trace.
#[derive(Clone, Debug)]
pub struct SessionTracer {
    /// Ring buffer the spans are recorded into.
    pub buf: TraceBuffer,
    /// Correlation id (the pool job id) stamped on every span.
    pub trace_id: TraceId,
    /// Thread lane for trace viewers (the pool worker index).
    pub tid: u32,
}

/// A long-lived execution context: one calibrated device, many programs,
/// many shots.
pub struct Session {
    device: Device,
    /// Base seed plan, captured from the device config at construction.
    plan: SeedPlan,
    /// Shot indices consumed so far: successive batches continue the seed
    /// sequence instead of replaying it, so pooling two batches never
    /// double-counts the same noise realizations.
    next_shot: u64,
    /// Warm clones of `device`, one per parallel block: made the first
    /// time a call needs them, reused across calls, dropped by
    /// [`Session::device_mut`].
    replicas: Vec<Device>,
    /// Optional span sink; batches record `shot_batch` spans when set.
    /// Pure observation — never consulted on the execution path, so the
    /// determinism contract is unaffected.
    tracer: Option<SessionTracer>,
}

impl Clone for Session {
    /// Clones the device and seed state. The warm replicas are *not*
    /// cloned — the copy makes its own on its first parallel call. The
    /// tracer attachment (if any) is shared: both sessions record into
    /// the same ring.
    fn clone(&self) -> Self {
        Self {
            device: self.device.clone(),
            plan: self.plan,
            next_shot: self.next_shot,
            replicas: Vec::new(),
            tracer: self.tracer.clone(),
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("device", &self.device)
            .field("plan", &self.plan)
            .field("next_shot", &self.next_shot)
            .field("replicas", &self.replicas.len())
            .field("traced", &self.tracer.is_some())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Builds a session around a freshly calibrated device.
    pub fn new(config: DeviceConfig) -> Result<Self, DeviceError> {
        Ok(Self::from_device(Device::new(config)?))
    }

    /// Wraps an existing (possibly error-injected) device. The seed plan
    /// derives from the device's construction-time config seeds.
    pub fn from_device(device: Device) -> Self {
        let plan = SeedPlan::from_config(device.config());
        Self {
            device,
            plan,
            next_shot: 0,
            replicas: Vec::new(),
            tracer: None,
        }
    }

    /// Attaches (or replaces) the span sink for this session's batches.
    /// The pool re-targets a warm worker session per job this way.
    pub fn set_tracer(&mut self, tracer: Option<SessionTracer>) {
        self.tracer = tracer;
    }

    /// The current span sink, if any.
    pub fn tracer(&self) -> Option<&SessionTracer> {
        self.tracer.as_ref()
    }

    /// Records a `shot_batch` span covering `start_ns..now` when a
    /// tracer is attached; `a` carries the item count, `b` the worker
    /// fan-out (0 for sequential batches).
    fn span_batch(&self, start_ns: u64, items: u64, fanout: u64) {
        if let Some(t) = &self.tracer {
            t.buf.record(SpanEvent {
                kind: SpanKind::ShotBatch,
                label: 0,
                trace: t.trace_id,
                tid: t.tid,
                start_ns,
                end_ns: now_ns(),
                a: items,
                b: fanout,
            });
        }
    }

    /// The owned device, for inspection.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The owned device, mutable — for calibration uploads and error
    /// injection between batches.
    ///
    /// Any mutable access may change parameters the warm replicas carry
    /// (pulse libraries, noise, readout tuning — things a per-shot
    /// reseed does *not* restore), so it conservatively drops them; the
    /// next parallel call re-clones.
    pub fn device_mut(&mut self) -> &mut Device {
        self.replicas.clear();
        &mut self.device
    }

    /// The session's base seed plan (captured when the session was built).
    pub fn seed_plan(&self) -> SeedPlan {
        self.plan
    }

    /// Number of batch shot indices consumed so far; the next
    /// [`Session::run_shots`] batch starts its seed derivation here.
    pub fn shots_run(&self) -> u64 {
        self.next_shot
    }

    /// Replaces the session's seed plan. Paired with
    /// [`Session::reset_shot_counter`], a reused session then replays
    /// [`Session::run_shots`] exactly as a fresh session built from that
    /// plan's seeds would.
    pub fn set_seed_plan(&mut self, plan: SeedPlan) {
        self.plan = plan;
    }

    /// Rewinds the batch shot counter to 0, so the next batch derives
    /// its seeds from index 0 again — exactly like a freshly built
    /// session. Together with [`Session::set_seed_plan`] this makes a
    /// long-lived worker session bit-reproducible per job instead of per
    /// session lifetime.
    pub fn reset_shot_counter(&mut self) {
        self.next_shot = 0;
    }

    /// Rebases the session onto new seeds: the device (and its warm
    /// replicas) as [`Device::rebase`], the seed plan derived from them,
    /// the shot counter at 0. Afterwards the session runs exactly as a
    /// fresh `Session::new` of its config with these seeds would; the
    /// device pool serves every job on a warm session this way.
    pub fn rebase(&mut self, chip_seed: u64, jitter_seed: u64) {
        self.device.rebase(chip_seed, jitter_seed);
        for replica in &mut self.replicas {
            replica.rebase(chip_seed, jitter_seed);
        }
        self.plan = SeedPlan::from_config(self.device.config());
        self.next_shot = 0;
    }

    /// Prepares a program for batched execution. Loading just captures
    /// the instruction sequence — gate resolution against the Q control
    /// store stays a run-time concern (an unknown gate surfaces as
    /// [`DeviceError::UnknownGate`] on the first shot).
    pub fn load(&self, program: &Program) -> LoadedProgram {
        LoadedProgram {
            program: Arc::new(program.clone()),
        }
    }

    /// Prepares a template for patch-per-point sweeps: one program copy,
    /// shared by the pristine original and the working state until the
    /// first patch. After loading, a whole sweep costs O(1)-word patches
    /// per point — no assembler, no program reconstruction.
    pub fn load_template(&self, template: &ProgramTemplate) -> LoadedTemplate {
        let base = Arc::new(template.program().clone());
        LoadedTemplate {
            working: Arc::clone(&base),
            base,
        }
    }

    /// Assembles source into a [`LoadedProgram`] once; batches then skip
    /// the assembler entirely.
    pub fn load_assembly(&self, source: &str) -> Result<LoadedProgram, DeviceError> {
        let program = quma_isa::asm::Assembler::new().assemble(source)?;
        Ok(self.load(&program))
    }

    /// Runs a loaded program once *without* reseeding: continues the
    /// device's current RNG streams, exactly like [`Device::run`]. The
    /// first run of a fresh session is therefore bit-identical to the
    /// legacy one-device-one-run path.
    pub fn run(&mut self, program: &LoadedProgram) -> Result<RunReport, DeviceError> {
        self.device.run(&program.program)
    }

    /// Runs one shot with explicit seeds: cheap per-shot reset (reseed +
    /// architectural clear), no reconstruction.
    pub fn run_shot(
        &mut self,
        program: &LoadedProgram,
        seeds: ShotSeeds,
    ) -> Result<RunReport, DeviceError> {
        self.device.reseed(seeds.chip, seeds.jitter);
        self.device.run(&program.program)
    }

    /// Runs the items `items` of `work` and returns their reports in item
    /// order — the one batch entry point. Every item reseeds before it
    /// runs, so item `i` produces the same report whatever range it runs
    /// in and however the range is sharded.
    ///
    /// `threads` is resolved through [`resolve_threads`] (`0` = one per
    /// available core). One thread runs the range on the owned device
    /// on the calling thread. More shard it on scoped threads over warm
    /// replicas, at most one per core: contiguous blocks, block 0 on
    /// the calling thread, each block on its own warm clone of the
    /// calibrated device. A sharded call leaves the owned device's RNG
    /// streams where they were, and on failure returns the error of the
    /// lowest failing item — the one the sequential loop would stop at.
    /// A [`Workload::Shots`] run that succeeds leaves the shot counter
    /// ([`Session::shots_run`]) just past its last shot, so the next
    /// [`Session::run_shots`] continues the seed sequence.
    ///
    /// # Panics
    ///
    /// If `items` reaches past `work.len()`, or with "engine worker
    /// panicked" if a sharded block panics.
    pub fn execute(
        &mut self,
        work: &Workload,
        items: Range<usize>,
        threads: usize,
    ) -> Result<Vec<RunReport>, DeviceError> {
        assert!(
            items.start <= items.end && items.end <= work.len(),
            "items {items:?} out of range for {work:?}"
        );
        if let Workload::TemplateSweep { points, .. } = work {
            check_axis_sets(points, items.clone())?;
        }
        let t0 = now_ns();
        let mut blocks = resolve_threads(threads, items.len());
        let reports = if blocks == 1 {
            work.run_block(&mut self.device, items.clone(), self.plan)?
        } else {
            // Capped to the cores, a sharded call may run one block, but
            // still on a replica: it never touches the owned device.
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            blocks = blocks.min(cores);
            self.run_blocks(blocks, work, items.clone())?
        };
        let fanout = if blocks == 1 { 0 } else { blocks as u64 };
        self.span_batch(t0, items.len() as u64, fanout);
        if let Workload::Shots { first, .. } = work {
            self.next_shot = first + items.end as u64;
        }
        Ok(reports)
    }

    /// Runs `items` of `work` in `blocks` contiguous blocks, one per warm
    /// replica: block 0 on the calling thread, the rest on scoped
    /// threads. Blocks come back in item order, so the first error met
    /// is the lowest-index one. The replicas are held outside the
    /// session while they run, so a panicking block drops them.
    fn run_blocks(
        &mut self,
        blocks: usize,
        work: &Workload,
        items: Range<usize>,
    ) -> Result<Vec<RunReport>, DeviceError> {
        let mut replicas = std::mem::take(&mut self.replicas);
        if replicas.len() < blocks {
            replicas.resize_with(blocks, || self.device.clone());
        }
        let (n, plan) = (items.len(), self.plan);
        let block = |t: usize| items.start + t * n / blocks..items.start + (t + 1) * n / blocks;
        let (head, rest) = replicas[..blocks].split_first_mut().expect("blocks >= 1");
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = (1..)
                .zip(rest)
                .map(|(t, device)| s.spawn(move || work.run_block(device, block(t), plan)))
                .collect();
            let first = catch_unwind(AssertUnwindSafe(|| work.run_block(head, block(0), plan)));
            std::iter::once(first)
                .chain(handles.into_iter().map(|h| h.join()))
                .map(|r| r.expect("engine worker panicked"))
                .collect::<Vec<_>>()
        });
        self.replicas = replicas;
        let mut reports = Vec::with_capacity(n);
        for result in results {
            reports.append(&mut result?);
        }
        Ok(reports)
    }

    /// Runs `shots` shots sequentially with seeds derived from the
    /// session's seed plan, continuing from where the previous batch left
    /// off (shot `i` of the session's lifetime uses `seed_plan().shot(i)`).
    /// The shot counter advances only when the whole batch succeeds, so a
    /// retried batch replays the same seed indices.
    pub fn run_shots(
        &mut self,
        program: &LoadedProgram,
        shots: u64,
    ) -> Result<BatchReport, DeviceError> {
        let work = Workload::Shots {
            program: program.clone(),
            plan: None,
            first: self.next_shot,
            count: shots,
        };
        self.execute(&work, 0..work.len(), 1)
            .map(|shots| BatchReport { shots })
    }

    /// Runs a patch-per-point sweep sequentially: each point's axes are
    /// patched into a copy of the template's working state (O(1) per
    /// axis — no re-assembly, no program rebuild) and run with the
    /// point's seeds. Every point must patch the same set of axes; a
    /// mismatch against point 0 is rejected before anything runs.
    pub fn run_template_sweep(
        &mut self,
        template: &LoadedTemplate,
        points: &[TemplatePoint],
    ) -> Result<Vec<RunReport>, DeviceError> {
        self.execute(
            &Workload::template_sweep(template, points.into()),
            0..points.len(),
            1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChipProfile, DeviceConfig};
    use crate::trace::TraceLevel;
    use quma_obs::trace::TraceBuffer;

    const SEGMENT: &str = "\
        Wait 40000\n\
        Pulse {q0}, X90\n\
        Wait 4\n\
        Pulse {q0}, X90\n\
        Wait 4\n\
        MPG {q0}, 300\n\
        MD {q0}, r7\n\
        halt\n";

    fn config() -> DeviceConfig {
        DeviceConfig {
            chip: ChipProfile::Paper,
            chip_seed: 0x5E55,
            trace: TraceLevel::Off,
            ..DeviceConfig::default()
        }
    }

    /// `count` shots continuing `session`'s seed sequence.
    fn shots(session: &Session, loaded: &LoadedProgram, count: u64) -> Workload {
        Workload::Shots {
            program: loaded.clone(),
            plan: Some(session.seed_plan()),
            first: session.shots_run(),
            count,
        }
    }

    fn sweep(points: &[(LoadedProgram, ShotSeeds)]) -> Workload {
        Workload::Sweep {
            points: points.into(),
        }
    }

    fn template_sweep(template: &LoadedTemplate, points: &[TemplatePoint]) -> Workload {
        Workload::template_sweep(template, points.into())
    }

    #[test]
    fn first_session_run_matches_legacy_device_run() {
        let mut dev = Device::new(config()).unwrap();
        let want = dev.run_assembly(SEGMENT).unwrap();
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let got = session.run(&loaded).unwrap();
        assert_eq!(got.registers, want.registers);
        assert_eq!(got.md_results, want.md_results);
    }

    #[test]
    fn batch_shot_matches_fresh_device_with_derived_seeds() {
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let batch = session.run_shots(&loaded, 4).unwrap();
        let plan = SeedPlan::from_config(&config());
        for (i, shot) in batch.shots.iter().enumerate() {
            let seeds = plan.shot(i as u64);
            let mut fresh = Device::new(DeviceConfig {
                chip_seed: seeds.chip,
                jitter_seed: seeds.jitter,
                ..config()
            })
            .unwrap();
            let want = fresh.run_assembly(SEGMENT).unwrap();
            assert_eq!(shot.registers, want.registers, "shot {i}");
            assert_eq!(shot.md_results, want.md_results, "shot {i}");
        }
    }

    #[test]
    fn parallel_batch_matches_sequential() {
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let sequential = session.run_shots(&loaded, 6).unwrap();
        // A second session starts the shot counter at 0 again, so the
        // parallel batch covers the same seed indices.
        let mut session = Session::new(config()).unwrap();
        let parallel = session
            .execute(&shots(&session, &loaded, 6), 0..6, 3)
            .unwrap();
        assert_eq!(sequential.len(), parallel.len());
        assert_eq!(session.shots_run(), 6);
        for (a, b) in sequential.shots.iter().zip(parallel.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
    }

    #[test]
    fn successive_batches_continue_the_seed_sequence() {
        // Two 2-shot batches must equal one 4-shot batch, never a replay
        // of the first two seeds.
        let mut split = Session::new(config()).unwrap();
        let loaded = split.load_assembly(SEGMENT).unwrap();
        let first = split.run_shots(&loaded, 2).unwrap();
        let second = split.run_shots(&loaded, 2).unwrap();
        let mut whole = Session::new(config()).unwrap();
        let all = whole.run_shots(&loaded, 4).unwrap();
        for (i, (a, b)) in first
            .shots
            .iter()
            .chain(second.shots.iter())
            .zip(all.shots.iter())
            .enumerate()
        {
            assert_eq!(a.md_results, b.md_results, "shot {i}");
        }
        assert_ne!(
            first.shots[0].md_results, second.shots[0].md_results,
            "the second batch must draw fresh noise realizations"
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let mut session = Session::new(config()).unwrap();
        let plan = session.seed_plan();
        let points: Vec<(LoadedProgram, ShotSeeds)> = (0..5)
            .map(|i| (session.load_assembly(SEGMENT).unwrap(), plan.shot(i)))
            .collect();
        let sequential = session.execute(&sweep(&points), 0..5, 1).unwrap();
        let parallel = session.execute(&sweep(&points), 0..5, 3).unwrap();
        assert_eq!(sequential.len(), parallel.len());
        for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(a.registers, b.registers, "point {i}");
            assert_eq!(a.md_results, b.md_results, "point {i}");
        }
    }

    #[test]
    fn sweep_runs_each_point_with_its_seeds() {
        let mut session = Session::new(config()).unwrap();
        let plan = session.seed_plan();
        let points: Vec<(LoadedProgram, ShotSeeds)> = (0..3)
            .map(|i| (session.load_assembly(SEGMENT).unwrap(), plan.shot(i as u64)))
            .collect();
        let reports = session.execute(&sweep(&points), 0..3, 1).unwrap();
        assert_eq!(reports.len(), 3);
        // Same seeds, same program → the sweep repeats the batch exactly.
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let batch = session.run_shots(&loaded, 3).unwrap();
        for (a, b) in reports.iter().zip(batch.shots.iter()) {
            assert_eq!(a.md_results, b.md_results);
        }
    }

    #[test]
    fn retuned_readout_invalidates_the_mdu_cache() {
        // Re-tuning the readout chain between batches must re-calibrate
        // the cached MDUs, keeping session shots bit-identical to fresh
        // devices with the same injection applied.
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let seeds = session.seed_plan().shot(0);
        session.run_shot(&loaded, seeds).unwrap(); // populate the cache
        session
            .device_mut()
            .chip_mut()
            .qubit_mut(0)
            .readout
            .noise_sigma = 0.8;
        let got = session.run_shot(&loaded, seeds).unwrap();
        let mut fresh = Device::new(DeviceConfig {
            chip_seed: seeds.chip,
            jitter_seed: seeds.jitter,
            ..config()
        })
        .unwrap();
        fresh.chip_mut().qubit_mut(0).readout.noise_sigma = 0.8;
        let want = fresh.run_assembly(SEGMENT).unwrap();
        assert_eq!(got.md_results, want.md_results);
    }

    #[test]
    fn parallel_batch_after_device_mut_sees_the_change() {
        // Warm replicas are clones of the owned device: a retune through
        // `device_mut` must reach the next parallel batch instead of
        // running on the stale clones the previous batch warmed.
        fn retune(session: &mut Session) {
            session
                .device_mut()
                .chip_mut()
                .qubit_mut(0)
                .readout
                .noise_sigma = 0.8;
        }
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let work = shots(&session, &loaded, 4);
        session.execute(&work, 0..4, 2).unwrap(); // warm the replicas
        retune(&mut session);
        let parallel = session.execute(&work, 0..4, 2).unwrap();
        let mut fresh = Session::new(config()).unwrap();
        retune(&mut fresh);
        let sequential = fresh.execute(&work, 0..4, 1).unwrap();
        for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(a.md_results, b.md_results, "shot {i}");
        }
    }

    #[test]
    fn oversubscribed_batch_runs_at_most_one_block_per_core() {
        let buf = TraceBuffer::new(16);
        let mut session = Session::new(config()).unwrap();
        session.set_tracer(Some(SessionTracer {
            buf: buf.clone(),
            trace_id: 1,
            tid: 0,
        }));
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let work = shots(&session, &loaded, 8);
        let got = session.execute(&work, 0..8, 64).unwrap();
        let want = Session::new(config())
            .unwrap()
            .execute(&work, 0..8, 1)
            .unwrap();
        for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
            assert_eq!(a.registers, b.registers, "shot {i}");
            assert_eq!(a.md_results, b.md_results, "shot {i}");
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let blocks = cores.min(8) as u64;
        let spans = buf.events();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].a, spans[0].b),
            (8, if blocks == 1 { 0 } else { blocks })
        );
    }

    #[test]
    fn load_assembly_surfaces_assembler_errors() {
        let session = Session::new(config()).unwrap();
        let err = session.load_assembly("not an instruction\n").unwrap_err();
        assert!(matches!(err, DeviceError::Assemble(_)));
    }

    #[test]
    fn ones_fraction_pools_across_shots() {
        let mut session = Session::new(DeviceConfig::default()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        // Ideal chip: X90·X90 = X180 always measures 1.
        let batch = session.run_shots(&loaded, 3).unwrap();
        assert_eq!(batch.total_md_results(), 3);
        assert!((batch.ones_fraction(0) - 1.0).abs() < f64::EPSILON);
    }

    fn tau_template() -> ProgramTemplate {
        let src = "\
            Wait 40000\n\
            Pulse {q0}, X180\n\
            Wait 4\n\
            Wait 4\n\
            MPG {q0}, 300\n\
            MD {q0}, r7\n\
            halt\n";
        let mut program = quma_isa::asm::Assembler::new().assemble(src).unwrap();
        program
            .add_slot("tau", 3, quma_isa::template::PatchField::WaitInterval)
            .unwrap();
        ProgramTemplate::new(program)
    }

    fn tau_source(tau: u32) -> String {
        format!(
            "Wait 40000\n\
             Pulse {{q0}}, X180\n\
             Wait 4\n\
             Wait {tau}\n\
             MPG {{q0}}, 300\n\
             MD {{q0}}, r7\n\
             halt\n"
        )
    }

    fn tau_points(session: &Session, taus: &[u32]) -> Vec<TemplatePoint> {
        let plan = session.seed_plan();
        taus.iter()
            .enumerate()
            .map(|(i, &tau)| TemplatePoint {
                patches: vec![("tau".to_string(), i64::from(tau))],
                seeds: plan.shot(i as u64),
            })
            .collect()
    }

    const TAUS: [u32; 5] = [4, 400, 1200, 4000, 12000];

    #[test]
    fn template_sweep_matches_per_point_assembly() {
        // The tentpole contract: patching the loaded template per point
        // is bit-identical to assembling a fresh program per point.
        let mut session = Session::new(config()).unwrap();
        let template = session.load_template(&tau_template());
        let points = tau_points(&session, &TAUS);
        let got = session.run_template_sweep(&template, &points).unwrap();
        let per_point: Vec<(LoadedProgram, ShotSeeds)> = TAUS
            .iter()
            .zip(points.iter())
            .map(|(&tau, p)| (session.load_assembly(&tau_source(tau)).unwrap(), p.seeds))
            .collect();
        let want = session
            .execute(&sweep(&per_point), 0..per_point.len(), 1)
            .unwrap();
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(a.registers, b.registers, "point {i}");
            assert_eq!(a.md_results, b.md_results, "point {i}");
        }
    }

    #[test]
    fn parallel_template_sweep_matches_sequential() {
        let mut session = Session::new(config()).unwrap();
        let template = session.load_template(&tau_template());
        let points = tau_points(&session, &TAUS);
        let sequential = session.run_template_sweep(&template, &points).unwrap();
        let parallel = session
            .execute(&template_sweep(&template, &points), 0..points.len(), 3)
            .unwrap();
        for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(a.registers, b.registers, "point {i}");
            assert_eq!(a.md_results, b.md_results, "point {i}");
        }
    }

    #[test]
    fn parallel_sweep_honors_pre_sweep_patches() {
        // Patch a second, non-swept axis before the sweep: both paths
        // must run every point with that value (workers fork from the
        // working state, not the pristine base).
        let mut program = quma_isa::asm::Assembler::new()
            .assemble(
                "Wait 40000\n\
                 Pulse {q0}, X180\n\
                 Wait 4\n\
                 Wait 4\n\
                 MPG {q0}, 300\n\
                 MD {q0}, r7\n\
                 halt\n",
            )
            .unwrap();
        program
            .add_slot("tau", 3, quma_isa::template::PatchField::WaitInterval)
            .unwrap();
        program
            .add_slot("window", 4, quma_isa::template::PatchField::MpgDuration)
            .unwrap();
        let template = ProgramTemplate::new(program);
        let mut session = Session::new(config()).unwrap();
        let points = tau_points(&session, &TAUS);
        let mut loaded = session.load_template(&template);
        loaded.patch("window", 24).unwrap();
        let sequential = session.run_template_sweep(&loaded, &points).unwrap();
        let parallel = session
            .execute(&template_sweep(&loaded, &points), 0..points.len(), 3)
            .unwrap();
        for (i, (a, b)) in sequential.iter().zip(parallel.iter()).enumerate() {
            assert_eq!(a.md_results, b.md_results, "point {i}");
        }
        // And the shortened window really took effect versus the default.
        let loaded = session.load_template(&template);
        let default_window = session.run_template_sweep(&loaded, &points).unwrap();
        assert_ne!(
            sequential[0].stats.host_cycles, default_window[0].stats.host_cycles,
            "the pre-sweep patch must change the run"
        );
    }

    #[test]
    fn template_sweep_rejects_mismatched_axes() {
        let mut session = Session::new(config()).unwrap();
        let template = session.load_template(&tau_template());
        let mut points = tau_points(&session, &TAUS);
        points[2].patches.clear();
        let err = session.run_template_sweep(&template, &points).unwrap_err();
        assert!(matches!(err, DeviceError::Config(_)));
        let err = session
            .execute(&template_sweep(&template, &points), 0..points.len(), 2)
            .unwrap_err();
        assert!(matches!(err, DeviceError::Config(_)));
        // A range that stops short of the bad point runs; one that
        // reaches it is rejected against point 0's axes.
        let work = template_sweep(&template, &points);
        assert_eq!(session.execute(&work, 0..2, 1).unwrap().len(), 2);
        assert!(session.execute(&work, 1..3, 1).is_err());
    }

    #[test]
    fn axis_sets_match_in_any_order() {
        let point = |patches: &[(&str, i64)]| TemplatePoint {
            patches: patches.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            seeds: ShotSeeds { chip: 0, jitter: 0 },
        };
        let points = [point(&[("a", 1), ("b", 2)]), point(&[("b", 3), ("a", 4)])];
        assert!(check_axis_sets(&points, 0..2).is_ok());
        assert!(check_axis_sets(&[], 0..0).is_ok());
        let skipped = [point(&[("a", 1), ("b", 2)]), point(&[("a", 3)])];
        let err = check_axis_sets(&skipped, 0..2).unwrap_err();
        assert!(err.to_string().contains("expected"));
    }

    #[test]
    fn template_patch_errors_surface_as_device_errors() {
        let mut session = Session::new(config()).unwrap();
        let template = session.load_template(&tau_template());
        let seeds = session.seed_plan().shot(0);
        let points = vec![TemplatePoint {
            patches: vec![("nope".to_string(), 4)],
            seeds,
        }];
        let err = session.run_template_sweep(&template, &points).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::Patch(quma_isa::template::PatchError::UnknownSlot(_))
        ));
    }

    #[test]
    fn loaded_template_reset_restores_the_base() {
        let session = Session::new(config()).unwrap();
        let mut template = session.load_template(&tau_template());
        template.patch("tau", 8000).unwrap();
        assert_ne!(
            template.working().instructions(),
            template.base().instructions()
        );
        template.reset();
        assert_eq!(
            template.working().instructions(),
            template.base().instructions()
        );
    }

    #[test]
    fn resolve_threads_auto_and_clamping() {
        // 0 = auto: one worker per available core, clamped to the work.
        let auto = resolve_threads(0, usize::MAX);
        assert!(auto >= 1);
        assert_eq!(
            auto,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        assert_eq!(resolve_threads(0, 2), auto.min(2));
        // Explicit counts clamp to 1..=items; zero items still yields one
        // (idle) worker so empty batches behave like the sequential path.
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(3, 8), 3);
        assert_eq!(resolve_threads(5, 0), 1);
        assert_eq!(resolve_threads(0, 0), 1);
    }

    #[test]
    fn threads_zero_means_auto_not_sequential_clamp() {
        // threads == 0 used to silently clamp to one worker; it now means
        // "auto" and must still be bit-identical to the sequential batch.
        let mut session = Session::new(config()).unwrap();
        let loaded = session.load_assembly(SEGMENT).unwrap();
        let sequential = session.run_shots(&loaded, 6).unwrap();
        let mut session = Session::new(config()).unwrap();
        let auto = session
            .execute(&shots(&session, &loaded, 6), 0..6, 0)
            .unwrap();
        for (a, b) in sequential.shots.iter().zip(auto.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
        // More workers than shots is fine too.
        let mut session = Session::new(config()).unwrap();
        let oversubscribed = session
            .execute(&shots(&session, &loaded, 3), 0..3, 64)
            .unwrap();
        assert_eq!(oversubscribed.len(), 3);
    }

    #[test]
    fn seed_plan_reset_replays_a_fresh_session() {
        // A worker session that has already consumed shots, once rewound
        // and given the job's plan, must replay exactly what a fresh
        // session with that plan produces.
        let mut warm = Session::new(config()).unwrap();
        let loaded = warm.load_assembly(SEGMENT).unwrap();
        warm.run_shots(&loaded, 5).unwrap(); // drift the counter
        let job_plan = SeedPlan {
            chip_base: 0xD0_0D,
            jitter_base: 0xF00D,
        };
        warm.set_seed_plan(job_plan);
        warm.reset_shot_counter();
        assert_eq!(warm.shots_run(), 0);
        let got = warm.run_shots(&loaded, 4).unwrap();
        let mut fresh = Session::new(config()).unwrap();
        fresh.set_seed_plan(job_plan);
        let want = fresh.run_shots(&loaded, 4).unwrap();
        for (a, b) in got.shots.iter().zip(want.shots.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
    }

    #[test]
    fn a_rebased_session_replays_a_fresh_one() {
        // A used session (counter advanced, replicas warm), rebased to
        // other seeds, must equal a fresh session built with them: its
        // plan, its unseeded first run and its shot batches.
        let mut warm = Session::new(config()).unwrap();
        let loaded = warm.load_assembly(SEGMENT).unwrap();
        warm.execute(&shots(&warm, &loaded, 4), 0..4, 2).unwrap();
        warm.rebase(0xD0_0D, 0xF00D);
        assert_eq!(warm.shots_run(), 0);
        let mut fresh = Session::new(DeviceConfig {
            chip_seed: 0xD0_0D,
            jitter_seed: 0xF00D,
            ..config()
        })
        .unwrap();
        assert_eq!(warm.seed_plan(), fresh.seed_plan());
        assert_eq!(warm.device().config(), fresh.device().config());
        let (got, want) = (warm.run(&loaded).unwrap(), fresh.run(&loaded).unwrap());
        assert_eq!(got.md_results, want.md_results);
        let got = warm.execute(&shots(&warm, &loaded, 4), 0..4, 2).unwrap();
        let want = fresh.run_shots(&loaded, 4).unwrap();
        for (a, b) in got.iter().zip(want.shots.iter()) {
            assert_eq!(a.registers, b.registers);
            assert_eq!(a.md_results, b.md_results);
        }
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let plan = SeedPlan {
            chip_base: 1,
            jitter_base: 1,
        };
        let a = plan.shot(0);
        let b = plan.shot(1);
        assert_ne!(a.chip, b.chip);
        assert_ne!(a.jitter, b.jitter);
        assert_ne!(a.chip, a.jitter, "streams must differ even at one base");
    }
}

//! The four served workloads: what one job of each is, how its seeds
//! derive from the workload seed, and how a served result is replayed in
//! process and reduced to a digest for the determinism check
//! (served = direct, bit for bit).

use std::sync::{Arc, OnceLock};

use quma_core::prelude::{
    derive_seed, ChipProfile, DeviceConfig, RunReport, SeedPlan, Session, ShotSeeds, TemplatePoint,
    TraceLevel,
};
use quma_experiments::harness;
use quma_experiments::prelude::{QecConfig, QecInjected, QecResult};
use quma_experiments::qec;
use quma_isa::template::PatchField;
use quma_journal::{JobSpec, TemplatePointSpec};
use quma_pool::prelude::{DevicePool, Job, ProgramCache, SlotSpec};
use quma_serve::prelude::Json;

/// The quickstart segment: initialise, two `X90`s, measure.
const QUICKSTART_SEGMENT: &str = "\
    Wait 40000\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

/// A T1 shot whose second `Wait 4` (instruction 3) is the τ patch slot.
pub const T1_SOURCE: &str = "\
    Wait 40000\n\
    Pulse {q0}, X180\n\
    Wait 4\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

/// Instruction index of the τ slot in [`T1_SOURCE`].
const T1_TAU_INSN: u32 = 3;
/// Points per T1 sweep job, τ = 4, 804, …, 12004 cycles.
const T1_POINTS: i64 = 16;
const T1_TAU_STEP: i64 = 800;

/// Pulses per gate-sequence shot (alternating `X90` / `Y90`).
pub const GATE_PULSES: usize = 200;

/// Jobs one journal directory takes. A journaled job appends ~265 KB to
/// `results.qrl`, so a journal stays near 25 MB: runs move to a fresh
/// pool and journal every `JOURNAL_JOBS` jobs rather than grow one file
/// with the run's length.
pub const JOURNAL_JOBS: u64 = 96;

/// Shots per shot-batch job.
const SHOTS_PER_JOB: u64 = 4;

/// `GATE_PULSES` alternating `X90`/`Y90` pulses followed by one readout.
pub fn gate_sequence_source() -> &'static str {
    static SOURCE: OnceLock<String> = OnceLock::new();
    SOURCE.get_or_init(|| {
        let mut s = String::from("Wait 40000\n");
        for i in 0..GATE_PULSES {
            let gate = if i % 2 == 0 { "X90" } else { "Y90" };
            s.push_str(&format!("Pulse {{q0}}, {gate}\nWait 4\n"));
        }
        s.push_str("MPG {q0}, 300\nMD {q0}, r7\nhalt\n");
        s
    })
}

/// The device every shot and sweep job runs on (the pool's base
/// configuration): one transmon with the paper's noisy readout chain.
pub fn base_device() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0x5EED,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

/// Client poll schedule for `GET /jobs/{id}/result`: sleep `first_us`,
/// then multiply the sleep by [`BACKOFF_FACTOR`] after every unfinished
/// poll, up to `cap_us`.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    pub first_us: u64,
    pub cap_us: u64,
}

pub const BACKOFF_FACTOR: u64 = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallShots,
    GateSequences,
    SweepsJournaled,
    QecFeedback,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SmallShots,
        Workload::GateSequences,
        Workload::SweepsJournaled,
        Workload::QecFeedback,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallShots => "served_small_shots",
            Workload::GateSequences => "served_gate_sequences",
            Workload::SweepsJournaled => "served_sweeps_journaled",
            Workload::QecFeedback => "served_qec_feedback",
        }
    }

    /// Whether the pool journals this workload's jobs.
    pub fn journaled(self) -> bool {
        self == Workload::SweepsJournaled
    }

    /// Whether the program branches on measurement results. A feedback
    /// branch stalls issue until its result lands, so the time points
    /// after it are enqueued late: timing-queue underruns are then the
    /// modelled feedback latency, not a control error.
    pub fn feedback(self) -> bool {
        self == Workload::QecFeedback
    }

    /// Jobs of the fixed-size warm-up phase. The warm-up also fixes the
    /// point where `peak_rss_mb` is read and, when journaled, the size of
    /// the journal the restart in `setup_s` recovers, so neither metric
    /// scales with throughput.
    pub fn warmup_jobs(self) -> usize {
        match self {
            Workload::SmallShots => 2000,
            Workload::GateSequences => 600,
            Workload::SweepsJournaled => JOURNAL_JOBS as usize,
            Workload::QecFeedback => 40,
        }
    }

    /// Warm-up jobs of a freshly built pool and server.
    pub fn rewarm_jobs(self) -> u64 {
        self.warmup_jobs() as u64 / 4
    }

    /// Most jobs one measured phase runs on one server: a journaled
    /// server stops when its journal holds [`JOURNAL_JOBS`].
    pub fn phase_jobs(self) -> u64 {
        if self.journaled() {
            JOURNAL_JOBS - self.rewarm_jobs()
        } else {
            u64::MAX
        }
    }

    /// Measured-phase jobs replayed in process for the digest check
    /// (evenly spaced over the phase).
    pub fn replay_sample(self) -> usize {
        match self {
            Workload::SmallShots => 64,
            Workload::GateSequences => 16,
            Workload::SweepsJournaled => 32,
            Workload::QecFeedback => 6,
        }
    }

    /// The poll schedule. The cap keeps the poll grid fine against the
    /// job's own duration, so latency figures move smoothly with the
    /// work instead of jumping between poll instants.
    pub fn backoff(self) -> Backoff {
        let (first_us, cap_us) = match self {
            Workload::SmallShots => (50, 100),
            Workload::GateSequences => (200, 400),
            Workload::SweepsJournaled => (200, 400),
            Workload::QecFeedback => (500, 1000),
        };
        Backoff { first_us, cap_us }
    }

    /// One sentence on why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SmallShots => {
                "per-job serving costs (HTTP, JSON, registry, pool dispatch, warm-session \
                 rewind) are comparable to the ~0.35 ms of device time per job"
            }
            Workload::GateSequences => {
                "codeword-triggered pulses dominate; readout and serving are small, so it \
                 bypasses readout and serving optimisations"
            }
            Workload::SweepsJournaled => {
                "the only workload on the journal write path and the template-patch path"
            }
            Workload::QecFeedback => {
                "runs the mixed-code feedback path, the stabilizer backend, the QEC lowering, \
                 the experiments harness and the pool's fresh-clone experiment path"
            }
        }
    }

    /// The job with stream key `key` (a pure function of the key).
    pub fn job(self, key: u64) -> JobDoc {
        let plan = SeedPlan {
            chip_base: json_safe(derive_seed(key, 1)),
            jitter_base: json_safe(derive_seed(key, 2)),
        };
        match self {
            Workload::SmallShots => JobDoc::Shots {
                source: QUICKSTART_SEGMENT,
                shots: SHOTS_PER_JOB,
                plan,
            },
            Workload::GateSequences => JobDoc::Shots {
                source: gate_sequence_source(),
                shots: SHOTS_PER_JOB,
                plan,
            },
            Workload::SweepsJournaled => JobDoc::T1Sweep {
                points: (0..T1_POINTS)
                    .map(|i| TemplatePoint {
                        patches: vec![("tau".to_string(), 4 + i * T1_TAU_STEP)],
                        seeds: {
                            let seeds = plan.shot(i as u64);
                            ShotSeeds {
                                chip: json_safe(seeds.chip),
                                jitter: json_safe(seeds.jitter),
                            }
                        },
                    })
                    .collect(),
            },
            Workload::QecFeedback => JobDoc::Qec(QecConfig {
                distance: 7,
                rounds: 3,
                shots: 16,
                error_rate: 0.01,
                feedback: true,
                profile: ChipProfile::Stabilizer,
                chip_seed: plan.chip_base,
                injection_seed: plan.jitter_base,
                threads: 1,
                ..QecConfig::default()
            }),
        }
    }
}

/// The stream key of job `ticket` of `phase` under workload seed `seed`.
pub fn job_key(seed: u64, phase: u64, ticket: u64) -> u64 {
    derive_seed(derive_seed(seed, phase), ticket)
}

/// Seeds travel as JSON integers, which the wire reads as `i64`.
fn json_safe(seed: u64) -> u64 {
    seed >> 2
}

fn t1_slots() -> [SlotSpec; 1] {
    [SlotSpec::new("tau", T1_TAU_INSN, PatchField::WaitInterval)]
}

/// One job, as the benchmark generates it.
#[derive(Debug, Clone)]
pub enum JobDoc {
    Shots {
        source: &'static str,
        shots: u64,
        plan: SeedPlan,
    },
    T1Sweep {
        points: Vec<TemplatePoint>,
    },
    Qec(QecConfig),
}

fn int(v: u64) -> Json {
    Json::Int(i64::try_from(v).expect("seeds are json-safe"))
}

impl JobDoc {
    /// The `POST /jobs` document.
    pub fn to_json(&self) -> Json {
        match self {
            JobDoc::Shots {
                source,
                shots,
                plan,
            } => Json::obj([
                ("kind", Json::str("shots")),
                ("source", Json::str(*source)),
                ("shots", int(*shots)),
                (
                    "seed_plan",
                    Json::obj([
                        ("chip_base", int(plan.chip_base)),
                        ("jitter_base", int(plan.jitter_base)),
                    ]),
                ),
            ]),
            JobDoc::T1Sweep { points } => Json::obj([
                ("kind", Json::str("template_sweep")),
                ("source", Json::str(T1_SOURCE)),
                (
                    "slots",
                    Json::Arr(vec![Json::obj([
                        ("name", Json::str("tau")),
                        ("instruction", int(u64::from(T1_TAU_INSN))),
                        ("field", Json::str("wait_interval")),
                    ])]),
                ),
                (
                    "points",
                    Json::Arr(
                        points
                            .iter()
                            .map(|p| {
                                Json::obj([
                                    (
                                        "patches",
                                        Json::obj(
                                            p.patches
                                                .iter()
                                                .map(|(axis, v)| (axis.clone(), Json::Int(*v))),
                                        ),
                                    ),
                                    (
                                        "seeds",
                                        Json::obj([
                                            ("chip", int(p.seeds.chip)),
                                            ("jitter", int(p.seeds.jitter)),
                                        ]),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            JobDoc::Qec(cfg) => Json::obj([
                ("kind", Json::str("experiment")),
                ("experiment", Json::str("qec")),
                (
                    "config",
                    Json::obj([
                        ("distance", int(cfg.distance as u64)),
                        ("rounds", int(cfg.rounds as u64)),
                        ("shots", int(cfg.shots)),
                        ("error_rate", Json::Float(cfg.error_rate)),
                        ("feedback", Json::Bool(cfg.feedback)),
                        ("profile", Json::str("stabilizer")),
                        ("chip_seed", int(cfg.chip_seed)),
                        ("injection_seed", int(cfg.injection_seed)),
                    ]),
                ),
            ]),
        }
    }

    /// Shots the job executes.
    pub fn shots(&self) -> u64 {
        match self {
            JobDoc::Shots { shots, .. } => *shots,
            JobDoc::T1Sweep { points } => points.len() as u64,
            JobDoc::Qec(cfg) => cfg.shots,
        }
    }

    /// The same job built through the pool's Rust API (`submit`/`wait`
    /// replay, no HTTP). Journaled pools get the spec the wire would
    /// attach.
    pub fn to_pool_job(&self, pool: &DevicePool) -> Result<Job, String> {
        Ok(match self {
            JobDoc::Shots {
                source,
                shots,
                plan,
            } => {
                let program = pool.assemble(source).map_err(|e| e.to_string())?;
                Job::shots(program, *shots).with_seed_plan(*plan)
            }
            JobDoc::T1Sweep { points } => {
                let template = pool
                    .assemble_template(T1_SOURCE, &t1_slots())
                    .map_err(|e| e.to_string())?;
                let job = Job::template_sweep(template, points.clone());
                if pool.journaled() {
                    job.with_spec(JobSpec::TemplateSweep {
                        source: T1_SOURCE.to_string(),
                        slots: t1_slots().to_vec(),
                        points: points
                            .iter()
                            .map(|p| TemplatePointSpec {
                                patches: p.patches.clone(),
                                chip: p.seeds.chip,
                                jitter: p.seeds.jitter,
                            })
                            .collect(),
                    })
                } else {
                    job
                }
            }
            JobDoc::Qec(cfg) => Job::experiment(QecInjected::default(), cfg.clone()),
        })
    }
}

/// What an in-process replay of one job produced.
pub struct Replay {
    pub digest: u64,
    /// Per-shot reports (empty for QEC, whose harness returns a summary).
    pub reports: Vec<RunReport>,
}

/// Runs jobs directly on a [`Session`] (shots, sweeps) or through the
/// experiments harness (QEC) — the reference the served results must
/// equal.
pub struct Replayer {
    session: Session,
    cache: ProgramCache,
}

impl Replayer {
    pub fn new() -> Result<Self, String> {
        Ok(Self {
            session: Session::new(base_device()).map_err(|e| e.to_string())?,
            cache: ProgramCache::new(),
        })
    }

    pub fn replay(&mut self, job: &JobDoc) -> Result<Replay, String> {
        match job {
            JobDoc::Shots {
                source,
                shots,
                plan,
            } => {
                let program = self.cache.assemble(source).map_err(|e| e.to_string())?;
                let loaded = self.session.load(&program);
                self.session.set_seed_plan(*plan);
                self.session.reset_shot_counter();
                let batch = self
                    .session
                    .run_shots(&loaded, *shots)
                    .map_err(|e| e.to_string())?;
                Ok(Replay {
                    digest: digest_reports(&batch.shots),
                    reports: batch.shots,
                })
            }
            JobDoc::T1Sweep { points } => {
                let template = self
                    .cache
                    .assemble_template(T1_SOURCE, &t1_slots())
                    .map_err(|e| e.to_string())?;
                let mut loaded = self.session.load_template(&template);
                let reports = self
                    .session
                    .run_template_sweep(&mut loaded, points)
                    .map_err(|e| e.to_string())?;
                Ok(Replay {
                    digest: digest_reports(&reports),
                    reports,
                })
            }
            JobDoc::Qec(cfg) => {
                let result =
                    harness::run(&QecInjected::default(), cfg).map_err(|e| e.to_string())?;
                Ok(Replay {
                    digest: digest_qec(&result),
                    reports: Vec::new(),
                })
            }
        }
    }
}

/// The QEC job's compiled program run shot by shot on a [`Session`] over
/// the experiment's own device (for engine statistics and timing; the
/// harness replay is what the digest check compares against).
pub fn qec_session_reports(cfg: &QecConfig) -> Result<(Vec<RunReport>, f64), String> {
    let program = Arc::new(qec::code_for(cfg).compile());
    let mut session = Session::new(qec::device_config(cfg)).map_err(|e| e.to_string())?;
    let loaded = session.load(&program);
    let t = std::time::Instant::now();
    let batch = session
        .run_shots(&loaded, cfg.shots)
        .map_err(|e| e.to_string())?;
    Ok((batch.shots, t.elapsed().as_secs_f64()))
}

/// FNV-1a over a canonical field stream.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Digest of the deterministic payload of shot records: registers,
/// discrimination results, collector averages (floats by bit pattern).
pub fn digest_reports(reports: &[RunReport]) -> u64 {
    let mut d = Digest::new();
    d.u64(reports.len() as u64);
    for r in reports {
        d.u64(r.registers.len() as u64);
        for &reg in &r.registers {
            d.i64(i64::from(reg));
        }
        d.u64(r.md_results.len() as u64);
        for md in &r.md_results {
            d.i64(i64::try_from(md.td).unwrap_or(i64::MAX));
            d.u64(md.qubit as u64);
            d.i64(i64::from(md.bit));
            d.f64(md.s);
            d.i64(md.rd.map_or(-1, |reg| i64::from(reg.index())));
        }
        d.u64(r.collector_averages.len() as u64);
        for per_qubit in &r.collector_averages {
            d.u64(per_qubit.len() as u64);
            for &v in per_qubit {
                d.f64(v);
            }
        }
    }
    d.0
}

/// Digest of a QEC summary.
pub fn digest_qec(r: &QecResult) -> u64 {
    let mut d = Digest::new();
    for v in [
        r.distance as u64,
        r.rounds as u64,
        r.shots,
        r.logical_errors,
        r.injected_flips,
    ] {
        d.u64(v);
    }
    for v in [r.error_rate, r.logical_error_rate, r.error_sem] {
        d.f64(v);
    }
    d.u64(r.majority_bits.len() as u64);
    for &b in &r.majority_bits {
        d.u64(u64::from(b));
    }
    d.0
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("result lacks '{key}'"))
}

fn arr<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("result field '{key}' is not an array"))
}

fn i64_of(v: &Json) -> Result<i64, String> {
    v.as_i64()
        .ok_or_else(|| format!("expected an integer, got {}", v.encode()))
}

fn f64_of(v: &Json) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("expected a number, got {}", v.encode()))
}

/// Digest of a served result document, in the same canonical stream as
/// [`digest_reports`] / [`digest_qec`].
pub fn digest_served(doc: &Json) -> Result<u64, String> {
    let kind = field(doc, "type")?.as_str().unwrap_or("");
    let records = match kind {
        "batch" => arr(doc, "shots")?,
        "reports" => arr(doc, "points")?,
        "experiment" => return digest_served_qec(doc),
        other => return Err(format!("unexpected result type '{other}'")),
    };
    let mut d = Digest::new();
    d.u64(records.len() as u64);
    for r in records {
        let registers = arr(r, "registers")?;
        d.u64(registers.len() as u64);
        for reg in registers {
            d.i64(i64_of(reg)?);
        }
        let mds = arr(r, "md_results")?;
        d.u64(mds.len() as u64);
        for md in mds {
            d.i64(i64_of(field(md, "td")?)?);
            d.u64(i64_of(field(md, "qubit")?)? as u64);
            d.i64(i64_of(field(md, "bit")?)?);
            d.f64(f64_of(field(md, "s")?)?);
            let rd = field(md, "rd")?;
            d.i64(if matches!(rd, Json::Null) {
                -1
            } else {
                i64_of(rd)?
            });
        }
        let averages = arr(r, "collector_averages")?;
        d.u64(averages.len() as u64);
        for per_qubit in averages {
            let values = per_qubit
                .as_arr()
                .ok_or("collector averages are not arrays")?;
            d.u64(values.len() as u64);
            for v in values {
                d.f64(f64_of(v)?);
            }
        }
    }
    Ok(d.0)
}

fn digest_served_qec(doc: &Json) -> Result<u64, String> {
    let mut d = Digest::new();
    for key in [
        "distance",
        "rounds",
        "shots",
        "logical_errors",
        "injected_flips",
    ] {
        d.u64(i64_of(field(doc, key)?)? as u64);
    }
    for key in ["error_rate", "logical_error_rate", "error_sem"] {
        d.f64(f64_of(field(doc, key)?)?);
    }
    let bits = arr(doc, "majority_bits")?;
    d.u64(bits.len() as u64);
    for b in bits {
        d.u64(i64_of(b)? as u64);
    }
    Ok(d.0)
}

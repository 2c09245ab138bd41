//! Wire schemas: translating domain objects (shot reports, metrics,
//! submissions) to and from the JSON documents the HTTP API speaks.
//!
//! Encoding is lossless where determinism is observable: registers and
//! discrimination bits are integers, and every `f64` (integration
//! values, collector averages, fitted rates) crosses the wire in Rust's
//! shortest-round-trip decimal form, so a client that parses a served
//! shot record holds **bit-identical** values to a direct
//! [`Session`](quma_core::engine::Session) run —
//! `tests/http_lifecycle.rs` pins exactly that.

use std::time::Duration;

use crate::json::Json;
use quma_core::prelude::ChipProfile;
use quma_core::prelude::{BatchReport, RunReport, ShotSeeds};
use quma_experiments::prelude::{
    Allxy, AllxyConfig, AllxyResult, QecCompiled, QecConfig, QecInjected, QecResult,
};
use quma_isa::template::PatchField;
use quma_journal::{JobSpec, SweepPointSpec, TemplatePointSpec};
use quma_pool::prelude::{Job, JobMetrics, JobOutput, Priority, ShotChunk, SlotSpec};
use quma_pool::DevicePool;

/// What one validated `POST /jobs` body builds: the pool job plus the
/// serving-side description of it.
pub(crate) struct Submission {
    /// The pool job, ready to submit.
    pub job: Job,
    /// The wire name of the kind (`shots` / `sweep` / `template_sweep`
    /// / `experiment`).
    pub kind: &'static str,
    /// The experiment name for experiment jobs.
    pub experiment: Option<&'static str>,
}

/// Why a submission document was rejected: the detail plus structured
/// context (`path` names the field; `point` or `slot` the list entry).
/// Served as a 422 `validation_error` problem.
#[derive(Debug)]
pub(crate) struct FieldError {
    /// Human-readable description of the fault.
    pub detail: String,
    /// Context pairs, in the order they were attached.
    pub context: Vec<(String, Json)>,
}

impl FieldError {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
            context: Vec::new(),
        }
    }

    fn with_context(mut self, key: &str, value: Json) -> Self {
        self.context.push((key.to_string(), value));
        self
    }
}

fn field_error(detail: impl Into<String>, path: &str) -> FieldError {
    FieldError::new(detail).with_context("path", Json::str(path))
}

fn want_u64(doc: &Json, key: &str, default: Option<u64>) -> Result<u64, FieldError> {
    match doc.get(key) {
        None => default.ok_or_else(|| field_error(format!("missing field '{key}'"), key)),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| field_error(format!("'{key}' must be a non-negative integer"), key)),
    }
}

fn want_f64(doc: &Json, key: &str, default: f64) -> Result<f64, FieldError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| field_error(format!("'{key}' must be a number"), key)),
    }
}

fn want_bool(doc: &Json, key: &str, default: bool) -> Result<bool, FieldError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| field_error(format!("'{key}' must be a boolean"), key)),
    }
}

fn want_str<'d>(doc: &'d Json, key: &str) -> Result<&'d str, FieldError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| field_error(format!("missing string field '{key}'"), key))
}

fn seeds_from(doc: &Json, key: &str) -> Result<ShotSeeds, FieldError> {
    let obj = doc
        .get(key)
        .ok_or_else(|| field_error(format!("missing field '{key}'"), key))?;
    Ok(ShotSeeds {
        chip: want_u64(obj, "chip", None)?,
        jitter: want_u64(obj, "jitter", None)?,
    })
}

fn plan_from(obj: &Json) -> Result<(u64, u64), FieldError> {
    Ok((
        want_u64(obj, "chip_base", None)?,
        want_u64(obj, "jitter_base", None)?,
    ))
}

fn profile_from(doc: &Json, key: &str, default: ChipProfile) -> Result<ChipProfile, FieldError> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => match v.as_str() {
            Some("ideal") => Ok(ChipProfile::Ideal),
            Some("paper") => Ok(ChipProfile::Paper),
            Some("stabilizer") => Ok(ChipProfile::Stabilizer),
            _ => Err(field_error(
                format!("'{key}' must be one of \"ideal\", \"paper\", \"stabilizer\""),
                key,
            )),
        },
    }
}

/// Parses and validates a `POST /jobs` body into a [`Submission`].
/// Every rejection is a [`FieldError`] naming the bad field.
pub(crate) fn parse_submission(doc: &Json, pool: &DevicePool) -> Result<Submission, FieldError> {
    if !matches!(doc, Json::Obj(_)) {
        return Err(FieldError::new("the job document must be an object"));
    }
    let priority = match doc.get("priority") {
        None => Priority::Normal,
        Some(v) => match v.as_str() {
            Some("normal") => Priority::Normal,
            Some("high") => Priority::High,
            _ => {
                return Err(field_error(
                    "'priority' must be \"normal\" or \"high\"",
                    "priority",
                ))
            }
        },
    };
    let submission = match want_str(doc, "kind")? {
        "shots" => workload(parse_shots(doc)?, pool)?,
        "sweep" => workload(parse_sweep(doc)?, pool)?,
        "template_sweep" => workload(parse_template_sweep(doc)?, pool)?,
        "experiment" => parse_experiment(doc, pool)?,
        other => {
            return Err(field_error(
                format!(
                    "unknown job kind '{other}' \
                     (expected shots | sweep | template_sweep | experiment)"
                ),
                "kind",
            ))
        }
    };
    Ok(Submission {
        job: submission.job.with_priority(priority),
        ..submission
    })
}

/// The submission for a shot, sweep or template-sweep spec. The pool
/// builds the job; a source it cannot assemble is a field error naming
/// the source field (and, for sweeps, the point).
fn workload(spec: JobSpec, pool: &DevicePool) -> Result<Submission, FieldError> {
    let kind = spec.kind();
    let job = pool.job_from_spec(spec).map_err(|e| {
        let what = if kind == "template_sweep" {
            "template"
        } else {
            "assembly"
        };
        let error = field_error(format!("{what} rejected: {}", e.error), "source");
        match e.point {
            Some(i) => error.with_context("point", Json::uint(i as u64)),
            None => error,
        }
    })?;
    Ok(Submission {
        job,
        kind,
        experiment: None,
    })
}

fn parse_shots(doc: &Json) -> Result<JobSpec, FieldError> {
    let source = want_str(doc, "source")?;
    let shots = want_u64(doc, "shots", None)?;
    if shots == 0 || shots > 1_000_000 {
        return Err(field_error("'shots' must be in 1..=1000000", "shots"));
    }
    Ok(JobSpec::Shots {
        source: source.to_string(),
        shots,
        plan: doc.get("seed_plan").map(plan_from).transpose()?,
        chunk: want_u64(doc, "chunk_shots", Some(0))?,
    })
}

fn parse_sweep(doc: &Json) -> Result<JobSpec, FieldError> {
    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or_else(|| field_error("'points' must be an array", "points"))?;
    if points.is_empty() || points.len() > 100_000 {
        return Err(field_error(
            "'points' must hold 1..=100000 points",
            "points",
        ));
    }
    let mut spec_points = Vec::with_capacity(points.len());
    for (i, point) in points.iter().enumerate() {
        let at = |p: FieldError| p.with_context("point", Json::uint(i as u64));
        let source = want_str(point, "source").map_err(at)?;
        let seeds = seeds_from(point, "seeds").map_err(at)?;
        spec_points.push(SweepPointSpec {
            source: source.to_string(),
            chip: seeds.chip,
            jitter: seeds.jitter,
        });
    }
    Ok(JobSpec::Sweep {
        points: spec_points,
    })
}

fn parse_template_sweep(doc: &Json) -> Result<JobSpec, FieldError> {
    let source = want_str(doc, "source")?;
    let slots_doc = doc
        .get("slots")
        .and_then(Json::as_arr)
        .ok_or_else(|| field_error("'slots' must be an array", "slots"))?;
    let mut slots = Vec::with_capacity(slots_doc.len());
    for (i, slot) in slots_doc.iter().enumerate() {
        let name =
            want_str(slot, "name").map_err(|p| p.with_context("slot", Json::uint(i as u64)))?;
        let insn = want_u64(slot, "instruction", None)
            .map_err(|p| p.with_context("slot", Json::uint(i as u64)))?;
        let field = match slot.get("field").and_then(Json::as_str) {
            Some("wait_interval") => PatchField::WaitInterval,
            Some("mov_imm") => PatchField::MovImm,
            Some("mpg_duration") => PatchField::MpgDuration,
            Some("pulse_uop") => PatchField::PulseUop {
                op: want_u64(slot, "op", Some(0))? as usize,
            },
            _ => {
                return Err(field_error(
                    "'field' must be one of \"wait_interval\", \"mov_imm\", \
                     \"mpg_duration\", \"pulse_uop\"",
                    "field",
                )
                .with_context("slot", Json::uint(i as u64)))
            }
        };
        slots.push(SlotSpec::new(name, insn as u32, field));
    }
    let points_doc = doc
        .get("points")
        .and_then(Json::as_arr)
        .ok_or_else(|| field_error("'points' must be an array", "points"))?;
    if points_doc.is_empty() || points_doc.len() > 100_000 {
        return Err(field_error(
            "'points' must hold 1..=100000 points",
            "points",
        ));
    }
    let mut points = Vec::with_capacity(points_doc.len());
    for (i, point) in points_doc.iter().enumerate() {
        let seeds = seeds_from(point, "seeds")
            .map_err(|p| p.with_context("point", Json::uint(i as u64)))?;
        let patches = match point.get("patches") {
            Some(Json::Obj(pairs)) => pairs
                .iter()
                .map(|(axis, v)| {
                    v.as_i64().map(|n| (axis.clone(), n)).ok_or_else(|| {
                        field_error("patch values must be integers", "patches")
                            .with_context("point", Json::uint(i as u64))
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => {
                return Err(field_error("'patches' must be an object", "patches")
                    .with_context("point", Json::uint(i as u64)))
            }
        };
        points.push(TemplatePointSpec {
            patches,
            chip: seeds.chip,
            jitter: seeds.jitter,
        });
    }
    Ok(JobSpec::TemplateSweep {
        source: source.to_string(),
        slots,
        points,
    })
}

/// Syndrome rounds a served `qec` job may ask for. The program grows
/// linearly in rounds and compiles at submit; at this bound a d=25
/// compile takes about 25 ms.
const QEC_MAX_ROUNDS: u64 = 100;

fn parse_experiment(doc: &Json, pool: &DevicePool) -> Result<Submission, FieldError> {
    let name = want_str(doc, "experiment")?;
    // Experiment configs are typed per experiment, so the journal gets
    // the whole submission document as an opaque payload; recovery hands
    // it back to `parse_submission` to rebuild the job.
    let with_spec = |job: Job, tag: &str| {
        job.with_spec(JobSpec::Opaque {
            tag: tag.to_string(),
            payload: doc.encode().into_bytes(),
        })
    };
    let cfg = doc.get("config").cloned().unwrap_or(Json::Obj(Vec::new()));
    match name {
        "allxy" => {
            let defaults = AllxyConfig::default();
            let config = AllxyConfig {
                averages: want_u64(&cfg, "averages", Some(u64::from(defaults.averages)))? as u32,
                init_cycles: want_u64(&cfg, "init_cycles", Some(u64::from(defaults.init_cycles)))?
                    as u32,
                double_points: want_bool(&cfg, "double_points", defaults.double_points)?,
                chip: profile_from(&cfg, "profile", defaults.chip)?,
                seed: want_u64(&cfg, "seed", Some(defaults.seed))?,
                ..defaults
            };
            Ok(Submission {
                job: with_spec(Job::experiment(Allxy, config), "allxy"),
                kind: "experiment",
                experiment: Some("allxy"),
            })
        }
        "qec" => {
            let defaults = QecConfig::default();
            let distance = want_u64(&cfg, "distance", Some(defaults.distance as u64))? as usize;
            if distance.is_multiple_of(2) || !(3..=25).contains(&distance) {
                return Err(field_error(
                    "'distance' must be odd and in 3..=25",
                    "distance",
                ));
            }
            let profile = profile_from(&cfg, "profile", defaults.profile)?;
            if distance > 5 && profile != ChipProfile::Stabilizer {
                return Err(field_error(
                    "distances above 5 need \"stabilizer\" as the profile",
                    "profile",
                ));
            }
            // The program compiles at submit, on this thread: every
            // precondition of the compile is checked here first.
            let rounds = want_u64(&cfg, "rounds", Some(defaults.rounds as u64))?;
            if !(1..=QEC_MAX_ROUNDS).contains(&rounds) {
                return Err(field_error(
                    format!("'rounds' must be in 1..={QEC_MAX_ROUNDS}"),
                    "rounds",
                ));
            }
            let init_cycles = want_u64(&cfg, "init_cycles", Some(u64::from(defaults.init_cycles)))?;
            if init_cycles > i32::MAX as u64 {
                return Err(field_error(
                    format!("'init_cycles' must be at most {}", i32::MAX),
                    "init_cycles",
                ));
            }
            let config = QecConfig {
                distance,
                rounds: rounds as usize,
                shots: want_u64(&cfg, "shots", Some(defaults.shots))?,
                error_rate: want_f64(&cfg, "error_rate", defaults.error_rate)?,
                logical_one: want_bool(&cfg, "logical_one", defaults.logical_one)?,
                feedback: want_bool(&cfg, "feedback", defaults.feedback)?,
                profile,
                chip_seed: want_u64(&cfg, "chip_seed", Some(defaults.chip_seed))?,
                injection_seed: want_u64(&cfg, "injection_seed", Some(defaults.injection_seed))?,
                threads: 1,
                init_cycles: init_cycles as u32,
            };
            // The compiled program depends only on the compile inputs, so
            // identical points share one cached compile.
            let injected = QecInjected::default();
            let code = injected.code(&config);
            let (program, hit) = pool
                .cache()
                .compile(&format!("{code:?}"), || code.compile());
            let exp = QecCompiled { injected, program };
            Ok(Submission {
                job: with_spec(Job::experiment(exp, config).mark_cache_hit(hit), "qec"),
                kind: "experiment",
                experiment: Some("qec"),
            })
        }
        other => Err(field_error(
            format!("unknown experiment '{other}' (expected allxy | qec)"),
            "experiment",
        )),
    }
}

/// A finished job's result document, a function of the output alone —
/// so a result served after a restart (from the result log, or by a
/// resumed job) is byte-identical to the one served before it.
pub(crate) fn encode_output(output: JobOutput) -> Json {
    match output {
        JobOutput::Batch(batch) => encode_batch(&batch),
        JobOutput::Reports(reports) => encode_reports(&reports),
        JobOutput::Experiment(any) => match any.downcast::<AllxyResult>() {
            Ok(result) => encode_allxy(&result),
            Err(any) => any
                .downcast::<QecResult>()
                .map_or(Json::Null, |r| encode_qec(&r)),
        },
    }
}

/// Encodes one shot record. The triple (`registers`, `md_results`,
/// `collector_averages`) is the deterministic payload the bit-identity
/// contract covers; run statistics ride along informationally.
fn encode_run_report(report: &RunReport) -> Json {
    Json::obj([
        (
            "registers",
            Json::Arr(
                report
                    .registers
                    .iter()
                    .map(|&r| Json::Int(i64::from(r)))
                    .collect(),
            ),
        ),
        (
            "md_results",
            Json::Arr(
                report
                    .md_results
                    .iter()
                    .map(|md| {
                        Json::obj([
                            ("td", Json::uint(md.td)),
                            ("qubit", Json::uint(md.qubit as u64)),
                            ("bit", Json::Int(i64::from(md.bit))),
                            ("s", Json::Float(md.s)),
                            (
                                "rd",
                                md.rd
                                    .map_or(Json::Null, |r| Json::Int(i64::from(r.index()))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "collector_averages",
            Json::Arr(
                report
                    .collector_averages
                    .iter()
                    .map(|per_qubit| Json::Arr(per_qubit.iter().map(|&v| Json::Float(v)).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a `Shots` batch as `{"type":"batch","shots":[…]}`.
fn encode_batch(batch: &BatchReport) -> Json {
    Json::obj([
        ("type", Json::str("batch")),
        (
            "shots",
            Json::Arr(batch.shots.iter().map(encode_run_report).collect()),
        ),
    ])
}

/// Encodes sweep reports as `{"type":"reports","points":[…]}`.
fn encode_reports(reports: &[RunReport]) -> Json {
    Json::obj([
        ("type", Json::str("reports")),
        (
            "points",
            Json::Arr(reports.iter().map(encode_run_report).collect()),
        ),
    ])
}

fn encode_allxy(result: &AllxyResult) -> Json {
    let floats = |xs: &[f64]| Json::Arr(xs.iter().map(|&v| Json::Float(v)).collect());
    Json::obj([
        ("type", Json::str("experiment")),
        ("experiment", Json::str("allxy")),
        ("raw", floats(&result.raw)),
        ("fidelity", floats(&result.fidelity)),
        ("ideal", floats(&result.ideal)),
        ("deviation", Json::Float(result.deviation)),
        ("points_per_pair", Json::uint(result.points_per_pair as u64)),
    ])
}

fn encode_qec(result: &QecResult) -> Json {
    Json::obj([
        ("type", Json::str("experiment")),
        ("experiment", Json::str("qec")),
        ("distance", Json::uint(result.distance as u64)),
        ("rounds", Json::uint(result.rounds as u64)),
        ("shots", Json::uint(result.shots)),
        ("error_rate", Json::Float(result.error_rate)),
        ("logical_errors", Json::uint(result.logical_errors)),
        ("logical_error_rate", Json::Float(result.logical_error_rate)),
        ("error_sem", Json::Float(result.error_sem)),
        ("injected_flips", Json::uint(result.injected_flips)),
        (
            "majority_bits",
            Json::Arr(
                result
                    .majority_bits
                    .iter()
                    .map(|&b| Json::Int(i64::from(b)))
                    .collect(),
            ),
        ),
    ])
}

/// Encodes a finished job's metrics.
pub(crate) fn encode_metrics(metrics: &JobMetrics) -> Json {
    let micros = |d: Duration| Json::uint(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    Json::obj([
        (
            "priority",
            Json::str(match metrics.priority {
                Priority::High => "high",
                Priority::Normal => "normal",
            }),
        ),
        ("worker", Json::uint(metrics.worker as u64)),
        ("dispatch_seq", Json::uint(metrics.dispatch_seq)),
        ("queue_wait_us", micros(metrics.queue_wait)),
        ("run_time_us", micros(metrics.run_time)),
        ("cache_hit", Json::Bool(metrics.cache_hit)),
    ])
}

/// Encodes one streamed chunk.
pub(crate) fn encode_chunk(chunk: &ShotChunk) -> Json {
    Json::obj([
        ("first_shot", Json::uint(chunk.first_shot)),
        (
            "shots",
            Json::Arr(chunk.reports.iter().map(encode_run_report).collect()),
        ),
    ])
}

//! The pool's determinism contract, pinned differentially: everything a
//! client gets from `quma_pool` must be bit-identical to running the
//! same work directly on one fresh `Session` — for every worker count,
//! any scheduling interleaving, and any mix of competing clients.

use quma_core::prelude::*;
use quma_experiments::prelude::*;
use quma_pool::prelude::*;
use std::sync::{mpsc, Arc};

const SEGMENT: &str = "\
    Wait 40000\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

fn base_config() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0xD1FF,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

fn pool_with(workers: usize) -> DevicePool {
    DevicePool::new(PoolConfig::new(base_config()).with_workers(workers)).expect("pool builds")
}

fn assert_reports_eq(got: &[RunReport], want: &[RunReport], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: report count");
    for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(a.registers, b.registers, "{context}: registers of shot {i}");
        assert_eq!(
            a.md_results, b.md_results,
            "{context}: md records of shot {i}"
        );
    }
}

#[test]
fn pooled_allxy_is_bit_identical_to_direct_run_across_worker_counts() {
    let cfg = AllxyConfig {
        averages: 8,
        ..AllxyConfig::default()
    };
    let want = run_allxy(&cfg).expect("direct AllXY runs");
    for workers in WORKER_COUNTS {
        let pool = pool_with(workers);
        let handle = pool.submit_experiment(Allxy, cfg.clone()).expect("submits");
        let got = handle.wait().expect("pooled AllXY runs");
        assert_eq!(got.raw, want.raw, "{workers} workers: raw averages");
        assert_eq!(got.fidelity, want.fidelity, "{workers} workers: fidelity");
        assert_eq!(
            got.deviation, want.deviation,
            "{workers} workers: deviation"
        );
    }
}

#[test]
fn pooled_qec_is_bit_identical_to_direct_run_across_worker_counts() {
    use quma_compiler::prelude::InjectedX;
    let cfg = QecConfig {
        distance: 3,
        rounds: 2,
        shots: 12,
        ..QecConfig::default()
    };
    let injections = [InjectedX { round: 1, data: 1 }];
    let want = run_qec_injected(&cfg, &injections).expect("direct QEC runs");
    for workers in WORKER_COUNTS {
        let pool = pool_with(workers);
        let handle = pool
            .submit_experiment(
                QecInjected {
                    injections: injections.to_vec(),
                },
                cfg.clone(),
            )
            .expect("submits");
        let got = handle.wait().expect("pooled QEC runs");
        assert_eq!(
            got.majority_bits, want.majority_bits,
            "{workers} workers: per-shot majority bits"
        );
        assert_eq!(got.logical_errors, want.logical_errors);
        assert_eq!(got.logical_error_rate, want.logical_error_rate);
        assert_eq!(got.injected_flips, want.injected_flips);
    }
}

#[test]
fn concurrent_clients_each_get_their_exact_direct_result() {
    // A dozen clients race mixed submissions at one pool; every client's
    // result must equal its own direct single-session run, no matter how
    // the scheduler interleaved them.
    const CLIENTS: u64 = 12;
    const SHOTS: u64 = 4;
    for workers in WORKER_COUNTS {
        let pool = pool_with(workers);
        let handles: Vec<(u64, JobHandle)> = std::thread::scope(|s| {
            let spawned: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let pool = &pool;
                    s.spawn(move || {
                        let plan = SeedPlan {
                            chip_base: 0xC11E_4700 + client,
                            jitter_base: 0x0DD5 ^ client,
                        };
                        let program = pool.assemble(SEGMENT).expect("assembles");
                        let handle = pool
                            .submit(Job::shots(program, SHOTS).with_seed_plan(plan))
                            .expect("submits");
                        (client, handle)
                    })
                })
                .collect();
            spawned
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for (client, handle) in handles {
            let batch = handle
                .wait()
                .expect("pooled batch runs")
                .into_batch()
                .expect("shots output");
            let mut direct = Session::new(base_config()).expect("session");
            direct.set_seed_plan(SeedPlan {
                chip_base: 0xC11E_4700 + client,
                jitter_base: 0x0DD5 ^ client,
            });
            let loaded = direct.load_assembly(SEGMENT).expect("assembles");
            let want = direct.run_shots(&loaded, SHOTS).expect("direct batch");
            assert_reports_eq(
                &batch.shots,
                &want.shots,
                &format!("client {client} on {workers} workers"),
            );
        }
        // Amortization: no pooled job recalibrates a device. Each worker
        // clones its pristine device once, for its first job, and serves
        // every later job on that warm session.
        let stats = pool.stats();
        assert_eq!(stats.cold_device_builds, 0, "{workers} workers");
        assert!(stats.warm_device_clones <= workers as u64, "{stats:?}");
        assert_eq!(
            stats.warm_device_clones + stats.warm_session_reuses,
            CLIENTS,
            "{workers} workers: one warm clone or reuse per job"
        );
    }
}

#[test]
fn pooled_template_sweep_matches_direct_session_sweep() {
    let slots = [SlotSpec::new(
        "tau",
        3,
        quma_isa::template::PatchField::WaitInterval,
    )];
    let source = "\
        Wait 40000\n\
        Pulse {q0}, X180\n\
        Wait 4\n\
        Wait 4\n\
        MPG {q0}, 300\n\
        MD {q0}, r7\n\
        halt\n";
    let taus = [4i64, 400, 1200, 4000];
    let plan = SeedPlan::from_config(&base_config());
    let points: Vec<TemplatePoint> = taus
        .iter()
        .enumerate()
        .map(|(i, &tau)| TemplatePoint {
            patches: vec![("tau".to_string(), tau)],
            seeds: plan.shot(i as u64),
        })
        .collect();
    let pool = pool_with(2);
    let template = pool.assemble_template(source, &slots).expect("template");
    let handle = pool
        .submit(Job::template_sweep(Arc::clone(&template), points.clone()))
        .expect("submits");
    let got = handle
        .wait()
        .expect("pooled sweep runs")
        .into_reports()
        .expect("reports output");
    let mut direct = Session::new(base_config()).expect("session");
    let loaded = direct.load_template(&template);
    let want = direct
        .run_template_sweep(&loaded, &points)
        .expect("direct sweep");
    assert_reports_eq(&got, &want, "template sweep");
}

#[test]
fn chunked_stream_reassembles_to_the_unchunked_batch() {
    let pool = pool_with(2);
    let program = pool.assemble(SEGMENT).expect("assembles");
    let mut handle = pool
        .submit(Job::shots(Arc::clone(&program), 20).with_chunk_shots(8))
        .expect("submits");
    let mut streamed: Vec<RunReport> = Vec::new();
    let mut next_first = 0u64;
    while let Some(chunk) = handle.next_chunk() {
        assert_eq!(chunk.first_shot, next_first, "chunks arrive in order");
        next_first += chunk.reports.len() as u64;
        streamed.extend(chunk.reports);
    }
    assert_eq!(streamed.len(), 20, "chunks cover the whole batch");
    let batch = handle
        .wait()
        .expect("job finishes")
        .into_batch()
        .expect("shots output");
    assert_reports_eq(&streamed, &batch.shots, "stream vs final batch");
    let unchunked = pool
        .submit(Job::shots(Arc::clone(&program), 20))
        .expect("submits")
        .wait()
        .expect("runs")
        .into_batch()
        .expect("shots output");
    assert_reports_eq(&batch.shots, &unchunked.shots, "chunked vs unchunked");
    // A chunk size covering the whole batch still streams (one covering
    // chunk) — only chunk == 0 disables the event stream.
    let mut covering = pool
        .submit(Job::shots(program, 4).with_chunk_shots(64))
        .expect("submits");
    let chunk = covering.next_chunk().expect("one covering chunk");
    assert_eq!(chunk.first_shot, 0);
    assert_eq!(chunk.reports.len(), 4);
    assert!(covering.next_chunk().is_none());
    assert!(covering.wait().is_ok());
}

#[test]
fn device_config_override_runs_cold_and_still_matches_direct() {
    // An override with another calibration (here the qubit count) builds
    // cold once.
    let other = DeviceConfig {
        num_qubits: 2,
        ..base_config()
    };
    let pool = pool_with(1);
    let program = pool.assemble(SEGMENT).expect("assembles");
    let handle = pool
        .submit(Job::shots(program, 5).with_device_config(other.clone()))
        .expect("submits");
    let batch = handle
        .wait()
        .expect("runs")
        .into_batch()
        .expect("shots output");
    let mut direct = Session::new(other.clone()).expect("session");
    let loaded = direct.load_assembly(SEGMENT).expect("assembles");
    let want = direct.run_shots(&loaded, 5).expect("direct batch");
    assert_reports_eq(&batch.shots, &want.shots, "override config");
    // The worker kept the override warm: a second job with the same
    // config rewinds the cached session instead of rebuilding, and a
    // base-config job clones the always-warm base device.
    pool.submit(Job::shots(pool.assemble(SEGMENT).unwrap(), 1).with_device_config(other))
        .expect("submits")
        .wait()
        .expect("runs");
    pool.submit_assembly(SEGMENT, 1)
        .expect("submits")
        .wait()
        .expect("runs");
    let stats = pool.shutdown();
    assert_eq!(stats.cold_device_builds, 1, "the override built cold once");
    assert_eq!(stats.warm_session_reuses, 1, "same-config job reran warm");
    assert_eq!(stats.warm_device_clones, 1, "base-config job cloned warm");
}

#[test]
fn seed_only_override_runs_warm_and_still_matches_direct() {
    // Seeds are not calibration: an override that only reseeds is served
    // by the warm base device, rebased, and a base-config job after it
    // gets the base seeds back.
    let other = DeviceConfig {
        chip_seed: 0xBEEF,
        jitter_seed: 0xFEED,
        ..base_config()
    };
    let pool = pool_with(1);
    let direct = |config: DeviceConfig, shots| {
        let mut session = Session::new(config).expect("session");
        let loaded = session.load_assembly(SEGMENT).expect("assembles");
        session
            .run_shots(&loaded, shots)
            .expect("direct batch")
            .shots
    };
    let pooled = |job: Job| {
        pool.submit(job)
            .expect("submits")
            .wait()
            .expect("runs")
            .into_batch()
            .expect("shots output")
            .shots
    };
    let program = pool.assemble(SEGMENT).expect("assembles");
    let got = pooled(Job::shots(Arc::clone(&program), 5).with_device_config(other.clone()));
    let want = direct(other, 5);
    assert_reports_eq(&got, &want, "seed-only override");
    let base = pooled(Job::shots(program, 5));
    assert_reports_eq(&base, &direct(base_config(), 5), "base after override");
    assert!(
        got.iter()
            .zip(&base)
            .any(|(a, b)| a.md_results != b.md_results),
        "the two seeds must give different readout"
    );
    let stats = pool.shutdown();
    assert_eq!(stats.cold_device_builds, 0, "no seed-only cold build");
    assert_eq!(stats.warm_device_clones, 1, "the first job cloned the base");
    assert_eq!(
        stats.warm_session_reuses, 1,
        "the second reused its session"
    );
}

#[test]
fn served_qec_jobs_build_once_compile_once_and_match_direct_runs() {
    // The served QEC path: each job fetches its program from the pool's
    // cache by compile key and runs on the worker's warm session. Six
    // jobs that differ only in their seeds cost one cold build and one
    // compile, and each is bit-identical to a direct run on a fresh
    // device. On the noisy profile, an unprotected logical |1⟩ decays
    // differently per seed, so the results show the seeds.
    for profile in [ChipProfile::Paper, ChipProfile::Stabilizer] {
        let pool = pool_with(1);
        let results: Vec<String> = (0..6u64)
            .map(|i| {
                let cfg = QecConfig {
                    distance: 3,
                    rounds: 4,
                    shots: 8,
                    logical_one: true,
                    feedback: false,
                    profile,
                    chip_seed: 0x0EC0 + i,
                    ..QecConfig::default()
                };
                let injected = QecInjected::default();
                let code = injected.code(&cfg);
                let (program, _) = pool
                    .cache()
                    .compile(&format!("{code:?}"), || code.compile());
                let got = pool
                    .submit_experiment(QecCompiled { injected, program }, cfg.clone())
                    .expect("submits")
                    .wait()
                    .expect("pooled QEC runs");
                let want = run_experiment(&QecInjected::default(), &cfg).expect("direct QEC");
                let (got, want) = (format!("{got:?}"), format!("{want:?}"));
                assert_eq!(got, want, "{profile:?} job {i}");
                got
            })
            .collect();
        if profile == ChipProfile::Paper {
            assert!(
                results.iter().any(|r| *r != results[0]),
                "seeds must matter"
            );
        }
        let stats = pool.shutdown();
        assert_eq!(stats.cold_device_builds, 1, "{profile:?}: one cold build");
        assert_eq!(stats.warm_session_reuses, 5, "{profile:?}: then warm");
        assert_eq!(stats.cache_misses, 1, "{profile:?}: one compile");
        assert_eq!(stats.cache_hits, 5, "{profile:?}: then cached");
    }
}

#[test]
fn worker_state_never_leaks_between_jobs() {
    // An experiment that injects a pulse-library error must not disturb
    // the job running after it on the same worker.
    let pool = pool_with(1);
    let miscalibrated = AllxyConfig {
        averages: 4,
        error: PulseError::AmplitudeScale(0.8),
        ..AllxyConfig::default()
    };
    let clean_cfg = AllxyConfig {
        averages: 4,
        ..AllxyConfig::default()
    };
    let dirty = pool
        .submit_experiment(Allxy, miscalibrated)
        .expect("submits");
    let clean = pool
        .submit_experiment(Allxy, clean_cfg.clone())
        .expect("submits");
    dirty.wait().expect("miscalibrated AllXY runs");
    let got = clean.wait().expect("clean AllXY runs");
    let want = run_allxy(&clean_cfg).expect("direct clean AllXY");
    assert_eq!(
        got.raw, want.raw,
        "the error injection must die with its job's session"
    );
}

#[test]
fn mutating_experiments_run_on_clones_rebased_to_their_seeds() {
    // AllXY uploads a pulse library, so each job gets a fresh clone of
    // the worker's pristine device; a job with other seeds gets that
    // clone rebased, and still equals its direct run.
    let pool = pool_with(1);
    for seed in [0xA11, 0xB22] {
        let cfg = AllxyConfig {
            averages: 4,
            seed,
            ..AllxyConfig::default()
        };
        let got = pool
            .submit_experiment(Allxy, cfg.clone())
            .expect("submits")
            .wait()
            .expect("pooled AllXY runs");
        let want = run_allxy(&cfg).expect("direct AllXY");
        assert_eq!(got.raw, want.raw, "seed {seed:#x}");
    }
    let stats = pool.shutdown();
    assert_eq!(stats.cold_device_builds, 1, "the AllXY device built once");
    assert_eq!(stats.warm_device_clones, 1, "the second seed cloned it");
    assert_eq!(stats.warm_session_reuses, 0, "AllXY never shares a session");
}

/// An experiment that parks its worker inside `prepare` until the test
/// releases it — the synchronization the priority test needs to make
/// "jobs queued behind a busy worker" a guarantee instead of a timing
/// assumption.
struct GateExperiment {
    release: mpsc::Receiver<()>,
}

impl Experiment for GateExperiment {
    type Config = ();
    type Output = ();

    fn name(&self) -> &'static str {
        "gate"
    }

    fn device_config(&self, _cfg: &()) -> DeviceConfig {
        base_config()
    }

    fn prepare(&self, _cfg: &(), _session: &mut Session) -> Result<(), ExperimentError> {
        // Park until the test has finished enqueueing its competitors.
        let _ = self.release.recv();
        Ok(())
    }

    fn axes(&self, _cfg: &()) -> Result<SweepAxes, ExperimentError> {
        let program = quma_isa::asm::Assembler::new()
            .assemble("halt\n")
            .expect("trivial program");
        Ok(SweepAxes::new(
            Vec::new(),
            ExecutionMode::Shots {
                program: Arc::new(program),
                shots: 0,
            },
        ))
    }

    fn analyze(
        &self,
        _cfg: &(),
        _axes: &SweepAxes,
        _reports: &[RunReport],
    ) -> Result<(), ExperimentError> {
        Ok(())
    }
}

#[test]
fn high_priority_jobs_dispatch_before_queued_normal_jobs() {
    // One worker, parked inside a gate job; then two normal jobs and one
    // high job queue up *with the worker provably busy*. The high job
    // must dispatch first among the queued three (dispatch_seq is the
    // pool-wide pickup order).
    let pool = pool_with(1);
    let program = pool.assemble(SEGMENT).expect("assembles");
    let (release, gate) = mpsc::channel();
    let blocker = pool
        .submit_experiment(GateExperiment { release: gate }, ())
        .expect("submits");
    let mut normal_a = pool
        .submit(Job::shots(Arc::clone(&program), 1))
        .expect("submits");
    let mut normal_b = pool
        .submit(Job::shots(Arc::clone(&program), 1))
        .expect("submits");
    let mut high = pool
        .submit(Job::shots(program, 1).high_priority())
        .expect("submits");
    // All three competitors are queued; only now may the worker move on.
    release.send(()).expect("worker is waiting");
    blocker.wait().expect("blocker runs");
    while !(normal_a.is_finished() && normal_b.is_finished() && high.is_finished()) {
        std::thread::yield_now();
    }
    let seq_high = high.metrics().expect("metrics").dispatch_seq;
    let seq_a = normal_a.metrics().expect("metrics").dispatch_seq;
    let seq_b = normal_b.metrics().expect("metrics").dispatch_seq;
    assert!(
        seq_high < seq_a && seq_high < seq_b,
        "high ({seq_high}) must dispatch before normals ({seq_a}, {seq_b})"
    );
    let stats = pool.shutdown();
    assert_eq!(stats.high_completed, 1);
    assert_eq!(stats.completed, 4);
}

#[test]
fn full_queue_rejects_with_typed_backpressure() {
    // One worker, provably parked inside a gate job: nothing drains, so
    // exactly `DEPTH` submissions queue and the next one is pushed back.
    const DEPTH: usize = 2;
    let pool = DevicePool::new(
        PoolConfig::new(base_config())
            .with_workers(1)
            .with_queue_depth(DEPTH),
    )
    .expect("pool builds");
    let program = pool.assemble(SEGMENT).expect("assembles");
    let (release, gate) = mpsc::channel();
    let blocker = pool
        .submit_experiment(GateExperiment { release: gate }, ())
        .expect("submits");
    while blocker.phase() != JobPhase::Running {
        std::thread::yield_now();
    }
    let accepted: Vec<JobHandle> = (0..DEPTH)
        .map(|_| {
            pool.submit(Job::shots(Arc::clone(&program), 2))
                .expect("a free slot accepts")
        })
        .collect();
    match pool.submit(Job::shots(program, 2)) {
        Err(SubmitError::QueueFull { priority, depth }) => {
            assert_eq!(priority, Priority::Normal);
            assert_eq!(depth, DEPTH);
        }
        other => panic!(
            "submission {} must be pushed back, got {other:?}",
            DEPTH + 1
        ),
    }
    // Backpressure sheds load without corrupting accepted work.
    release.send(()).expect("worker is waiting");
    blocker.wait().expect("blocker runs");
    for handle in accepted {
        assert!(handle.wait().is_ok());
    }
    let stats = pool.shutdown();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.completed, DEPTH as u64 + 1);
}

#[test]
fn custom_seed_plans_replay_exactly() {
    let plan = SeedPlan {
        chip_base: 0x7EA5,
        jitter_base: 0x50DA,
    };
    let pool = pool_with(3);
    let program = pool.assemble(SEGMENT).expect("assembles");
    let first = pool
        .submit(Job::shots(Arc::clone(&program), 6).with_seed_plan(plan))
        .expect("submits")
        .wait()
        .expect("runs")
        .into_batch()
        .expect("shots output");
    let replay = pool
        .submit(Job::shots(program, 6).with_seed_plan(plan))
        .expect("submits")
        .wait()
        .expect("runs")
        .into_batch()
        .expect("shots output");
    assert_reports_eq(&replay.shots, &first.shots, "replay");
}

#[test]
fn tracing_costs_four_spans_per_shots_job_and_changes_no_bits() {
    // The observability tax as counts: on one worker, every shots job
    // records exactly one span of each of `SPAN_KINDS` — a submit, a
    // queued, a run and a single shot batch (the worker runs the whole
    // job as one sequential block). Nothing more is recorded, nothing is
    // dropped, and the traced pool's results equal the untraced pool's.
    use quma_obs::trace::SpanKind;
    const JOBS: u64 = 6;
    const SHOTS: u64 = 4;
    const SPAN_KINDS: [SpanKind; 4] = [
        SpanKind::Submit,
        SpanKind::Queued,
        SpanKind::Run,
        SpanKind::ShotBatch,
    ];
    let untraced = pool_with(1);
    assert!(
        untraced.trace_buffer().is_none(),
        "untraced pools keep no ring"
    );
    let traced = DevicePool::new(
        PoolConfig::new(base_config())
            .with_workers(1)
            .with_trace(1024),
    )
    .expect("pool builds");
    let run = |pool: &DevicePool| {
        let program = pool.assemble(SEGMENT).expect("assembles");
        let handle = pool.submit(Job::shots(program, SHOTS)).expect("submits");
        handle.wait().expect("runs").into_batch().expect("shots")
    };
    for job in 0..JOBS {
        let want = run(&untraced);
        let got = run(&traced);
        assert_reports_eq(&got.shots, &want.shots, &format!("traced job {job}"));
    }

    let buf = traced.trace_buffer().expect("traced pools keep a ring");
    assert_eq!(buf.dropped_events(), 0);
    let events = buf.events();
    assert_eq!(events.len(), JOBS as usize * SPAN_KINDS.len(), "{events:?}");
    let mut traces: Vec<u64> = events.iter().map(|e| e.trace).collect();
    traces.sort_unstable();
    traces.dedup();
    assert_eq!(traces.len(), JOBS as usize, "one trace id per job");
    let want: Vec<u8> = SPAN_KINDS.iter().map(|&k| k as u8).collect();
    for id in traces {
        let mut kinds: Vec<u8> = events
            .iter()
            .filter(|e| e.trace == id)
            .map(|e| e.kind as u8)
            .collect();
        kinds.sort_unstable();
        assert_eq!(kinds, want, "spans of job {id}");
    }
}

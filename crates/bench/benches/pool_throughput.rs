//! Pool-throughput sweep: the serving layer's acceptance gate.
//!
//! The same multi-client workload — C independent clients, each wanting
//! N shots of its own seed plan — measured three ways:
//!
//! * `single_client` — what each client does *without* a pool (the
//!   pre-pool reality this repo's drivers lived in: "every experiment
//!   owns a whole `Session`"): build its own `Session` — a full device
//!   calibration, pulse-library synthesis and all — then push its job
//!   through a sharded `Session::execute`. C clients → C calibrations, run
//!   back-to-back;
//! * `multi_client` — the same C jobs submitted concurrently to a
//!   `DevicePool`, which serves every job from a warm pristine-device
//!   clone (a memcpy, not a synthesis) and overlaps jobs across its
//!   workers;
//! * `shared_session` — a reference lower bound: one pre-warmed session
//!   running the C jobs sequentially with no serving layer at all (what
//!   a hand-rolled single-tenant harness could do; not available to
//!   concurrent clients, since a `Session` is `&mut self`).
//!
//! The acceptance criterion from the roadmap: pooled multi-client
//! throughput ≥ the single-client sharded-`execute` baseline on the
//! same workload (both medians land in the bench trajectory via
//! `QUMA_BENCH_JSON`). Every mode produces bit-identical per-job results
//! — `crates/pool/tests/differential.rs` pins that; this file only races
//! them.

use criterion::{criterion_group, criterion_main, Criterion};
use quma_core::prelude::*;
use quma_isa::prelude::Program;
use quma_pool::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SHOT: &str = "\
    mov r15, 40000\nQNopReg r15\nPulse {q0}, X180\nWait 4\nPulse {q0}, I\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n";

/// C clients × N shots: the multi-client workload. Many clients with
/// small jobs is the serving-layer shape — per-client overheads (a
/// session calibration, a fork/join per job) are exactly what the pool
/// amortizes.
const CLIENTS: u64 = 16;
const SHOTS_PER_JOB: u64 = 8;

fn config() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0x7001,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(8))
}

fn client_plan(client: u64) -> SeedPlan {
    SeedPlan {
        chip_base: 0xC11E_4700 + client,
        jitter_base: 0x0DD5 ^ client,
    }
}

/// One client's job: `SHOTS_PER_JOB` shots of its own seed plan.
fn client_job(loaded: &LoadedProgram, client: u64) -> Workload {
    Workload::Shots {
        program: loaded.clone(),
        plan: Some(client_plan(client)),
        first: 0,
        count: SHOTS_PER_JOB,
    }
}

/// One client's job without a pool: its own freshly calibrated session,
/// then a sharded batch (`threads == 0` = auto).
fn solo_client_job(client: u64) {
    let mut session = Session::new(config()).expect("session");
    let loaded = session.load_assembly(SHOT).expect("assembles");
    let work = client_job(&loaded, client);
    black_box(
        session
            .execute(&work, 0..work.len(), 0)
            .expect("batch runs"),
    );
}

/// The same job on a shared pre-warmed session (reference bound).
fn shared_session_job(session: &mut Session, loaded: &LoadedProgram, client: u64) {
    let work = client_job(loaded, client);
    black_box(
        session
            .execute(&work, 0..work.len(), 0)
            .expect("batch runs"),
    );
}

/// Submits the whole C-client workload to `pool` and waits it out.
fn pooled_workload(pool: &DevicePool, program: &Arc<Program>) {
    let handles: Vec<JobHandle> = (0..CLIENTS)
        .map(|client| {
            pool.submit(
                Job::shots(Arc::clone(program), SHOTS_PER_JOB).with_seed_plan(client_plan(client)),
            )
            .expect("submits")
        })
        .collect();
    for handle in handles {
        black_box(handle.wait().expect("job runs"));
    }
}

/// The same workload with every job carrying a journalable spec — what
/// the serving layer submits when a journal is configured. On an
/// un-journaled pool the spec is dead weight the pool ignores; on a
/// journaled one it buys a WAL record per submission and a result-log
/// frame per completion.
fn journaled_workload(pool: &DevicePool, program: &Arc<Program>) {
    let handles: Vec<JobHandle> = (0..CLIENTS)
        .map(|client| {
            let plan = client_plan(client);
            pool.submit(
                Job::shots(Arc::clone(program), SHOTS_PER_JOB)
                    .with_seed_plan(plan)
                    .with_spec(JobSpec::Shots {
                        source: SHOT.to_string(),
                        shots: SHOTS_PER_JOB,
                        plan: Some((plan.chip_base, plan.jitter_base)),
                        chunk: 0,
                    }),
            )
            .expect("submits")
        })
        .collect();
    for handle in handles {
        black_box(handle.wait().expect("job runs"));
    }
}

fn print_throughput_table() {
    let workers = threads();
    let total = CLIENTS * SHOTS_PER_JOB;
    println!(
        "\n=== pool throughput: {CLIENTS} clients x {SHOTS_PER_JOB} shots, {workers} pool workers ==="
    );
    let report = |label: &str, dt: f64| {
        println!(
            "{label:<28} {total:>5} shots in {dt:>7.3} s  = {:>9.1} shots/s",
            total as f64 / dt
        );
    };

    // No pool: every client calibrates its own device.
    let t0 = Instant::now();
    for client in 0..CLIENTS {
        solo_client_job(client);
    }
    report("single_client (own session)", t0.elapsed().as_secs_f64());

    // The pool, serving all clients from warm clones.
    let pool = DevicePool::new(PoolConfig::new(config()).with_workers(workers)).expect("pool");
    let program = pool.assemble(SHOT).expect("assembles");
    let t0 = Instant::now();
    pooled_workload(&pool, &program);
    report("pooled_multi_client", t0.elapsed().as_secs_f64());

    // Reference: one warm session, no serving layer (single-tenant only).
    let mut session = Session::new(config()).expect("session");
    let loaded = session.load_assembly(SHOT).expect("assembles");
    let t0 = Instant::now();
    for client in 0..CLIENTS {
        shared_session_job(&mut session, &loaded, client);
    }
    report("shared_session (reference)", t0.elapsed().as_secs_f64());
    println!("(per-job results are bit-identical across all modes)\n");

    enforce_serving_gate(workers);
}

/// The roadmap's acceptance gate, *enforced* (a paniced bench fails the
/// CI bench-smoke job, like the ≥5× assertion in
/// `tests/template_differential.rs` does for template setup): pooled
/// multi-client throughput must be at least the single-client baseline,
/// within a noise allowance. Rounds alternate baseline/pooled so a slow
/// machine window hits both arms, and medians discard outliers.
fn enforce_serving_gate(workers: usize) {
    const ROUNDS: usize = 5;
    /// The pool must not be slower than single-client beyond this factor
    /// (it is reliably *faster* in practice; the slack absorbs scheduler
    /// noise on loaded CI machines without letting a real regression —
    /// a blocking queue, a lost worker, per-job recalibration — pass).
    const NOISE_ALLOWANCE: f64 = 1.25;
    let pool = DevicePool::new(PoolConfig::new(config()).with_workers(workers)).expect("pool");
    let program = pool.assemble(SHOT).expect("assembles");
    let mut solo = Vec::with_capacity(ROUNDS);
    let mut pooled = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        for client in 0..CLIENTS {
            solo_client_job(client);
        }
        solo.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        pooled_workload(&pool, &program);
        pooled.push(t0.elapsed().as_secs_f64());
    }
    solo.sort_by(f64::total_cmp);
    pooled.sort_by(f64::total_cmp);
    let (solo_med, pooled_med) = (solo[ROUNDS / 2], pooled[ROUNDS / 2]);
    println!(
        "serving gate: pooled median {:.2} ms vs single-client median {:.2} ms ({}x)",
        pooled_med * 1e3,
        solo_med * 1e3,
        pooled_med / solo_med
    );
    assert!(
        pooled_med <= solo_med * NOISE_ALLOWANCE,
        "pooled multi-client throughput regressed below the single-client \
         baseline: pooled {pooled_med:.4}s vs solo {solo_med:.4}s"
    );
}

fn bench(c: &mut Criterion) {
    print_throughput_table();

    let workers = threads();
    let mut g = c.benchmark_group("pool_throughput");
    g.sample_size(10);

    // Baseline: each client builds and owns its session, jobs run
    // back-to-back — the pre-pool serving reality.
    g.bench_function("single_client", |b| {
        b.iter(|| {
            for client in 0..CLIENTS {
                solo_client_job(client);
            }
        })
    });

    // The pool serving the same C jobs from C concurrent submissions.
    // Pool construction (one device calibration, worker spawn) happens
    // once outside the loop — it is the serving fleet, not the request
    // path.
    g.bench_function("multi_client", |b| {
        let pool = DevicePool::new(PoolConfig::new(config()).with_workers(workers)).expect("pool");
        let program = pool.assemble(SHOT).expect("assembles");
        b.iter(|| pooled_workload(&pool, &program))
    });

    // The same pooled workload with a write-ahead journal underneath:
    // a WAL record per submission, a result frame + terminal record per
    // completion. `scripts/scaling_gate.sh` holds this within
    // JOURNAL_ALLOWANCE of the un-journaled `multi_client` point — the
    // durability tax is bounded, not free-growing.
    g.bench_function("multi_client_journaled", |b| {
        let dir =
            std::env::temp_dir().join(format!("quma-bench-pool-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let pool = DevicePool::new(
            PoolConfig::new(config())
                .with_workers(workers)
                .with_journal(JournalConfig::new(&dir)),
        )
        .expect("pool");
        let program = pool.assemble(SHOT).expect("assembles");
        b.iter(|| journaled_workload(&pool, &program));
        drop(pool);
        std::fs::remove_dir_all(&dir).ok();
    });

    // The same pooled workload on a fully observed pool: metric
    // registry wired (always on) *plus* span tracing into a 64Ki-slot
    // ring, so every submit/queued/run/shot-batch span is recorded.
    // `scripts/scaling_gate.sh` holds this within OBS_ALLOWANCE of the
    // bare `multi_client` point — observability is paid only when
    // looked at, and recording must stay in the noise.
    g.bench_function("obs_overhead", |b| {
        let pool = DevicePool::new(
            PoolConfig::new(config())
                .with_workers(workers)
                .with_trace(1 << 16),
        )
        .expect("pool");
        let program = pool.assemble(SHOT).expect("assembles");
        b.iter(|| pooled_workload(&pool, &program))
    });

    // Reference bound: one warm session, sequential jobs, no serving
    // layer (unreachable by concurrent clients — `Session` is `&mut`).
    g.bench_function("shared_session", |b| {
        let mut session = Session::new(config()).expect("session");
        let loaded = session.load_assembly(SHOT).expect("assembles");
        b.iter(|| {
            for client in 0..CLIENTS {
                shared_session_job(&mut session, &loaded, client);
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

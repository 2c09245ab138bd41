//! Shot-throughput sweep: the batch engine's reason to exist.
//!
//! Measures shots/second for one AllXY-style round on the paper chip in
//! three execution modes:
//!
//! * `rebuild_per_shot` — the legacy pattern: a full `Device::new`
//!   (per-qubit Table 1 pulse-library synthesis + SSB calibration) for
//!   every shot, as the experiment drivers did before the engine layer;
//! * `session_batch` — one calibrated `Session`, per-shot reseed + reset;
//! * `parallel_batch` — the same batch sharded across worker threads with
//!   per-thread device clones and identical derived seeds.
//!
//! The printed table reports aggregate shots/sec so the relative win is
//! visible without criterion post-processing.

use criterion::{criterion_group, criterion_main, Criterion};
use quma_core::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const SHOT: &str = "\
    mov r15, 40000\nQNopReg r15\nPulse {q0}, X180\nWait 4\nPulse {q0}, I\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt\n";

fn config() -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: 0x7407,
        trace: TraceLevel::Off,
        ..DeviceConfig::default()
    }
}

fn assemble() -> quma_isa::program::Program {
    quma_isa::asm::Assembler::new()
        .assemble(SHOT)
        .expect("shot assembles")
}

fn shots_per_second(label: &str, shots: u64, run: impl FnOnce()) {
    let t0 = Instant::now();
    run();
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "{label:<24} {shots:>5} shots in {dt:>7.3} s  = {:>9.1} shots/s",
        shots as f64 / dt
    );
}

fn print_throughput_table() {
    const SHOTS: u64 = 200;
    println!("\n=== shot throughput: rebuild vs session batch vs parallel batch ===");
    let program = assemble();
    let plan = SeedPlan::from_config(&config());
    shots_per_second("rebuild_per_shot", SHOTS, || {
        for i in 0..SHOTS {
            let seeds = plan.shot(i);
            let mut dev = Device::new(DeviceConfig {
                chip_seed: seeds.chip,
                jitter_seed: seeds.jitter,
                ..config()
            })
            .expect("device");
            black_box(dev.run(&program).expect("runs"));
        }
    });
    let mut session = Session::new(config()).expect("session");
    let loaded = session.load(&program);
    shots_per_second("session_batch", SHOTS, || {
        black_box(session.run_shots(&loaded, SHOTS).expect("batch"));
    });
    let mut session = Session::new(config()).expect("session");
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
    shots_per_second("parallel_batch", SHOTS, || {
        let work = Workload::Shots {
            program: loaded.clone(),
            plan: Some(session.seed_plan()),
            first: session.shots_run(),
            count: SHOTS,
        };
        black_box(
            session
                .execute(&work, 0..work.len(), threads)
                .expect("parallel batch"),
        );
    });
    println!("(all three modes produce bit-identical per-shot results)\n");
}

fn bench(c: &mut Criterion) {
    print_throughput_table();

    let mut g = c.benchmark_group("shots_throughput");
    g.sample_size(10);
    let program = assemble();
    let plan = SeedPlan::from_config(&config());

    g.bench_function("rebuild_per_shot", |b| {
        let mut i = 0u64;
        b.iter(|| {
            let seeds = plan.shot(i);
            i += 1;
            let mut dev = Device::new(DeviceConfig {
                chip_seed: seeds.chip,
                jitter_seed: seeds.jitter,
                ..config()
            })
            .expect("device");
            black_box(dev.run(&program).expect("runs"))
        })
    });

    g.bench_function("session_batch", |b| {
        let mut session = Session::new(config()).expect("session");
        let loaded = session.load(&program);
        let mut i = 0u64;
        b.iter(|| {
            let seeds = plan.shot(i);
            i += 1;
            black_box(session.run_shot(&loaded, seeds).expect("runs"))
        })
    });

    g.bench_function("parallel_batch_32", |b| {
        let mut session = Session::new(config()).expect("session");
        let loaded = session.load(&program);
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get().min(8));
        b.iter(|| {
            let work = Workload::Shots {
                program: loaded.clone(),
                plan: Some(session.seed_plan()),
                first: session.shots_run(),
                count: 32,
            };
            black_box(session.execute(&work, 0..32, threads).expect("batch"))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

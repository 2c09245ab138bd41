//! Property: a sharded `Session::execute` equals `run_shots` bit-for-bit
//! for *arbitrary* thread counts — including more workers than shots and
//! the `threads == 0` auto case — and, for every workload kind, executing
//! any sub-range equals that slice of the whole sequential run (the path
//! chunk streaming and checkpoint resume take). The jitter model is on,
//! so both RNG streams (chip and execution-controller) are exercised.

use proptest::prelude::*;
use quma::core::prelude::*;
use quma::isa::prelude::ProgramTemplate;
use quma::isa::template::PatchField;
use std::sync::Arc;

const SEGMENT: &str = "\
    Wait 4000\n\
    Pulse {q0}, X90\n\
    Wait 4\n\
    Pulse {q0}, Y90\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

fn config(seed: u64) -> DeviceConfig {
    DeviceConfig {
        chip: ChipProfile::Paper,
        chip_seed: seed,
        jitter_seed: seed ^ 0x7177,
        max_jitter_cycles: 3,
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

/// An `items`-item workload of kind `kind` (0 = shots, 1 = program
/// sweep, 2 = template sweep), seeded from `session`'s plan.
fn workload(session: &Session, kind: usize, items: usize) -> Workload {
    let plan = session.seed_plan();
    let loaded = session.load_assembly(SEGMENT).expect("assembles");
    match kind {
        0 => shots(session, &loaded, items as u64),
        1 => {
            // Two structurally different programs, alternating.
            let other = session
                .load_assembly(&SEGMENT.replace("Y90", "X90"))
                .expect("assembles");
            Workload::Sweep {
                points: (0..items)
                    .map(|i| {
                        let program = if i % 2 == 0 { &loaded } else { &other };
                        (program.clone(), plan.shot(i as u64))
                    })
                    .collect::<Vec<_>>()
                    .into(),
            }
        }
        _ => {
            let mut program = loaded.program().clone();
            program
                .add_slot("gap", 2, PatchField::WaitInterval)
                .expect("slot");
            let template = session.load_template(&ProgramTemplate::new(program));
            let points: Vec<TemplatePoint> = (0..items)
                .map(|i| TemplatePoint {
                    patches: vec![("gap".to_string(), 4 + 40 * i as i64)],
                    seeds: plan.shot(i as u64),
                })
                .collect();
            Workload::template_sweep(&template, Arc::from(points))
        }
    }
}

/// Every comparable field of a shot: registers plus the full MD record
/// (deterministic time, bit, and the analog integration value).
fn signature(report: &RunReport) -> (Vec<(u64, u8, f64)>, [i32; 16]) {
    (
        report
            .md_results
            .iter()
            .map(|m| (m.td, m.bit, m.s))
            .collect(),
        report.registers,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_batch_equals_sequential_for_any_thread_count(
        threads in 0usize..13,
        n in 0u64..18,
        seed in 1u64..0xFFFF,
    ) {
        let mut sequential = Session::new(config(seed)).expect("session");
        let loaded = sequential.load_assembly(SEGMENT).expect("assembles");
        let want = sequential.run_shots(&loaded, n).expect("sequential batch");
        let mut parallel = Session::new(config(seed)).expect("session");
        let got = parallel
            .execute(&shots(&parallel, &loaded, n), 0..n as usize, threads)
            .expect("parallel batch");
        prop_assert_eq!(got.len(), want.len());
        prop_assert_eq!(parallel.shots_run(), n);
        for (i, (a, b)) in want.shots.iter().zip(got.iter()).enumerate() {
            prop_assert_eq!(signature(a), signature(b), "shot {}", i);
        }
    }

    /// Warm replicas must be invisible: batches run through one
    /// session's reused replicas (the second call hits warm replicas,
    /// possibly at a different thread count) equal both a fresh session
    /// per batch and the sequential engine, shot for shot.
    #[test]
    fn reused_worker_pool_equals_fresh_sessions_and_sequential(
        threads_a in 0usize..13,
        threads_b in 0usize..13,
        n in 0u64..14,
        seed in 1u64..0xFFFF,
    ) {
        let mut sequential = Session::new(config(seed)).expect("session");
        let loaded = sequential.load_assembly(SEGMENT).expect("assembles");
        let first = sequential.run_shots(&loaded, n).expect("batch 1");
        let second = sequential.run_shots(&loaded, n).expect("batch 2");
        let all = 0..n as usize;

        // One session, parallel batches over reused replicas, the second
        // at a different thread count (forcing re-blocking without
        // re-cloning warm devices).
        let mut pooled = Session::new(config(seed)).expect("session");
        let work = shots(&pooled, &loaded, n);
        let got_a = pooled.execute(&work, all.clone(), threads_a).expect("pooled 1");
        let work = shots(&pooled, &loaded, n);
        let got_b = pooled.execute(&work, all.clone(), threads_b).expect("pooled 2");

        // Fresh session per batch: the no-reuse baseline.
        let mut fresh = Session::new(config(seed)).expect("session");
        let work = shots(&fresh, &loaded, n);
        let fresh_a = fresh.execute(&work, all, threads_a).expect("fresh 1");

        for (i, (want, gots)) in [(first, [&got_a, &fresh_a]), (second, [&got_b, &got_b])]
            .iter()
            .enumerate()
        {
            for got in gots {
                prop_assert_eq!(want.len(), got.len());
                for (j, (a, b)) in want.shots.iter().zip(got.iter()).enumerate() {
                    prop_assert_eq!(signature(a), signature(b), "batch {} shot {}", i, j);
                }
            }
        }
    }

    /// Executing items `lo..hi` of any workload — sequentially, on
    /// auto-resolved workers, or on more workers than items — equals
    /// that slice of the whole sequential run, on a fresh session.
    #[test]
    fn any_sub_range_equals_that_slice_of_the_whole_run(
        kind in 0usize..3,
        items in 1usize..12,
        a in 0usize..12,
        b in 0usize..12,
        pick in 0usize..3,
        seed in 1u64..0xFFFF,
    ) {
        let (lo, hi) = (a.min(b).min(items), a.max(b).min(items));
        let threads = [0, 1, items + 3][pick];
        let mut whole = Session::new(config(seed)).expect("session");
        let work = workload(&whole, kind, items);
        let want = whole.execute(&work, 0..items, 1).expect("whole run");
        let mut part = Session::new(config(seed)).expect("session");
        let got = part.execute(&work, lo..hi, threads).expect("sub-range run");
        prop_assert_eq!(got.len(), hi - lo);
        for (i, (a, b)) in want[lo..hi].iter().zip(got.iter()).enumerate() {
            prop_assert_eq!(signature(a), signature(b), "kind {} item {}", kind, lo + i);
        }
    }
}

#[test]
fn threads_exceeding_shots_and_auto_are_exact() {
    // The two satellite-named edges, pinned deterministically on top of
    // the property: threads > shots and threads == 0 (auto).
    let mut sequential = Session::new(config(0xE27)).expect("session");
    let loaded = sequential.load_assembly(SEGMENT).expect("assembles");
    let want = sequential.run_shots(&loaded, 5).expect("sequential");
    for threads in [0, 7, 64] {
        let mut parallel = Session::new(config(0xE27)).expect("session");
        let got = parallel
            .execute(&shots(&parallel, &loaded, 5), 0..5, threads)
            .expect("parallel");
        for (a, b) in want.shots.iter().zip(got.iter()) {
            assert_eq!(signature(a), signature(b), "threads = {threads}");
        }
    }
}

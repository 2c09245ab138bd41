//! The journal's write volume per job, pinned exactly. A 16-point T1
//! template sweep — a τ patch over instruction 3's `wait_interval`, the
//! shape of the served journaled-sweep workload — on a journaled pool
//! appends a fixed number of bytes to each log: the byte counts are a
//! function of the spec and the reports, not of timing. Report memory is
//! sparse, so a program that stores nothing journals no memory words.

use quma_core::prelude::*;
use quma_isa::template::PatchField;
use quma_journal::{JobSpec, TemplatePointSpec};
use quma_pool::prelude::*;
use std::path::{Path, PathBuf};

/// A T1 shot whose second `Wait 4` (instruction 3) is the τ patch slot.
const T1_SOURCE: &str = "\
    Wait 40000\n\
    Pulse {q0}, X180\n\
    Wait 4\n\
    Wait 4\n\
    MPG {q0}, 300\n\
    MD {q0}, r7\n\
    halt\n";

/// Bytes one sweep job appends to `results.qrl`: one checkpoint frame
/// holding all 16 reports.
const RESULT_BYTES_PER_JOB: u64 = 1772;
/// Bytes one sweep job appends to `wal.qj`: its submission, checkpoint
/// and completion records.
const WAL_BYTES_PER_JOB: u64 = 758;
/// Frames one sweep job appends across both files.
const FRAMES_PER_JOB: u64 = 4;

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).expect("journal file exists").len()
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quma-journal-bytes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn t1_sweep(pool: &DevicePool, key: u64) -> Job {
    let slots = [SlotSpec::new("tau", 3, PatchField::WaitInterval)];
    let template = pool
        .assemble_template(T1_SOURCE, &slots)
        .expect("assembles");
    let points: Vec<TemplatePoint> = (0..16u64)
        .map(|i| TemplatePoint {
            patches: vec![("tau".to_string(), 4 + 800 * i as i64)],
            seeds: ShotSeeds {
                chip: key * 0x1_0000 + i,
                jitter: key * 0x2_0000 + i,
            },
        })
        .collect();
    let spec = JobSpec::TemplateSweep {
        source: T1_SOURCE.to_string(),
        slots: slots.to_vec(),
        points: points
            .iter()
            .map(|p| TemplatePointSpec {
                patches: p.patches.clone(),
                chip: p.seeds.chip,
                jitter: p.seeds.jitter,
            })
            .collect(),
    };
    Job::template_sweep(template, points).with_spec(spec)
}

#[test]
fn sweep_job_journals_a_fixed_byte_count() {
    let dir = temp_dir();
    let pool = DevicePool::new(
        PoolConfig::new(DeviceConfig {
            chip: ChipProfile::Paper,
            chip_seed: 0x5EED,
            trace: TraceLevel::Off,
            ..DeviceConfig::default()
        })
        .with_workers(1)
        .with_journal(JournalConfig::new(&dir)),
    )
    .expect("journaled pool builds");
    let (results, wal) = (dir.join("results.qrl"), dir.join("wal.qj"));
    for key in 1..=2 {
        let before = (file_len(&results), file_len(&wal));
        let reports = pool
            .submit(t1_sweep(&pool, key))
            .expect("submits")
            .wait()
            .expect("runs")
            .into_reports()
            .expect("sweep reports");
        assert_eq!(reports.len(), 16);
        assert!(reports.iter().all(|r| r.memory.is_empty()));
        let grew = (file_len(&results) - before.0, file_len(&wal) - before.1);
        assert_eq!(
            grew,
            (RESULT_BYTES_PER_JOB, WAL_BYTES_PER_JOB),
            "job {key}: (results.qrl, wal.qj) bytes appended"
        );
    }
    let stats = pool.stats();
    assert_eq!(
        stats.journal_bytes_written,
        2 * (RESULT_BYTES_PER_JOB + WAL_BYTES_PER_JOB),
        "the journal's byte counter matches the files"
    );
    assert_eq!(stats.journal_records_written, 2 * FRAMES_PER_JOB);
    drop(pool);
    std::fs::remove_dir_all(&dir).expect("cleans up");
}

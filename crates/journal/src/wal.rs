//! The journal proper: two append-only files and their lifecycle.
//!
//! A journal directory holds:
//!
//! * `wal.qj` — the write-ahead log: small [`WalRecord`] frames telling
//!   the lifecycle story of every job (submitted → checkpoints →
//!   terminal record).
//! * `results.qrl` — the binary result log: large frames of encoded
//!   [`RunReport`]s, referenced from WAL records by `(offset, len)`.
//!
//! Splitting the two keeps recovery cheap — replay reads the whole WAL
//! (small) but only the result frames that live jobs still reference —
//! and keeps a torn result write from costing any lifecycle records.
//!
//! ## Durability model
//!
//! Appends are written and flushed immediately (a killed *process*
//! loses nothing past the last append). `fsync` — durability against a
//! killed *machine* — is governed by [`FsyncPolicy`]: the default
//! [`FsyncPolicy::OnCompletion`] syncs both files when a job reaches a
//! terminal record, bounding loss to jobs that were still running;
//! [`FsyncPolicy::Always`] syncs every append (each checkpoint becomes
//! power-loss durable); [`FsyncPolicy::Never`] leaves syncing to the
//! OS. Within one job the result frame is always written before the
//! WAL record that references it, so a reference never points at bytes
//! that were not at least written.
//!
//! `OnCompletion` syncs are **group-committed off the append path**: a
//! terminal record kicks a background flusher thread, which syncs both
//! files once however many completions have landed since its last
//! cycle. Workers never block on `fsync`, and back-to-back completions
//! coalesce into one sync pair. The crash window this opens — a
//! terminal record acknowledged in memory but not yet on disk — is
//! exactly the window recovery already absorbs: the job replays as
//! unfinished and re-runs bit-identically ([`Journal::sync`] closes the
//! window on demand; drop closes it on clean shutdown).
//!
//! On open, both files get a torn-tail scan: everything after the last
//! fully CRC-verified frame is truncated away. A WAL record referencing
//! a result frame that did not survive decodes but fails its result
//! read; replay ([`crate::recover`]) then treats the job as not having
//! reached that point and re-runs the remainder — always safe, because
//! re-execution is bit-identical.

use crate::codec::{self, decode_frame, encode_frame_with, scan_frames, FRAME_HEADER};
use crate::record::WalRecord;
use crate::reports::{decode_reports, encode_reports};
use quma_core::device::RunReport;
use quma_obs::trace::{now_ns, SpanEvent, SpanKind, TraceBuffer, TraceId};
use quma_obs::{Counter, Histogram, Registry};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// WAL file name inside a journal directory.
pub const WAL_FILE: &str = "wal.qj";
/// Result-log file name inside a journal directory.
pub const RESULT_FILE: &str = "results.qrl";

/// When the journal calls `fsync` (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Never sync explicitly; flushed writes are left to the OS.
    Never,
    /// Sync both files when a job reaches a terminal record (default).
    #[default]
    OnCompletion,
    /// Sync on every append.
    Always,
}

/// Where and how a pool journals. Handed to the pool via
/// `PoolConfig::with_journal`.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `wal.qj` and `results.qrl` (created on open).
    pub dir: PathBuf,
    /// Durability policy.
    pub fsync: FsyncPolicy,
    /// Sweep points per checkpoint block: a killed sweep resumes at the
    /// last multiple of this it completed. 0 disables checkpointing
    /// (the whole sweep re-runs on recovery).
    pub checkpoint_every: u64,
}

impl JournalConfig {
    /// A journal in `dir` with the default policy (`OnCompletion`,
    /// checkpoint every 16 points).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            checkpoint_every: 16,
        }
    }

    /// Sets the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the checkpoint block size (0 disables checkpoints).
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }
}

/// Counters a journal accumulates over its lifetime (exposed through
/// pool stats and the `/metrics` route).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Frames appended across both files.
    pub records_written: u64,
    /// Bytes appended across both files (headers included).
    pub bytes_written: u64,
    /// Explicit `fsync` calls issued.
    pub fsyncs: u64,
}

/// Shared observability cells: lifetime counters plus latency
/// histograms and an optionally attached span ring. Arc-shared with
/// the background flusher so its fsyncs are timed and counted too.
#[derive(Debug, Default)]
struct StatCells {
    records_written: Counter,
    bytes_written: Counter,
    fsyncs: Counter,
    /// Append latency (WAL and result frames alike), nanoseconds.
    append_ns: Histogram,
    /// `fsync` latency per file pair sync, nanoseconds.
    fsync_ns: Histogram,
    /// Span sink, attached once by [`Journal::attach_obs`].
    trace: OnceLock<TraceBuffer>,
}

impl StatCells {
    /// Records a `journal_fsync` span and its latency; `files` is how
    /// many `sync_data` calls the cycle issued.
    fn note_fsync(&self, start_ns: u64, files: u64) {
        let end = now_ns();
        self.fsync_ns.record(end.saturating_sub(start_ns));
        self.fsyncs.add(files);
        if let Some(buf) = self.trace.get() {
            buf.record(SpanEvent {
                kind: SpanKind::JournalFsync,
                label: 0,
                trace: 0,
                tid: 0,
                start_ns,
                end_ns: end,
                a: files,
                b: 0,
            });
        }
    }

    /// Records a `journal_append` span and its latency; `bytes` is the
    /// frame size landed.
    fn note_append(&self, start_ns: u64, trace_id: TraceId, bytes: u64) {
        let end = now_ns();
        self.append_ns.record(end.saturating_sub(start_ns));
        self.records_written.inc();
        self.bytes_written.add(bytes);
        if let Some(buf) = self.trace.get() {
            buf.record(SpanEvent {
                kind: SpanKind::JournalAppend,
                label: 0,
                trace: trace_id,
                tid: 0,
                start_ns,
                end_ns: end,
                a: bytes,
                b: 0,
            });
        }
    }
}

#[derive(Debug)]
struct Inner {
    wal: File,
    results: File,
    /// Logical end of the result log = offset of the next frame.
    results_len: u64,
}

/// An open journal: thread-safe appenders over the two files plus the
/// read side used by recovery.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    /// Sweep points per checkpoint block (0 = no checkpoints).
    pub checkpoint_every: u64,
    inner: Mutex<Inner>,
    stats: Arc<StatCells>,
    flusher: Option<Flusher>,
}

/// Handshake between appenders and the background `OnCompletion`
/// flusher thread.
#[derive(Debug, Default)]
struct FlushSignal {
    state: Mutex<FlushFlags>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct FlushFlags {
    /// Terminal records have landed since the last sync cycle.
    pending: bool,
    /// The journal is shutting down; run a final cycle and exit.
    shutdown: bool,
}

#[derive(Debug)]
struct Flusher {
    signal: Arc<FlushSignal>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Flusher {
    /// Spawns the flusher over independent handles to both files
    /// (`fsync` needs no seek position, so clones are safe to sync from
    /// a second thread without touching the append state).
    fn spawn(results: File, wal: File, stats: Arc<StatCells>) -> io::Result<Flusher> {
        let signal = Arc::new(FlushSignal::default());
        let thread = {
            let signal = Arc::clone(&signal);
            thread::Builder::new()
                .name("quma-journal-flush".into())
                .spawn(move || loop {
                    let mut flags = signal.state.lock().expect("flush signal poisoned");
                    while !flags.pending && !flags.shutdown {
                        flags = signal.cv.wait(flags).expect("flush signal poisoned");
                    }
                    let run = flags.pending;
                    let done = flags.shutdown;
                    flags.pending = false;
                    drop(flags);
                    if run {
                        // Results before WAL, same as the synchronous
                        // policies. A sync that fails only widens the
                        // re-run window recovery already tolerates, so
                        // errors are not fatal here.
                        let t0 = now_ns();
                        let _ = results.sync_data();
                        let _ = wal.sync_data();
                        stats.note_fsync(t0, 2);
                    }
                    if done {
                        return;
                    }
                })?
        };
        Ok(Flusher {
            signal,
            thread: Some(thread),
        })
    }

    /// Notes that a terminal record landed; the flusher syncs soon.
    fn kick(&self) {
        self.signal
            .state
            .lock()
            .expect("flush signal poisoned")
            .pending = true;
        self.signal.cv.notify_one();
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        self.signal
            .state
            .lock()
            .expect("flush signal poisoned")
            .shutdown = true;
        self.signal.cv.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Offset of the format-version byte in a log's magic header.
const VERSION_AT: usize = 5;

/// Opens (or creates) one log file: verifies the magic header and
/// truncates any torn tail, returning the file positioned at its clean
/// end, plus that end offset.
fn open_log(path: &Path, magic: &[u8; 8]) -> io::Result<(File, u64)> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let mut contents = Vec::new();
    file.read_to_end(&mut contents)?;
    if contents.is_empty() {
        file.write_all(magic)?;
        file.flush()?;
        return Ok((file, magic.len() as u64));
    }
    if contents.len() < magic.len() || &contents[..magic.len()] != magic {
        // Magic is `[name 5B][version 1B][0 0]`: a known name with another
        // version is a format this build does not read, not a foreign file.
        let detail = match contents.get(..VERSION_AT + 1) {
            Some(head) if head[..VERSION_AT] == magic[..VERSION_AT] => format!(
                "format version {} is not supported (this build reads version {})",
                head[VERSION_AT], magic[VERSION_AT]
            ),
            _ => "not a journal file (bad magic)".to_string(),
        };
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {detail}", path.display()),
        ));
    }
    let (_, clean_end) = scan_frames(&contents, magic.len());
    if clean_end < contents.len() {
        file.set_len(clean_end as u64)?;
    }
    file.seek(SeekFrom::Start(clean_end as u64))?;
    Ok((file, clean_end as u64))
}

impl Journal {
    /// Opens the journal under `config.dir`, creating the directory and
    /// files as needed and truncating torn tails in both logs.
    pub fn open(config: &JournalConfig) -> io::Result<Journal> {
        std::fs::create_dir_all(&config.dir)?;
        let (wal, _) = open_log(&config.dir.join(WAL_FILE), codec::WAL_MAGIC)?;
        let (results, results_len) = open_log(&config.dir.join(RESULT_FILE), codec::RESULT_MAGIC)?;
        let stats = Arc::new(StatCells::default());
        let flusher = match config.fsync {
            FsyncPolicy::OnCompletion => Some(Flusher::spawn(
                results.try_clone()?,
                wal.try_clone()?,
                Arc::clone(&stats),
            )?),
            FsyncPolicy::Never | FsyncPolicy::Always => None,
        };
        Ok(Journal {
            dir: config.dir.clone(),
            fsync: config.fsync,
            checkpoint_every: config.checkpoint_every,
            inner: Mutex::new(Inner {
                wal,
                results,
                results_len,
            }),
            stats,
            flusher,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one WAL record (written and flushed before returning).
    /// Terminal records sync per the policy: inline under
    /// [`FsyncPolicy::Always`], via the background flusher under
    /// [`FsyncPolicy::OnCompletion`].
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        self.append_traced(record, 0)
    }

    /// [`Journal::append`] attributed to a job trace: when a span ring
    /// is attached ([`Journal::attach_obs`]) the append records a
    /// `journal_append` span carrying `trace_id`.
    pub fn append_traced(&self, record: &WalRecord, trace_id: TraceId) -> io::Result<()> {
        let mut frame = Vec::with_capacity(64 + FRAME_HEADER);
        encode_frame_with(&mut frame, |out| record.encode(out));

        let t0 = now_ns();
        let mut inner = self.inner.lock().expect("journal poisoned");
        inner.wal.write_all(&frame)?;
        inner.wal.flush()?;
        if self.fsync == FsyncPolicy::Always {
            // Results first: a synced WAL record must never be more
            // durable than the result bytes it references.
            let s0 = now_ns();
            inner.results.sync_data()?;
            inner.wal.sync_data()?;
            self.stats.note_fsync(s0, 2);
        }
        drop(inner);
        if record.is_terminal() {
            if let Some(flusher) = &self.flusher {
                flusher.kick();
            }
        }
        self.stats.note_append(t0, trace_id, frame.len() as u64);
        Ok(())
    }

    /// Appends one frame of reports to the result log, returning the
    /// `(offset, len)` a WAL record should reference. Flushed before
    /// returning; synced only under [`FsyncPolicy::Always`].
    pub fn append_reports(&self, reports: &[RunReport]) -> io::Result<(u64, u32)> {
        self.append_reports_traced(reports, 0)
    }

    /// [`Journal::append_reports`] attributed to a job trace.
    pub fn append_reports_traced(
        &self,
        reports: &[RunReport],
        trace_id: TraceId,
    ) -> io::Result<(u64, u32)> {
        let mut frame = Vec::with_capacity(4096);
        encode_frame_with(&mut frame, |out| encode_reports(out, reports));

        let t0 = now_ns();
        let mut inner = self.inner.lock().expect("journal poisoned");
        let offset = inner.results_len;
        inner.results.write_all(&frame)?;
        inner.results.flush()?;
        inner.results_len += frame.len() as u64;
        if self.fsync == FsyncPolicy::Always {
            let s0 = now_ns();
            inner.results.sync_data()?;
            self.stats.note_fsync(s0, 1);
        }
        drop(inner);
        self.stats.note_append(t0, trace_id, frame.len() as u64);
        Ok((offset, frame.len() as u32))
    }

    /// Reads back one result frame previously placed by
    /// [`Journal::append_reports`] (or by a previous incarnation of
    /// this journal — this is recovery's read path).
    pub fn read_reports(&self, offset: u64, len: u32) -> io::Result<Vec<RunReport>> {
        let mut file = File::open(self.dir.join(RESULT_FILE))?;
        file.seek(SeekFrom::Start(offset))?;
        let mut frame = vec![0u8; len as usize];
        file.read_exact(&mut frame)?;
        let payload = decode_frame(&frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        decode_reports(payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Reads every WAL record in order (recovery's other read path).
    /// The tail was truncated to the last verified frame on open, so a
    /// record that fails to *decode* is version skew, not a torn write
    /// — it errors rather than being silently dropped.
    pub fn replay(&self) -> io::Result<Vec<WalRecord>> {
        let contents = std::fs::read(self.dir.join(WAL_FILE))?;
        let (frames, _) = scan_frames(&contents, codec::WAL_MAGIC.len());
        frames
            .into_iter()
            .map(|range| {
                WalRecord::decode(&contents[range])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
            })
            .collect()
    }

    /// Forces both files durable *now*, blocking until the `fsync`s
    /// return (results first, then the WAL — the same order every sync
    /// path uses). This is the synchronous escape hatch from the
    /// group-committed [`FsyncPolicy::OnCompletion`] flusher: call it
    /// before handing the directory to another process, or wherever a
    /// bounded crash window is not acceptable.
    pub fn sync(&self) -> io::Result<()> {
        let inner = self.inner.lock().expect("journal poisoned");
        let t0 = now_ns();
        inner.results.sync_data()?;
        inner.wal.sync_data()?;
        self.stats.note_fsync(t0, 2);
        Ok(())
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            records_written: self.stats.records_written.get(),
            bytes_written: self.stats.bytes_written.get(),
            fsyncs: self.stats.fsyncs.get(),
        }
    }

    /// Registers the journal's counters and latency histograms under
    /// `quma_journal_*` family names and (optionally) attaches a span
    /// ring so appends and fsyncs emit `journal_append` /
    /// `journal_fsync` spans. Idempotent on the trace attachment — the
    /// first ring wins. The pool calls this once before sharing the
    /// journal.
    pub fn attach_obs(&self, registry: &Registry, trace: Option<&TraceBuffer>) {
        registry.register_counter(
            "quma_journal_records_written_total",
            "Frames appended across the WAL and result log",
            &[],
            &self.stats.records_written,
        );
        registry.register_counter(
            "quma_journal_bytes_written_total",
            "Bytes appended across both journal files, headers included",
            &[],
            &self.stats.bytes_written,
        );
        registry.register_counter(
            "quma_journal_fsyncs_total",
            "Explicit fsync calls issued by any journal path",
            &[],
            &self.stats.fsyncs,
        );
        registry.register_histogram(
            "quma_journal_append_seconds",
            "Journal append latency (WAL records and result frames)",
            &[],
            &self.stats.append_ns,
        );
        registry.register_histogram(
            "quma_journal_fsync_seconds",
            "Journal fsync cycle latency (all sync paths)",
            &[],
            &self.stats.fsync_ns,
        );
        if let Some(buf) = trace {
            let _ = self.stats.trace.set(buf.clone());
        }
    }

    /// Histogram snapshots for the JSON metrics document:
    /// `(append_ns, fsync_ns)`.
    pub fn latency_snapshots(&self) -> (quma_obs::HistogramSnapshot, quma_obs::HistogramSnapshot) {
        (
            self.stats.append_ns.snapshot(),
            self.stats.fsync_ns.snapshot(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::JobSpec;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "quma_journal_wal_{}_{}_{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn submitted(id: u64) -> WalRecord {
        WalRecord::Submitted {
            id,
            priority: 0,
            client: format!("c{id}"),
            spec: JobSpec::Shots {
                source: "Wait 4\nhalt\n".into(),
                shots: 2,
                plan: None,
                chunk: 0,
            },
        }
    }

    #[test]
    fn append_reopen_replay() {
        let dir = temp_dir("roundtrip");
        let config = JournalConfig::new(&dir);
        let records = vec![
            submitted(1),
            WalRecord::Completed {
                id: 1,
                offset: 0,
                len: 0,
            },
            WalRecord::Cancelled { id: 2 },
        ];
        {
            let journal = Journal::open(&config).unwrap();
            for record in &records {
                journal.append(record).unwrap();
            }
            // OnCompletion group-commits syncs on a background thread,
            // so the count here is coalescing-dependent; force one
            // deterministic cycle and check the counter moved.
            journal.sync().unwrap();
            let stats = journal.stats();
            assert_eq!(stats.records_written, 3);
            assert!(stats.bytes_written > 0);
            assert!(stats.fsyncs >= 2, "sync() syncs both files");
        }
        let journal = Journal::open(&config).unwrap();
        assert_eq!(journal.replay().unwrap(), records);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn result_frames_roundtrip_through_reopen() {
        let dir = temp_dir("results");
        let config = JournalConfig::new(&dir);
        let report = RunReport {
            registers: [7; quma_isa::reg::NUM_REGS],
            memory: vec![(1, 1), (4095, -2)],
            collector_averages: vec![vec![0.5]],
            md_results: vec![],
            stats: Default::default(),
            trace: Default::default(),
        };
        let (offset, len) = {
            let journal = Journal::open(&config).unwrap();
            journal
                .append_reports(std::slice::from_ref(&report))
                .unwrap()
        };
        let journal = Journal::open(&config).unwrap();
        let decoded = journal.read_reports(offset, len).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].registers, report.registers);
        assert_eq!(decoded[0].memory, report.memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        let config = JournalConfig::new(&dir);
        {
            let journal = Journal::open(&config).unwrap();
            journal.append(&submitted(1)).unwrap();
            journal.append(&submitted(2)).unwrap();
        }
        // Tear the second record's tail off.
        let wal_path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();

        let journal = Journal::open(&config).unwrap();
        let records = journal.replay().unwrap();
        assert_eq!(
            records,
            vec![submitted(1)],
            "only the intact record survives"
        );
        // The torn bytes are gone from disk, and appends continue cleanly.
        journal.append(&submitted(3)).unwrap();
        drop(journal);
        let journal = Journal::open(&config).unwrap();
        assert_eq!(journal.replay().unwrap(), vec![submitted(1), submitted(3)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected_not_truncated() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"definitely not a journal").unwrap();
        let err = Journal::open(&JournalConfig::new(&dir)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_1_result_log_is_rejected_by_version() {
        let dir = temp_dir("results_v1");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(RESULT_FILE), b"QJRES\x01\0\0").unwrap();
        let err = Journal::open(&JournalConfig::new(&dir)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(
            message.contains("format version 1 is not supported")
                && message.contains("reads version 2")
                && !message.contains("bad magic"),
            "{message}"
        );
        assert_eq!(
            std::fs::read(dir.join(RESULT_FILE)).unwrap(),
            b"QJRES\x01\0\0",
            "the old log is left as it was"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_result_frame_fails_the_read_not_the_open() {
        let dir = temp_dir("corrupt_result");
        let config = JournalConfig::new(&dir);
        let report = RunReport {
            registers: [0; quma_isa::reg::NUM_REGS],
            memory: vec![],
            collector_averages: vec![],
            md_results: vec![],
            stats: Default::default(),
            trace: Default::default(),
        };
        let (offset, len) = {
            let journal = Journal::open(&config).unwrap();
            journal
                .append_reports(std::slice::from_ref(&report))
                .unwrap()
        };
        let path = dir.join(RESULT_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset as usize + FRAME_HEADER] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let journal = Journal::open(&config).unwrap();
        assert!(journal.read_reports(offset, len).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

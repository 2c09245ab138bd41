//! The write-ahead log's record vocabulary and its binary codec.
//!
//! Five record kinds tell the whole lifecycle story of a job:
//!
//! | record | written | meaning on replay |
//! |---|---|---|
//! | `Submitted` | before the job is enqueued | the job existed; here is everything needed to re-run it |
//! | `Checkpoint` | after each block of sweep points | points `[0, done)` are finished; their reports live at `(offset, len)` in the result log |
//! | `Completed` | when the job finishes | terminal; `len > 0` names the full result payload, `len == 0` is a marker (checkpoints or a non-durable result carry the data) |
//! | `Failed` | when execution errors | terminal, with the error text |
//! | `Cancelled` | when a queued job is cancelled | terminal; recovery must *not* re-run it |
//!
//! A `Submitted` record embeds a [`JobSpec`]: the portable description
//! of the work — source text plus its [`content_hash`] (verified on
//! decode, an integrity check independent of the frame CRC), seed
//! plans, patch slots, priority and client id. Specs are what make
//! recovery possible at all: the engine's replay contract guarantees
//! that re-running a spec reproduces the original results bit-for-bit.

use bytes::{Buf, BufMut};
use quma_isa::hash::content_hash;
use quma_isa::template::{PatchField, SlotSpec};

/// A decoding failure: the frame verified (CRC passed) but the payload
/// does not parse as a record of this version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of what failed to parse.
    pub detail: String,
}

impl CodecError {
    fn new(detail: impl Into<String>) -> Self {
        Self {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "journal record decode: {}", self.detail)
    }
}

impl std::error::Error for CodecError {}

pub(crate) fn need(cur: &mut &[u8], n: usize, what: &str) -> Result<(), CodecError> {
    if cur.remaining() < n {
        Err(CodecError::new(format!(
            "{what}: need {n} bytes, {} remain",
            cur.remaining()
        )))
    } else {
        Ok(())
    }
}

fn take_u8(cur: &mut &[u8], what: &str) -> Result<u8, CodecError> {
    need(cur, 1, what)?;
    Ok(cur.get_u8())
}

fn take_u32(cur: &mut &[u8], what: &str) -> Result<u32, CodecError> {
    need(cur, 4, what)?;
    Ok(cur.get_u32())
}

fn take_u64(cur: &mut &[u8], what: &str) -> Result<u64, CodecError> {
    need(cur, 8, what)?;
    Ok(cur.get_u64())
}

fn take_i64(cur: &mut &[u8], what: &str) -> Result<i64, CodecError> {
    Ok(take_u64(cur, what)? as i64)
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.put_u32(s.len() as u32);
    out.put_slice(s.as_bytes());
}

fn take_str(cur: &mut &[u8], what: &str) -> Result<String, CodecError> {
    let len = take_u32(cur, what)? as usize;
    need(cur, len, what)?;
    let mut raw = vec![0u8; len];
    cur.copy_to_slice(&mut raw);
    String::from_utf8(raw).map_err(|_| CodecError::new(format!("{what}: invalid UTF-8")))
}

fn take_bytes(cur: &mut &[u8], what: &str) -> Result<Vec<u8>, CodecError> {
    let len = take_u32(cur, what)? as usize;
    need(cur, len, what)?;
    let mut raw = vec![0u8; len];
    cur.copy_to_slice(&mut raw);
    Ok(raw)
}

/// Caps decoded collection lengths: every length field is checked
/// against the bytes actually remaining before allocating, and this
/// bound additionally rejects absurd counts early.
pub(crate) const MAX_COUNT: u32 = 1 << 24;

pub(crate) fn take_count(cur: &mut &[u8], what: &str) -> Result<usize, CodecError> {
    let n = take_u32(cur, what)?;
    if n > MAX_COUNT {
        return Err(CodecError::new(format!("{what}: count {n} exceeds bound")));
    }
    Ok(n as usize)
}

/// One point of a journaled sweep: a source and its explicit seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepPointSpec {
    /// Program source for this point.
    pub source: String,
    /// Chip (physics) seed.
    pub chip: u64,
    /// Jitter (timing) seed.
    pub jitter: u64,
}

/// One point of a journaled template sweep: axis patches plus seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplatePointSpec {
    /// `(axis name, value)` bindings, in submission order.
    pub patches: Vec<(String, i64)>,
    /// Chip (physics) seed.
    pub chip: u64,
    /// Jitter (timing) seed.
    pub jitter: u64,
}

/// The portable description of a job: everything the pool needs to
/// re-create and re-run it after a crash, independent of any in-memory
/// state. Variants mirror the pool's `JobKind`, except that experiments
/// (arbitrary boxed trait objects) journal as [`JobSpec::Opaque`] — the
/// serving layer stores the original submission document and re-parses
/// it on recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSpec {
    /// A shot batch over one program.
    Shots {
        /// Program source text.
        source: String,
        /// Number of shots.
        shots: u64,
        /// Explicit seed plan `(chip_base, jitter_base)`, if any.
        plan: Option<(u64, u64)>,
        /// Chunked-streaming block size (0 = single batch).
        chunk: u64,
    },
    /// A multi-program sweep with explicit per-point seeds.
    Sweep {
        /// The points, in order.
        points: Vec<SweepPointSpec>,
    },
    /// A patch-per-point sweep over one slotted template.
    TemplateSweep {
        /// Template source text.
        source: String,
        /// The patch slots attached to the source.
        slots: Vec<SlotSpec>,
        /// The points, in order.
        points: Vec<TemplatePointSpec>,
    },
    /// A job the journal cannot re-create itself: `payload` is whatever
    /// the submitting layer needs to rebuild it (the serving layer
    /// stores the original JSON submission), `tag` names the flavor.
    Opaque {
        /// Submitter-defined discriminator (e.g. the experiment name).
        tag: String,
        /// Submitter-defined rehydration payload.
        payload: Vec<u8>,
    },
}

const SPEC_SHOTS: u8 = 1;
const SPEC_SWEEP: u8 = 2;
const SPEC_TEMPLATE: u8 = 3;
const SPEC_OPAQUE: u8 = 4;

impl JobSpec {
    /// Total sweep points, for the kinds that checkpoint per point.
    pub fn total_points(&self) -> Option<u64> {
        match self {
            JobSpec::Sweep { points } => Some(points.len() as u64),
            JobSpec::TemplateSweep { points, .. } => Some(points.len() as u64),
            JobSpec::Shots { .. } | JobSpec::Opaque { .. } => None,
        }
    }

    /// The stable kind string (matches the serving layer's job kinds).
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Shots { .. } => "shots",
            JobSpec::Sweep { .. } => "sweep",
            JobSpec::TemplateSweep { .. } => "template_sweep",
            JobSpec::Opaque { .. } => "experiment",
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JobSpec::Shots {
                source,
                shots,
                plan,
                chunk,
            } => {
                out.put_u8(SPEC_SHOTS);
                out.put_u64(content_hash(source.as_bytes()));
                put_str(out, source);
                out.put_u64(*shots);
                match plan {
                    None => out.put_u8(0),
                    Some((chip, jitter)) => {
                        out.put_u8(1);
                        out.put_u64(*chip);
                        out.put_u64(*jitter);
                    }
                }
                out.put_u64(*chunk);
            }
            JobSpec::Sweep { points } => {
                out.put_u8(SPEC_SWEEP);
                out.put_u32(points.len() as u32);
                for p in points {
                    out.put_u64(content_hash(p.source.as_bytes()));
                    put_str(out, &p.source);
                    out.put_u64(p.chip);
                    out.put_u64(p.jitter);
                }
            }
            JobSpec::TemplateSweep {
                source,
                slots,
                points,
            } => {
                out.put_u8(SPEC_TEMPLATE);
                out.put_u64(content_hash(source.as_bytes()));
                put_str(out, source);
                out.put_u32(slots.len() as u32);
                for slot in slots {
                    put_str(out, &slot.name);
                    out.put_u32(slot.insn_index);
                    let (field, op) = match slot.field {
                        PatchField::WaitInterval => (0u8, 0u32),
                        PatchField::MovImm => (1, 0),
                        PatchField::MpgDuration => (2, 0),
                        PatchField::PulseUop { op } => (3, op as u32),
                    };
                    out.put_u8(field);
                    out.put_u32(op);
                }
                out.put_u32(points.len() as u32);
                for p in points {
                    out.put_u32(p.patches.len() as u32);
                    for (name, value) in &p.patches {
                        put_str(out, name);
                        out.put_u64(*value as u64);
                    }
                    out.put_u64(p.chip);
                    out.put_u64(p.jitter);
                }
            }
            JobSpec::Opaque { tag, payload } => {
                out.put_u8(SPEC_OPAQUE);
                put_str(out, tag);
                out.put_u32(payload.len() as u32);
                out.put_slice(payload);
            }
        }
    }

    fn decode(cur: &mut &[u8]) -> Result<Self, CodecError> {
        let checked_source = |cur: &mut &[u8], what: &str| -> Result<String, CodecError> {
            let hash = take_u64(cur, what)?;
            let source = take_str(cur, what)?;
            if content_hash(source.as_bytes()) != hash {
                return Err(CodecError::new(format!("{what}: content hash mismatch")));
            }
            Ok(source)
        };
        match take_u8(cur, "spec kind")? {
            SPEC_SHOTS => {
                let source = checked_source(cur, "shots source")?;
                let shots = take_u64(cur, "shot count")?;
                let plan = match take_u8(cur, "plan flag")? {
                    0 => None,
                    1 => Some((take_u64(cur, "chip base")?, take_u64(cur, "jitter base")?)),
                    other => {
                        return Err(CodecError::new(format!("plan flag {other} unknown")));
                    }
                };
                let chunk = take_u64(cur, "chunk size")?;
                Ok(JobSpec::Shots {
                    source,
                    shots,
                    plan,
                    chunk,
                })
            }
            SPEC_SWEEP => {
                let n = take_count(cur, "sweep point count")?;
                let mut points = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    points.push(SweepPointSpec {
                        source: checked_source(cur, "sweep source")?,
                        chip: take_u64(cur, "sweep chip seed")?,
                        jitter: take_u64(cur, "sweep jitter seed")?,
                    });
                }
                Ok(JobSpec::Sweep { points })
            }
            SPEC_TEMPLATE => {
                let source = checked_source(cur, "template source")?;
                let n_slots = take_count(cur, "slot count")?;
                let mut slots = Vec::with_capacity(n_slots.min(1024));
                for _ in 0..n_slots {
                    let name = take_str(cur, "slot name")?;
                    let insn_index = take_u32(cur, "slot index")?;
                    let field = take_u8(cur, "slot field")?;
                    let op = take_u32(cur, "slot op")? as usize;
                    let field = match field {
                        0 => PatchField::WaitInterval,
                        1 => PatchField::MovImm,
                        2 => PatchField::MpgDuration,
                        3 => PatchField::PulseUop { op },
                        other => {
                            return Err(CodecError::new(format!("patch field {other} unknown")));
                        }
                    };
                    slots.push(SlotSpec {
                        name,
                        insn_index,
                        field,
                    });
                }
                let n_points = take_count(cur, "template point count")?;
                let mut points = Vec::with_capacity(n_points.min(1024));
                for _ in 0..n_points {
                    let n_patches = take_count(cur, "patch count")?;
                    let mut patches = Vec::with_capacity(n_patches.min(1024));
                    for _ in 0..n_patches {
                        let name = take_str(cur, "patch name")?;
                        let value = take_i64(cur, "patch value")?;
                        patches.push((name, value));
                    }
                    points.push(TemplatePointSpec {
                        patches,
                        chip: take_u64(cur, "template chip seed")?,
                        jitter: take_u64(cur, "template jitter seed")?,
                    });
                }
                Ok(JobSpec::TemplateSweep {
                    source,
                    slots,
                    points,
                })
            }
            SPEC_OPAQUE => {
                let tag = take_str(cur, "opaque tag")?;
                let payload = take_bytes(cur, "opaque payload")?;
                Ok(JobSpec::Opaque { tag, payload })
            }
            other => Err(CodecError::new(format!("spec kind {other} unknown"))),
        }
    }
}

const REC_SUBMITTED: u8 = 1;
const REC_CHECKPOINT: u8 = 2;
const REC_COMPLETED: u8 = 3;
const REC_FAILED: u8 = 4;
const REC_CANCELLED: u8 = 5;

/// One write-ahead log record (see the module table for semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A job was accepted: written *before* it is enqueued.
    Submitted {
        /// Pool job id (stable across recovery).
        id: u64,
        /// Priority lane: 0 = normal, 1 = high.
        priority: u8,
        /// Submitting client id (empty when anonymous).
        client: String,
        /// How to re-run the job.
        spec: JobSpec,
    },
    /// Sweep points `[0, done)` are finished; the most recent block's
    /// reports live at `(offset, len)` in the result log.
    Checkpoint {
        /// Pool job id.
        id: u64,
        /// Points finished so far (cumulative, not per-block).
        done: u64,
        /// Result-log frame offset of this block's reports.
        offset: u64,
        /// Whole-frame byte length at that offset.
        len: u32,
    },
    /// The job finished. `len > 0` names the full durable payload in
    /// the result log; `len == 0` is a completion marker only (sweep
    /// results live in checkpoint payloads, experiment results are not
    /// durable and re-run on recovery).
    Completed {
        /// Pool job id.
        id: u64,
        /// Result-log frame offset (0 when `len == 0`).
        offset: u64,
        /// Whole-frame byte length (0 = marker only).
        len: u32,
    },
    /// The job errored.
    Failed {
        /// Pool job id.
        id: u64,
        /// The error's display text.
        detail: String,
    },
    /// The job was cancelled before running.
    Cancelled {
        /// Pool job id.
        id: u64,
    },
}

impl WalRecord {
    /// Serializes the record (the frame layer wraps it with length+CRC).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Submitted {
                id,
                priority,
                client,
                spec,
            } => {
                out.put_u8(REC_SUBMITTED);
                out.put_u64(*id);
                out.put_u8(*priority);
                put_str(out, client);
                spec.encode(out);
            }
            WalRecord::Checkpoint {
                id,
                done,
                offset,
                len,
            } => {
                out.put_u8(REC_CHECKPOINT);
                out.put_u64(*id);
                out.put_u64(*done);
                out.put_u64(*offset);
                out.put_u32(*len);
            }
            WalRecord::Completed { id, offset, len } => {
                out.put_u8(REC_COMPLETED);
                out.put_u64(*id);
                out.put_u64(*offset);
                out.put_u32(*len);
            }
            WalRecord::Failed { id, detail } => {
                out.put_u8(REC_FAILED);
                out.put_u64(*id);
                put_str(out, detail);
            }
            WalRecord::Cancelled { id } => {
                out.put_u8(REC_CANCELLED);
                out.put_u64(*id);
            }
        }
    }

    /// Parses one record from a verified frame payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, CodecError> {
        let mut cur: &[u8] = payload;
        let record = match take_u8(&mut cur, "record kind")? {
            REC_SUBMITTED => WalRecord::Submitted {
                id: take_u64(&mut cur, "job id")?,
                priority: take_u8(&mut cur, "priority")?,
                client: take_str(&mut cur, "client id")?,
                spec: JobSpec::decode(&mut cur)?,
            },
            REC_CHECKPOINT => WalRecord::Checkpoint {
                id: take_u64(&mut cur, "job id")?,
                done: take_u64(&mut cur, "done count")?,
                offset: take_u64(&mut cur, "result offset")?,
                len: take_u32(&mut cur, "result len")?,
            },
            REC_COMPLETED => WalRecord::Completed {
                id: take_u64(&mut cur, "job id")?,
                offset: take_u64(&mut cur, "result offset")?,
                len: take_u32(&mut cur, "result len")?,
            },
            REC_FAILED => WalRecord::Failed {
                id: take_u64(&mut cur, "job id")?,
                detail: take_str(&mut cur, "failure detail")?,
            },
            REC_CANCELLED => WalRecord::Cancelled {
                id: take_u64(&mut cur, "job id")?,
            },
            other => return Err(CodecError::new(format!("record kind {other} unknown"))),
        };
        if cur.has_remaining() {
            return Err(CodecError::new(format!(
                "{} bytes trail the record",
                cur.remaining()
            )));
        }
        Ok(record)
    }

    /// The job id every record carries.
    pub fn id(&self) -> u64 {
        match self {
            WalRecord::Submitted { id, .. }
            | WalRecord::Checkpoint { id, .. }
            | WalRecord::Completed { id, .. }
            | WalRecord::Failed { id, .. }
            | WalRecord::Cancelled { id } => *id,
        }
    }

    /// Whether this record ends a job's lifecycle.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            WalRecord::Completed { .. } | WalRecord::Failed { .. } | WalRecord::Cancelled { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: &WalRecord) -> WalRecord {
        let mut out = Vec::new();
        record.encode(&mut out);
        WalRecord::decode(&out).expect("decode")
    }

    #[test]
    fn every_record_kind_roundtrips() {
        let records = [
            WalRecord::Submitted {
                id: 7,
                priority: 1,
                client: "calib-7".into(),
                spec: JobSpec::Shots {
                    source: "Wait 4\nhalt\n".into(),
                    shots: 32,
                    plan: Some((0xC11E, 0x0DD5)),
                    chunk: 8,
                },
            },
            WalRecord::Submitted {
                id: 8,
                priority: 0,
                client: String::new(),
                spec: JobSpec::Sweep {
                    points: vec![
                        SweepPointSpec {
                            source: "Wait 4\nhalt\n".into(),
                            chip: 1,
                            jitter: 2,
                        },
                        SweepPointSpec {
                            source: "Wait 8\nhalt\n".into(),
                            chip: 3,
                            jitter: 4,
                        },
                    ],
                },
            },
            WalRecord::Submitted {
                id: 9,
                priority: 0,
                client: "sweeper".into(),
                spec: JobSpec::TemplateSweep {
                    source: "Wait 100\nhalt\n".into(),
                    slots: vec![
                        SlotSpec::new("tau", 0, PatchField::WaitInterval),
                        SlotSpec::new("u", 2, PatchField::PulseUop { op: 1 }),
                    ],
                    points: vec![TemplatePointSpec {
                        patches: vec![("tau".into(), -40), ("u".into(), 9)],
                        chip: 5,
                        jitter: 6,
                    }],
                },
            },
            WalRecord::Submitted {
                id: 10,
                priority: 1,
                client: "qec".into(),
                spec: JobSpec::Opaque {
                    tag: "qec".into(),
                    payload: br#"{"kind":"experiment"}"#.to_vec(),
                },
            },
            WalRecord::Checkpoint {
                id: 9,
                done: 16,
                offset: 4096,
                len: 512,
            },
            WalRecord::Completed {
                id: 7,
                offset: 8192,
                len: 2048,
            },
            WalRecord::Completed {
                id: 10,
                offset: 0,
                len: 0,
            },
            WalRecord::Failed {
                id: 8,
                detail: "device error: queue starved".into(),
            },
            WalRecord::Cancelled { id: 11 },
        ];
        for record in &records {
            assert_eq!(&roundtrip(record), record);
        }
    }

    #[test]
    fn source_tampering_is_caught_by_the_content_hash() {
        let record = WalRecord::Submitted {
            id: 1,
            priority: 0,
            client: String::new(),
            spec: JobSpec::Shots {
                source: "Wait 4\nhalt\n".into(),
                shots: 1,
                plan: None,
                chunk: 0,
            },
        };
        let mut out = Vec::new();
        record.encode(&mut out);
        // Flip one source byte without touching the stored hash: the
        // spec decoder recomputes and refuses.
        let pos = out
            .windows(4)
            .position(|w| w == b"Wait")
            .expect("source text present");
        out[pos] = b'w';
        let err = WalRecord::decode(&out).unwrap_err();
        assert!(err.detail.contains("hash mismatch"), "{err}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut out = Vec::new();
        WalRecord::Cancelled { id: 3 }.encode(&mut out);
        out.push(0);
        assert!(WalRecord::decode(&out).is_err());
    }

    #[test]
    fn truncated_records_error_instead_of_panicking() {
        let mut out = Vec::new();
        WalRecord::Failed {
            id: 3,
            detail: "boom".into(),
        }
        .encode(&mut out);
        for cut in 0..out.len() {
            assert!(WalRecord::decode(&out[..cut]).is_err());
        }
    }
}

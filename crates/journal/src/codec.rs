//! Length-prefixed, CRC-checked framing over the vendored `bytes` crate.
//!
//! Both journal files — the write-ahead log and the binary result log —
//! are a fixed 8-byte magic header followed by a run of frames:
//!
//! ```text
//! [len: u32 BE][crc: u32 BE][payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE/zlib polynomial) over the payload alone. The
//! frame length is bounded by [`MAX_FRAME`] so a corrupt length field
//! can never make the scanner walk off into garbage. A frame that does
//! not fully verify — short header, oversized length, truncated payload,
//! CRC mismatch — marks the *clean end* of the file: everything before
//! it is trusted, everything from it on is a torn tail to be truncated
//! on open ([`scan_frames`] finds the boundary; the [`wal`](crate::wal)
//! layer does the truncating).

use bytes::{Buf, BufMut};

/// Magic header of the write-ahead log (`wal.qj`).
pub const WAL_MAGIC: &[u8; 8] = b"QJWAL\x01\0\0";
/// Magic header of the binary result log (`results.qrl`). Version 2:
/// report memory is sparse (see [`crate::reports`]).
pub const RESULT_MAGIC: &[u8; 8] = b"QJRES\x02\0\0";
/// Bytes of frame header preceding each payload: `[len u32][crc u32]`.
pub const FRAME_HEADER: usize = 8;
/// Upper bound on a single frame's payload (256 MiB). A length field
/// above this is treated as corruption, not as a request to allocate.
pub const MAX_FRAME: u32 = 1 << 28;

/// The eight slice-by-8 lookup tables, derived at compile time from the
/// polynomial alone — nothing here is hand-transcribed, and
/// `crc32_matches_published_vectors` pins the result against the classic
/// zlib check value.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    const POLY: u32 = 0xEDB8_8320; // IEEE 802.3 / zlib, reflected
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected), slice-by-8.
///
/// Every frame appended to either log is checksummed, so the CRC sits
/// on the journal's append path: a 16-point sweep job writes about
/// 2.5 KB (`crates/pool/tests/journal_bytes.rs` pins the exact count).
/// Eight bytes per step through precomputed tables runs several times
/// faster than byte- or nibble-at-a-time and keeps the journal's cost
/// dominated by I/O rather than hashing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Appends one frame (`[len][crc][payload]`) to `out`.
pub fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) {
    encode_frame_with(out, |buf| buf.put_slice(payload));
}

/// Appends one frame whose payload `fill` writes directly into `out` —
/// no scratch buffer, no second copy. The 8-byte header is reserved up
/// front and patched (`[len][crc]`) once the payload's true extent is
/// known. For the result log's hundred-kilobyte report frames this
/// halves the bytes that move through memory per append.
pub fn encode_frame_with(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let header_at = out.len();
    out.put_u64(0);
    let payload_at = out.len();
    fill(out);
    let len = out.len() - payload_at;
    assert!(len as u64 <= u64::from(MAX_FRAME), "frame too large");
    let crc = crc32(&out[payload_at..]);
    out[header_at..header_at + 4].copy_from_slice(&(len as u32).to_be_bytes());
    out[header_at + 4..payload_at].copy_from_slice(&crc.to_be_bytes());
}

/// Verifies and strips the header of the frame starting at the front of
/// `bytes`, returning its payload. Fails on short input, oversized
/// length, truncated payload, CRC mismatch, or trailing bytes past the
/// frame (the caller names an exact frame, so slack means a bad offset).
pub fn decode_frame(bytes: &[u8]) -> Result<&[u8], FrameError> {
    if bytes.remaining() < FRAME_HEADER {
        return Err(FrameError::Truncated);
    }
    let (mut header, rest) = bytes.split_at(FRAME_HEADER);
    let len = header.get_u32();
    if len > MAX_FRAME {
        return Err(FrameError::Oversized { len });
    }
    let crc = header.get_u32();
    if rest.len() < len as usize {
        return Err(FrameError::Truncated);
    }
    if rest.len() != len as usize {
        return Err(FrameError::TrailingBytes);
    }
    let payload = rest;
    let actual = crc32(payload);
    if actual != crc {
        return Err(FrameError::CrcMismatch {
            expected: crc,
            actual,
        });
    }
    Ok(payload)
}

/// Why a byte range failed to verify as a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the header + declared payload need.
    Truncated,
    /// The length field exceeds [`MAX_FRAME`].
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// The payload hashes to a different CRC than the header claims.
    CrcMismatch {
        /// CRC stored in the frame header.
        expected: u32,
        /// CRC computed over the payload found on disk.
        actual: u32,
    },
    /// Bytes continue past the declared frame end.
    TrailingBytes,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversized { len } => write!(f, "frame length {len} exceeds bound"),
            FrameError::CrcMismatch { expected, actual } => {
                write!(
                    f,
                    "frame CRC mismatch (stored {expected:#010X}, computed {actual:#010X})"
                )
            }
            FrameError::TrailingBytes => write!(f, "bytes continue past declared frame end"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Walks frames from `start`, returning each payload's byte range and
/// the *clean end*: the offset after the last fully verified frame. A
/// clean end short of `bytes.len()` means the tail from there on is torn
/// or corrupt.
pub fn scan_frames(bytes: &[u8], start: usize) -> (Vec<std::ops::Range<usize>>, usize) {
    let mut frames = Vec::new();
    let mut at = start.min(bytes.len());
    loop {
        let rest = &bytes[at..];
        if rest.len() < FRAME_HEADER {
            break;
        }
        let mut cur = rest;
        let len = cur.get_u32() as usize;
        let crc = cur.get_u32();
        if len as u64 > u64::from(MAX_FRAME) || cur.remaining() < len {
            break;
        }
        let payload = &cur.chunk()[..len];
        if crc32(payload) != crc {
            break;
        }
        frames.push(at + FRAME_HEADER..at + FRAME_HEADER + len);
        at += FRAME_HEADER + len;
    }
    (frames, at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_published_vectors() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let mut out = Vec::new();
        encode_frame(&mut out, b"hello journal");
        assert_eq!(out.len(), FRAME_HEADER + 13);
        assert_eq!(decode_frame(&out).unwrap(), b"hello journal");
    }

    #[test]
    fn decode_rejects_each_corruption() {
        let mut out = Vec::new();
        encode_frame(&mut out, b"payload");
        // Flip a payload byte: CRC mismatch.
        let mut bad = out.clone();
        bad[FRAME_HEADER] ^= 0x01;
        assert!(matches!(
            decode_frame(&bad),
            Err(FrameError::CrcMismatch { .. })
        ));
        // Chop the tail: truncated.
        assert_eq!(
            decode_frame(&out[..out.len() - 1]),
            Err(FrameError::Truncated)
        );
        // Extra byte: trailing.
        let mut long = out.clone();
        long.push(0);
        assert_eq!(decode_frame(&long), Err(FrameError::TrailingBytes));
        // Absurd length field: oversized, not an allocation attempt.
        let mut huge = out;
        huge[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_frame(&huge),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn scan_finds_the_clean_end_of_a_torn_tail() {
        let mut log = Vec::new();
        encode_frame(&mut log, b"first");
        encode_frame(&mut log, b"second");
        let clean = log.len();
        // A torn third frame: header written, payload half-written.
        let mut torn = Vec::new();
        encode_frame(&mut torn, b"third-but-torn");
        log.extend_from_slice(&torn[..torn.len() - 5]);

        let (frames, end) = scan_frames(&log, 0);
        assert_eq!(frames.len(), 2);
        assert_eq!(&log[frames[0].clone()], b"first");
        assert_eq!(&log[frames[1].clone()], b"second");
        assert_eq!(end, clean, "the torn frame is not part of the clean prefix");
    }

    #[test]
    fn scan_stops_at_a_corrupt_middle_frame() {
        let mut log = Vec::new();
        encode_frame(&mut log, b"good");
        let second_start = log.len();
        encode_frame(&mut log, b"soon-corrupt");
        encode_frame(&mut log, b"unreachable");
        log[second_start + FRAME_HEADER] ^= 0xFF;
        let (frames, end) = scan_frames(&log, 0);
        assert_eq!(frames.len(), 1);
        assert_eq!(end, second_start, "nothing after the corruption is trusted");
    }
}

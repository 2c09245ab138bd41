//! Compact binary codec for shot reports — the result log's payload.
//!
//! A result-log frame holds a `Vec<RunReport>` (one sweep block, one
//! shot batch, or one full result). Only the *deterministic* surface of
//! a report is persisted — registers, the nonzero data-memory words,
//! collector averages, and discrimination records — because that is
//! exactly what the replay contract pins bit-for-bit and what the
//! serving layer renders. Diagnostics (`stats`, `trace`) are run-local
//! and decode as defaults.
//!
//! Format version 2 (the `results.qrl` magic): memory travels as a pair
//! count and `(addr u32, value i32)` pairs, strictly ascending by
//! address with no zero value, so a report has exactly one encoding and
//! a program that writes a few words journals a few words, not the whole
//! data memory.
//!
//! Floats travel as their IEEE-754 bit patterns ([`BufMut::put_f64`] /
//! [`Buf::get_f64`]): decoding a journaled report yields values
//! bit-identical to the run that produced them, which is what lets a
//! recovered server serve byte-identical response documents.

use crate::record::{need, take_count, CodecError};
use bytes::{Buf, BufMut};
use quma_core::device::{MdRecord, RunReport};
use quma_isa::reg::{Reg, NUM_REGS};

/// Exact encoded size of `reports`, so the append path reserves once
/// instead of growth-doubling its way through a multi-report frame.
fn encoded_size(reports: &[RunReport]) -> usize {
    let per_md = 8 + 4 + 1 + 1 + 8;
    4 + reports
        .iter()
        .map(|r| {
            4 * NUM_REGS
                + 4
                + 8 * r.memory.len()
                + 4
                + r.collector_averages
                    .iter()
                    .map(|q| 4 + 8 * q.len())
                    .sum::<usize>()
                + 4
                + per_md * r.md_results.len()
        })
        .sum::<usize>()
}

/// Serializes reports into `out` (framing is the caller's job).
pub fn encode_reports(out: &mut Vec<u8>, reports: &[RunReport]) {
    out.reserve(encoded_size(reports));
    out.put_u32(reports.len() as u32);
    for report in reports {
        for &r in &report.registers {
            out.put_i32(r);
        }
        out.put_u32(report.memory.len() as u32);
        for &(addr, value) in &report.memory {
            out.put_u32(addr);
            out.put_i32(value);
        }
        out.put_u32(report.collector_averages.len() as u32);
        for qubit in &report.collector_averages {
            out.put_u32(qubit.len() as u32);
            for &s in qubit {
                out.put_f64(s);
            }
        }
        out.put_u32(report.md_results.len() as u32);
        for md in &report.md_results {
            out.put_u64(md.td);
            out.put_u32(md.qubit as u32);
            out.put_u8(md.bit);
            out.put_u8(md.rd.map_or(0xFF, Reg::index));
            out.put_f64(md.s);
        }
    }
}

/// Parses reports back out of a frame payload. `stats` and `trace`
/// come back as defaults — they are diagnostics, not results.
pub fn decode_reports(payload: &[u8]) -> Result<Vec<RunReport>, CodecError> {
    let mut cur: &[u8] = payload;
    let n_reports = take_count(&mut cur, "report count")?;
    let mut reports = Vec::with_capacity(n_reports.min(1024));
    for _ in 0..n_reports {
        need(&mut cur, 4 * NUM_REGS, "registers")?;
        let mut registers = [0i32; NUM_REGS];
        for r in &mut registers {
            *r = cur.get_i32();
        }
        let n_mem = take_count(&mut cur, "memory word count")?;
        need(&mut cur, 8 * n_mem, "memory words")?;
        let mut memory: Vec<(u32, i32)> = Vec::with_capacity(n_mem);
        for _ in 0..n_mem {
            let addr = cur.get_u32();
            let value = cur.get_i32();
            if let Some(&(prev, _)) = memory.last().filter(|&&(prev, _)| addr <= prev) {
                return Err(CodecError {
                    detail: format!("memory word {addr} follows word {prev}"),
                });
            }
            if value == 0 {
                return Err(CodecError {
                    detail: format!("memory word {addr} holds an explicit zero"),
                });
            }
            memory.push((addr, value));
        }
        let n_qubits = take_count(&mut cur, "collector qubit count")?;
        let mut collector_averages = Vec::with_capacity(n_qubits.min(1024));
        for _ in 0..n_qubits {
            let n_avg = take_count(&mut cur, "collector average count")?;
            need(&mut cur, 8 * n_avg, "collector averages")?;
            let mut avgs = Vec::with_capacity(n_avg);
            for _ in 0..n_avg {
                avgs.push(cur.get_f64());
            }
            collector_averages.push(avgs);
        }
        let n_md = take_count(&mut cur, "md record count")?;
        let mut md_results = Vec::with_capacity(n_md.min(1024));
        for _ in 0..n_md {
            need(&mut cur, 8 + 4 + 1 + 1 + 8, "md record")?;
            let td = cur.get_u64();
            let qubit = cur.get_u32() as usize;
            let bit = cur.get_u8();
            let rd_raw = cur.get_u8();
            let s = cur.get_f64();
            let rd = if rd_raw == 0xFF {
                None
            } else {
                Some(Reg::new(rd_raw).ok_or_else(|| CodecError {
                    detail: format!("md destination register {rd_raw} out of range"),
                })?)
            };
            md_results.push(MdRecord {
                td,
                qubit,
                bit,
                s,
                rd,
            });
        }
        reports.push(RunReport {
            registers,
            memory,
            collector_averages,
            md_results,
            stats: Default::default(),
            trace: Default::default(),
        });
    }
    if cur.has_remaining() {
        return Err(CodecError {
            detail: format!("{} bytes trail the reports", cur.remaining()),
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(salt: u64) -> RunReport {
        let mut registers = [0i32; NUM_REGS];
        registers[7] = salt as i32;
        registers[15] = -1;
        RunReport {
            registers,
            memory: vec![(0, 3), (17, -4), (4095, 5)],
            collector_averages: vec![vec![0.25, -0.0], vec![], vec![f64::from_bits(salt)]],
            md_results: vec![
                MdRecord {
                    td: 40_000 + salt,
                    qubit: 2,
                    bit: 1,
                    s: 0.031_25,
                    rd: Reg::new(7),
                },
                MdRecord {
                    td: 80_000,
                    qubit: 0,
                    bit: 0,
                    s: -12.5,
                    rd: None,
                },
            ],
            stats: Default::default(),
            trace: Default::default(),
        }
    }

    fn assert_reports_bit_identical(a: &[RunReport], b: &[RunReport]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.registers, y.registers);
            assert_eq!(x.memory, y.memory);
            assert_eq!(x.collector_averages.len(), y.collector_averages.len());
            for (qa, qb) in x.collector_averages.iter().zip(&y.collector_averages) {
                let qa: Vec<u64> = qa.iter().map(|s| s.to_bits()).collect();
                let qb: Vec<u64> = qb.iter().map(|s| s.to_bits()).collect();
                assert_eq!(qa, qb);
            }
            assert_eq!(x.md_results.len(), y.md_results.len());
            for (ma, mb) in x.md_results.iter().zip(&y.md_results) {
                assert_eq!(
                    (ma.td, ma.qubit, ma.bit, ma.rd),
                    (mb.td, mb.qubit, mb.bit, mb.rd)
                );
                assert_eq!(ma.s.to_bits(), mb.s.to_bits());
            }
        }
    }

    #[test]
    fn reports_roundtrip_bit_identical() {
        // 0x7FF8…1 is a signalling-ish NaN payload: value comparison
        // would fail (NaN != NaN), bit comparison must succeed.
        let original = vec![sample_report(1), sample_report(0x7FF8_0000_0000_0001)];
        let mut payload = Vec::new();
        encode_reports(&mut payload, &original);
        let decoded = decode_reports(&payload).unwrap();
        assert_reports_bit_identical(&original, &decoded);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let mut payload = Vec::new();
        encode_reports(&mut payload, &[]);
        assert!(decode_reports(&payload).unwrap().is_empty());
    }

    #[test]
    fn truncations_error_cleanly() {
        let mut payload = Vec::new();
        encode_reports(&mut payload, &[sample_report(9)]);
        for cut in 0..payload.len() {
            assert!(decode_reports(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = payload;
        long.push(0);
        assert!(decode_reports(&long).is_err());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The version-2 encoding of one fixed report, byte for byte: a
    /// change here is a result-log format change and needs a new
    /// `RESULT_MAGIC` version.
    #[test]
    fn v2_encoding_is_pinned() {
        let mut registers = [0i32; NUM_REGS];
        registers[7] = 1;
        registers[15] = -1;
        let report = RunReport {
            registers,
            memory: vec![(64, 2), (70_000, -7)],
            collector_averages: vec![vec![0.5]],
            md_results: vec![MdRecord {
                td: 40_000,
                qubit: 0,
                bit: 1,
                s: -0.25,
                rd: Reg::new(7),
            }],
            stats: Default::default(),
            trace: Default::default(),
        };
        let mut payload = Vec::new();
        encode_reports(&mut payload, std::slice::from_ref(&report));
        let want = [
            "00000001",            // report count
            &"00000000".repeat(7), // r0..r6
            "00000001",            // r7
            &"00000000".repeat(7), // r8..r14
            "ffffffff",            // r15
            "00000002",            // memory pairs
            "00000040",            // addr 64
            "00000002",            // value 2
            "00011170",            // addr 70 000
            "fffffff9",            // value -7
            "00000001",            // qubits
            "00000001",            // averages
            "3fe0000000000000",    // 0.5
            "00000001",            // md records
            "0000000000009c40",    // td 40 000
            "00000000",            // qubit
            "01",                  // bit
            "07",                  // rd r7
            "bfd0000000000000",    // s -0.25
        ]
        .concat();
        assert_eq!(hex(&payload), want);
        assert_eq!(payload.len(), encoded_size(std::slice::from_ref(&report)));
        let decoded = decode_reports(&payload).unwrap();
        assert_reports_bit_identical(std::slice::from_ref(&report), &decoded);
    }

    /// Encodes one report whose memory is `memory` (canonical or not —
    /// the encoder writes what it is given) and decodes it back.
    fn decode_memory(memory: Vec<(u32, i32)>) -> Result<Vec<RunReport>, CodecError> {
        let mut report = sample_report(3);
        report.memory = memory;
        let mut payload = Vec::new();
        encode_reports(&mut payload, &[report]);
        decode_reports(&payload)
    }

    #[test]
    fn memory_pairs_out_of_order_are_a_decode_error() {
        let err = decode_memory(vec![(9, 1), (4, 2)]).unwrap_err();
        assert!(err.detail.contains("word 4 follows word 9"), "{err}");
    }

    #[test]
    fn duplicate_memory_addresses_are_a_decode_error() {
        let err = decode_memory(vec![(4, 1), (4, 2)]).unwrap_err();
        assert!(err.detail.contains("word 4 follows word 4"), "{err}");
    }

    #[test]
    fn zero_memory_values_are_a_decode_error() {
        let err = decode_memory(vec![(4, 1), (5, 0)]).unwrap_err();
        assert!(
            err.detail.contains("word 5 holds an explicit zero"),
            "{err}"
        );
        assert_eq!(
            decode_memory(vec![(4, 1), (5, -1)]).unwrap()[0].memory_word(5),
            -1
        );
    }

    #[test]
    fn bad_register_index_is_a_decode_error() {
        let mut payload = Vec::new();
        encode_reports(&mut payload, &[sample_report(2)]);
        // The first md record's rd byte holds register 7; forge 0x20.
        let pos = payload
            .iter()
            .rposition(|&b| b == 7)
            .expect("rd byte present");
        payload[pos] = 0x20;
        assert!(decode_reports(&payload).is_err());
    }
}

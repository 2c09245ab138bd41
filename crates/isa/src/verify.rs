//! Static program verification: the checks a toolchain runs before loading
//! a binary into the quantum instruction cache.
//!
//! The hazards are the ones this reproduction's own development hit:
//! branch targets outside the text, waits that break single-sideband phase
//! alignment (Section 4.2.3 — a misaligned pulse rotates about the wrong
//! axis), and `MD` events with no `MPG` to latch a trace for them.

use crate::instruction::Instruction;
use crate::program::Program;

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The program will fault or misbehave at runtime.
    Error,
    /// Suspicious but possibly intended.
    Warning,
}

/// What the verifier found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagnosticKind {
    /// A branch or jump targets an address outside the program.
    BranchOutOfRange {
        /// The bad target.
        target: u32,
        /// Program length.
        len: usize,
    },
    /// The program is empty.
    EmptyProgram,
    /// The program can fall off its end (no `halt` on the final path).
    /// Falling off halts implicitly, so this is only a warning.
    MissingHalt,
    /// A `Wait` interval is not a multiple of the SSB alignment, so pulses
    /// after it play with a rotated drive axis.
    UnalignedWait {
        /// The interval.
        interval: u32,
        /// The required alignment in cycles.
        alignment: u32,
    },
    /// More `MD` than `MPG` instructions address a qubit: some `MD` will
    /// find no measurement window of its own and fault.
    MdWithoutMpg {
        /// The qubit.
        qubit: usize,
        /// MPG count seen.
        mpg: usize,
        /// MD count seen.
        md: usize,
    },
}

/// One diagnostic: instruction index (if applicable) plus the finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Index of the offending instruction, if tied to one.
    pub index: Option<usize>,
    /// Severity.
    pub severity: Severity,
    /// The finding.
    pub kind: DiagnosticKind,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        if let Some(i) = self.index {
            write!(f, "{sev} at instruction {i}: ")?;
        } else {
            write!(f, "{sev}: ")?;
        }
        match &self.kind {
            DiagnosticKind::BranchOutOfRange { target, len } => {
                write!(f, "branch target {target} outside program of {len}")
            }
            DiagnosticKind::EmptyProgram => write!(f, "empty program"),
            DiagnosticKind::MissingHalt => {
                write!(f, "no halt on the final path (implicit halt applies)")
            }
            DiagnosticKind::UnalignedWait {
                interval,
                alignment,
            } => write!(
                f,
                "Wait {interval} breaks the {alignment}-cycle SSB alignment: \
                 later pulses rotate about a shifted axis"
            ),
            DiagnosticKind::MdWithoutMpg { qubit, mpg, md } => write!(
                f,
                "qubit {qubit}: {md} MD vs {mpg} MPG — an MD may find no \
                 measurement window"
            ),
        }
    }
}

/// Verifier configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyConfig {
    /// SSB phase alignment in cycles (paper: 50 MHz on a 5 ns cycle = 4).
    /// 0 disables the alignment check.
    pub ssb_alignment_cycles: u32,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        Self {
            ssb_alignment_cycles: 4,
        }
    }
}

/// Runs all static checks, returning the diagnostics (empty = clean).
pub fn verify(program: &Program, cfg: &VerifyConfig) -> Vec<Diagnostic> {
    let insns = program.instructions();
    let mut out = Vec::new();
    if insns.is_empty() {
        out.push(Diagnostic {
            index: None,
            severity: Severity::Error,
            kind: DiagnosticKind::EmptyProgram,
        });
        return out;
    }
    let len = insns.len();
    let mut mpg_per_qubit = [0usize; crate::uop::MAX_MASK_QUBITS];
    let mut md_per_qubit = [0usize; crate::uop::MAX_MASK_QUBITS];
    let mut has_halt = false;
    for (i, insn) in insns.iter().enumerate() {
        match insn {
            Instruction::Beq { target, .. }
            | Instruction::Bne { target, .. }
            | Instruction::Jump { target }
                if *target as usize >= len =>
            {
                out.push(Diagnostic {
                    index: Some(i),
                    severity: Severity::Error,
                    kind: DiagnosticKind::BranchOutOfRange {
                        target: *target,
                        len,
                    },
                });
            }
            Instruction::Halt => has_halt = true,
            Instruction::Wait { interval } => {
                let a = cfg.ssb_alignment_cycles;
                if a > 1 && *interval % a != 0 {
                    out.push(Diagnostic {
                        index: Some(i),
                        severity: Severity::Warning,
                        kind: DiagnosticKind::UnalignedWait {
                            interval: *interval,
                            alignment: a,
                        },
                    });
                }
            }
            Instruction::Mpg { qubits, .. } => {
                for q in qubits.iter() {
                    mpg_per_qubit[q] += 1;
                }
            }
            Instruction::Md { qubits, .. } => {
                for q in qubits.iter() {
                    md_per_qubit[q] += 1;
                }
            }
            _ => {}
        }
    }
    if !has_halt {
        out.push(Diagnostic {
            index: None,
            severity: Severity::Warning,
            kind: DiagnosticKind::MissingHalt,
        });
    }
    for q in 0..crate::uop::MAX_MASK_QUBITS {
        if md_per_qubit[q] > mpg_per_qubit[q] {
            out.push(Diagnostic {
                index: None,
                severity: Severity::Error,
                kind: DiagnosticKind::MdWithoutMpg {
                    qubit: q,
                    mpg: mpg_per_qubit[q],
                    md: md_per_qubit[q],
                },
            });
        }
    }
    out
}

/// True when `verify` reports no errors (warnings allowed).
pub fn is_loadable(program: &Program, cfg: &VerifyConfig) -> bool {
    verify(program, cfg)
        .iter()
        .all(|d| d.severity != Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;

    fn diags(src: &str) -> Vec<Diagnostic> {
        let prog = Assembler::new().assemble(src).expect("assembles");
        verify(&prog, &VerifyConfig::default())
    }

    #[test]
    fn clean_program_is_clean() {
        let d = diags(
            "mov r15, 40000\nQNopReg r15\nPulse {q0}, X180\nWait 4\nMPG {q0}, 300\nMD {q0}, r7\nhalt",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn empty_program_is_an_error() {
        let prog = Program::default();
        let d = verify(&prog, &VerifyConfig::default());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Error);
        assert!(!is_loadable(&prog, &VerifyConfig::default()));
    }

    #[test]
    fn out_of_range_branch_detected() {
        let d = diags("mov r1, 0\nbne r1, r2, 99\nhalt");
        assert!(matches!(
            d[0].kind,
            DiagnosticKind::BranchOutOfRange { target: 99, len: 3 }
        ));
        assert_eq!(d[0].index, Some(1));
    }

    #[test]
    fn unaligned_wait_warned() {
        let d = diags("Wait 5\nPulse {q0}, X90\nWait 4\nhalt");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].severity, Severity::Warning);
        assert!(matches!(
            d[0].kind,
            DiagnosticKind::UnalignedWait {
                interval: 5,
                alignment: 4
            }
        ));
        // Still loadable: warnings don't block.
        let prog = Assembler::new()
            .assemble("Wait 5\nPulse {q0}, X90\nWait 4\nhalt")
            .unwrap();
        assert!(is_loadable(&prog, &VerifyConfig::default()));
    }

    #[test]
    fn alignment_check_can_be_disabled() {
        let prog = Assembler::new().assemble("Wait 5\nhalt").unwrap();
        let d = verify(
            &prog,
            &VerifyConfig {
                ssb_alignment_cycles: 0,
            },
        );
        assert!(d.is_empty());
    }

    #[test]
    fn md_without_mpg_detected() {
        let d = diags("Wait 4\nMD {q2}, r7\nhalt");
        assert!(d.iter().any(|d| matches!(
            d.kind,
            DiagnosticKind::MdWithoutMpg {
                qubit: 2,
                mpg: 0,
                md: 1
            }
        )));
    }

    #[test]
    fn missing_halt_is_a_warning() {
        let d = diags("mov r1, 1");
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0].kind, DiagnosticKind::MissingHalt));
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn diagnostics_display_readably() {
        let d = diags("Wait 5\nhalt");
        let text = d[0].to_string();
        assert!(text.contains("SSB alignment"), "{text}");
        assert!(text.starts_with("warning at instruction 0"));
    }
}

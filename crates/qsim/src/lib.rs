//! # quma-qsim — quantum physics substrate for the QuMA reproduction
//!
//! This crate simulates everything *below* the analog-digital interface of
//! the QuMA microarchitecture (Fu et al., MICRO 2017): transmon qubits,
//! single-qubit gates as Bloch-sphere rotations, T1/T2 decoherence, the
//! dispersive readout resonator, and the heterodyne measurement traces the
//! control electronics digitize.
//!
//! The design goal is that the control stack above (`quma-core`) interacts
//! with this substrate through *exactly* the physical interface the paper
//! describes: complex I/Q sample streams in, analog readout traces out.
//! Timing errors therefore have physical consequences (a 5 ns-late pulse
//! under 50 MHz single-sideband modulation rotates about the wrong axis),
//! which is what makes the AllXY validation experiment meaningful.
//!
//! ## Quick example
//!
//! ```
//! use quma_qsim::prelude::*;
//! use std::f64::consts::PI;
//!
//! // A density matrix starting in |0⟩, driven by an ideal X90 then
//! // measured: 50/50 statistics.
//! let mut rho = DensityMatrix::ground();
//! rho.apply_unitary(&rx(PI / 2.0));
//! assert!((rho.p1() - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod chip;
pub mod clifford;
pub mod complex;
pub mod gates;
pub mod mat2;
pub mod noise;
pub mod normal;
pub mod pair_reference;
pub mod register;
pub mod resonator;
pub mod stabilizer;
pub mod state;
pub mod transmon;
pub mod twoqubit;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::chip::{ChipBackend, ChipQubit, QuantumChip, QubitId};
    pub use crate::clifford::{Clifford, CliffordGroup};
    pub use crate::complex::C64;
    pub use crate::gates::{
        equatorial_pi, hadamard, identity, rotation, rx, ry, rz, Axis, PrimitiveGate,
    };
    pub use crate::mat2::{Mat2, Vec2};
    pub use crate::noise::{Decoherence, NoiseError};
    pub use crate::pair_reference::PairReferenceChip;
    pub use crate::register::{NQubitState, Scratch, MAX_REGISTER_QUBITS};
    pub use crate::resonator::{synthesize_trace, Discriminator, ReadoutParams, ReadoutTrace};
    pub use crate::stabilizer::{StabilizerChip, Tableau, MAX_STABILIZER_QUBITS};
    pub use crate::state::{equator_state, DensityMatrix, StateError};
    pub use crate::transmon::{calibrate_rabi, rotation_from_pulse, Transmon, TransmonParams};
    pub use crate::twoqubit::{Mat4, TwoQubitState};
}

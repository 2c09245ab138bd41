//! The control box as an explicit two-domain pipeline.
//!
//! The paper's central design point (§5.2) is the split between a
//! best-effort *fetch/decode* domain and a *deterministic timing* domain.
//! This module makes that split structural:
//!
//! * [`frontend::Frontend`] — the non-deterministic side: the execution
//!   controller retires auxiliary classical instructions and streams
//!   quantum instructions through the decode FIFO, the physical microcode
//!   unit expands them to QuMIS, and the quantum microinstruction buffer
//!   decomposes QuMIS into labeled micro-operations that fill the timing
//!   control unit's queues as fast as backpressure allows.
//! * [`backend::Backend`] — the deterministic side: the timing control
//!   unit fires events at exact `T_D` cycles, µ-op units expand them to
//!   codeword triggers, CTPGs convert codewords to analog pulses with the
//!   fixed 80 ns delay, the chip evolves, and MDUs integrate each readout
//!   window into a result that writes back across the domain boundary.
//!
//! [`crate::device::Device`] is a thin composition that steps the two
//! domains against a shared host-cycle clock; the only traffic between
//! them is QuMIS microinstructions flowing forward into the timing queues
//! and measurement results flowing back to the register-file scoreboard.

pub mod backend;
pub mod frontend;

pub use backend::Backend;
pub use frontend::Frontend;

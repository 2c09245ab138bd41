//! # quma-experiments — the paper's validation experiments on the QuMA
//! reproduction
//!
//! Section 8: "We have performed various quantum experiments on a qubit to
//! validate and verify the design of QuMA and QuMIS, including T1,
//! T2 Ramsey, T2 Echo, AllXY, and randomized benchmarking." This crate
//! implements all five, each as an OpenQL-style program compiled to QuMIS
//! and executed on the full simulated control box, plus the curve-fitting
//! machinery their analyses need.
//!
//! * [`harness`] — the declarative [`harness::Experiment`] trait and the
//!   generic `run`/`run_parallel` driver every experiment routes through;
//! * [`allxy`] — the Figure 9 staircase with calibration-point rescaling,
//!   the deviation metric, and error-signature injection;
//! * [`t1`], [`ramsey`], [`echo`] — coherence characterization with
//!   exponential / damped-cosine fits;
//! * [`rb`] — pulse-level single-qubit randomized benchmarking;
//! * [`qec`] — the repetition-code QEC workload on the feedback path
//!   (beyond the paper's single-qubit validation);
//! * [`fit`] — Levenberg–Marquardt least squares;
//! * [`stats`] — statistics and record-binning helpers.

#![warn(missing_docs)]

pub mod allxy;
pub mod calibrate;
pub mod echo;
pub mod fit;
pub mod harness;
pub mod qec;
pub mod ramsey;
pub mod rb;
pub mod readout;
pub mod stats;
pub mod sweep;
pub mod t1;

/// Convenient re-exports of the most-used items.
pub mod prelude {
    pub use crate::allxy::{
        analyze as allxy_analyze, build_program as allxy_program, build_session as allxy_session,
        format_table as allxy_table, ideal_fidelity, labels as allxy_labels, pairs as allxy_pairs,
        run as run_allxy, Allxy, AllxyConfig, AllxyResult, PulseError,
    };
    pub use crate::calibrate::{run as run_rabi, Rabi, RabiConfig, RabiResult};
    pub use crate::echo::{run as run_echo, Echo, EchoConfig, EchoResult};
    pub use crate::fit::{
        fit_damped_cosine, fit_exponential_decay, fit_exponential_decay_fixed, fit_rb_decay,
        fit_rb_decay_free, levenberg_marquardt, FitError, FitResult,
    };
    pub use crate::harness::{
        run as run_experiment, run_parallel as run_experiment_parallel, ExecutionMode, Experiment,
        ExperimentError, SweepAxes, SweepPoint,
    };
    pub use crate::qec::{
        fit_logical_fidelity, majority_bit, run as run_qec, run_grid as run_qec_grid,
        run_injected as run_qec_injected, QecCompiled, QecConfig, QecInjected, QecResult,
        QecSampled,
    };
    pub use crate::ramsey::{run as run_ramsey, Ramsey, RamseyConfig, RamseyResult};
    pub use crate::rb::{
        find_single_pulse_clifford, run as run_rb, run_interleaved, InterleavedRbResult, Rb,
        RbConfig, RbResult,
    };
    pub use crate::readout::{
        run as run_readout, Readout, ReadoutConfig, ReadoutPoint, ReadoutResult,
    };
    pub use crate::stats::{
        bit_averages_cyclic_checked, mean, mean_abs_deviation, ones_fraction_pooled, sem, std_dev,
        variance, RecordLayoutError,
    };
    pub use crate::sweep::{bit_averages_cyclic, ones_fraction};
    pub use crate::t1::{run as run_t1, T1Config, T1Result, T1};
}

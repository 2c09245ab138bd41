//! Stabilizer/Pauli-frame fast path: an Aaronson–Gottesman tableau chip
//! that evaluates Clifford + measurement circuits in polynomial time.
//!
//! The repetition-code QEC workload (and most of the paper's validation
//! experiments) is pure Clifford: Y90/X180 pulses, CZ flux pulses,
//! computational-basis measurement, and injected X errors. The exact
//! state-vector chip ([`crate::chip::QuantumChip`]) pays `O(4^k)` for a
//! `k`-qubit coupled register, which caps the repetition code at
//! distance 5; this backend replaces the state with a stabilizer tableau
//! ([Aaronson & Gottesman 2004]) over the existing
//! [`crate::clifford::CliffordGroup`] and scales to distance 25 and
//! thousands of syndrome rounds.
//!
//! Two properties make it a drop-in replacement behind
//! [`crate::chip::ChipBackend`]:
//!
//! * **Drive recognition** — incoming I/Q sample streams are demodulated
//!   with the *same* [`crate::transmon::rotation_from_pulse`] the exact
//!   transmon uses, then matched (up to global phase) against the 24
//!   single-qubit Clifford unitaries. A non-Clifford pulse is a hard
//!   error: this backend cannot represent it, and panicking beats
//!   silently simulating the wrong circuit.
//! * **RNG-stream compatibility** — [`ChipBackend::measure_words`]
//!   consumes the seeded RNG in *exactly* the order the exact chip does
//!   (one uniform draw for the projection, then the raw words of one
//!   Box–Muller pair per two trace samples — or, when the caller asks for
//!   no words, one jump past them), so a shot replayed from a
//!   [`quma` `SeedPlan`] seed produces bit-identical outcome streams and
//!   readout noise (hence traces) on both backends for circuits where
//!   the outcome probabilities agree (they do for Clifford circuits:
//!   every probability is exactly 0, ½, or 1).
//!
//! On top of the tableau the chip keeps an explicit **Pauli error frame**:
//! [`StabilizerChip::inject_x`] / [`StabilizerChip::inject_z`] fold an
//! error operator into the tableau phases in O(n) and record it in a
//! bitmask frame, which is how QEC experiments inject faults without
//! synthesizing pulses.
//!
//! [Aaronson & Gottesman 2004]: https://arxiv.org/abs/quant-ph/0406196

use crate::chip::{draw_readout_words, ChipBackend, ChipQubit, QubitId};
use crate::clifford::CliffordGroup;
use crate::complex::C64;
use crate::mat2::Mat2;
use crate::resonator::ReadoutParams;
use crate::transmon::{rotation_from_pulse, Transmon, TransmonParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum qubit count of the stabilizer backend: rows are single `u64`
/// bit words, which comfortably covers the distance-25 repetition code
/// (49 qubits) this fast path exists for.
pub const MAX_STABILIZER_QUBITS: usize = 64;

/// Tolerance when matching a demodulated drive unitary against the 24
/// Clifford elements (up to global phase). Calibrated pulses land on the
/// group to ~1e-4 — the AWG's 14-bit DAC quantizes each sample to half an
/// LSB (~6e-5), which integrates into that rotation error — while the
/// nearest *wrong* element is a π/4-scale rotation away (~0.5 in this
/// metric), so 1e-3 separates the two regimes with margin on both sides.
const CLIFFORD_MATCH_TOL: f64 = 1e-3;

/// The image of one Hermitian Pauli under conjugation by a Clifford:
/// a signed single-qubit Pauli, encoded as (x, z) bits plus a sign.
#[derive(Debug, Clone, Copy)]
struct PauliImage {
    x: bool,
    z: bool,
    neg: bool,
}

/// Precomputed tableau action of one single-qubit Clifford element:
/// where conjugation sends X, Z, and Y.
#[derive(Debug, Clone, Copy)]
struct CliffordAction {
    x: PauliImage,
    z: PauliImage,
    y: PauliImage,
}

/// Matches `m` against ±X, ±Z, ±Y entry-wise.
fn pauli_image(m: &Mat2) -> Option<PauliImage> {
    let candidates = [
        (Mat2::pauli_x(), true, false),
        (Mat2::pauli_z(), false, true),
        (Mat2::pauli_y(), true, true),
    ];
    for (p, x, z) in candidates {
        if m.approx_eq(&p, CLIFFORD_MATCH_TOL) {
            return Some(PauliImage { x, z, neg: false });
        }
        if m.approx_eq(&p.scale(-1.0), CLIFFORD_MATCH_TOL) {
            return Some(PauliImage { x, z, neg: true });
        }
    }
    None
}

/// Computes the conjugation table `U σ U†` for every group element. The
/// result is phase-free: conjugation cancels the representative's global
/// phase, and a Clifford sends each Hermitian Pauli to a *signed*
/// Hermitian Pauli exactly.
fn clifford_actions(group: &CliffordGroup) -> Vec<CliffordAction> {
    group
        .elements()
        .iter()
        .map(|e| {
            let u = e.matrix();
            let image = |sigma: Mat2| {
                pauli_image(&sigma.conjugate_by(u))
                    .expect("Clifford conjugation maps Paulis to signed Paulis")
            };
            CliffordAction {
                x: image(Mat2::pauli_x()),
                z: image(Mat2::pauli_z()),
                y: image(Mat2::pauli_y()),
            }
        })
        .collect()
}

/// An Aaronson–Gottesman stabilizer tableau over ≤ 64 qubits.
///
/// Rows `0..n` are destabilizer generators, rows `n..2n` stabilizer
/// generators, row `2n` is the scratch row for deterministic
/// measurements. Each row is one X bit word, one Z bit word, and a sign:
/// bit `q` set in `x`/`z` means the row's Pauli has an X/Z factor on
/// qubit `q` (both set = Y, Hermitian convention).
#[derive(Debug, Clone)]
pub struct Tableau {
    n: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    r: Vec<bool>,
}

impl Tableau {
    /// The all-`|0⟩` tableau: destabilizer `i` = `X_i`, stabilizer `i` =
    /// `Z_i`, all signs positive.
    pub fn new(n: usize) -> Self {
        assert!(
            (1..=MAX_STABILIZER_QUBITS).contains(&n),
            "stabilizer tableau supports 1..={MAX_STABILIZER_QUBITS} qubits, got {n}"
        );
        let mut t = Self {
            n,
            x: vec![0; 2 * n + 1],
            z: vec![0; 2 * n + 1],
            r: vec![false; 2 * n + 1],
        };
        t.reset();
        t
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Returns every qubit to `|0⟩`.
    pub fn reset(&mut self) {
        for i in 0..self.n {
            self.x[i] = 1 << i;
            self.z[i] = 0;
            self.x[self.n + i] = 0;
            self.z[self.n + i] = 1 << i;
        }
        self.x[2 * self.n] = 0;
        self.z[2 * self.n] = 0;
        self.r.fill(false);
    }

    /// Accumulates row `i` into the external row `(xh, zh, rh)`: the
    /// Aaronson–Gottesman `rowsum`, tracking the power of `i` the Pauli
    /// product picks up so the result stays Hermitian with a ± sign.
    fn rowsum_acc(&self, i: usize, xh: &mut u64, zh: &mut u64, rh: &mut bool) {
        let (xi, zi) = (self.x[i], self.z[i]);
        let mut sum: i32 = 2 * i32::from(*rh) + 2 * i32::from(self.r[i]);
        let mut bits = xi | zi;
        while bits != 0 {
            let q = bits.trailing_zeros();
            bits &= bits - 1;
            let x1 = (xi >> q) & 1;
            let z1 = (zi >> q) & 1;
            let x2 = (*xh >> q) & 1 != 0;
            let z2 = (*zh >> q) & 1 != 0;
            // The g-function: the exponent of i contributed by
            // multiplying row i's Pauli factor into row h's at qubit q.
            sum += match (x1, z1) {
                (0, 0) => 0,
                (1, 1) => i32::from(z2) - i32::from(x2),
                (1, 0) => i32::from(z2) * (2 * i32::from(x2) - 1),
                (0, 1) => i32::from(x2) * (1 - 2 * i32::from(z2)),
                _ => unreachable!(),
            };
        }
        debug_assert_eq!(sum.rem_euclid(2), 0, "products of rows stay Hermitian");
        *rh = sum.rem_euclid(4) == 2;
        *xh ^= xi;
        *zh ^= zi;
    }

    /// `rowsum` in place: row `h` *= row `i`.
    fn rowsum(&mut self, h: usize, i: usize) {
        let (mut xh, mut zh, mut rh) = (self.x[h], self.z[h], self.r[h]);
        self.rowsum_acc(i, &mut xh, &mut zh, &mut rh);
        self.x[h] = xh;
        self.z[h] = zh;
        self.r[h] = rh;
    }

    /// Applies a precomputed single-qubit Clifford action to qubit `a`.
    fn apply_action(&mut self, act: &CliffordAction, a: usize) {
        let bit = 1u64 << a;
        for row in 0..2 * self.n {
            let img = match ((self.x[row] & bit != 0), (self.z[row] & bit != 0)) {
                (false, false) => continue,
                (true, false) => &act.x,
                (false, true) => &act.z,
                (true, true) => &act.y,
            };
            self.x[row] = (self.x[row] & !bit) | (u64::from(img.x) << a);
            self.z[row] = (self.z[row] & !bit) | (u64::from(img.z) << a);
            self.r[row] ^= img.neg;
        }
    }

    /// Applies CZ between qubits `a` and `b`: `X_a → X_a Z_b`,
    /// `X_b → X_b Z_a`, Z's fixed; the sign flips exactly when the row
    /// holds `X` on one operand and `Y` on the other
    /// (`CZ (X⊗Y) CZ = −Y⊗X`).
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        assert!(a != b, "cannot apply CZ to a qubit and itself");
        let (ba, bb) = (1u64 << a, 1u64 << b);
        for row in 0..2 * self.n {
            let xa = self.x[row] & ba != 0;
            let xb = self.x[row] & bb != 0;
            let za = self.z[row] & ba != 0;
            let zb = self.z[row] & bb != 0;
            if xa && xb && (za ^ zb) {
                self.r[row] = !self.r[row];
            }
            if xb {
                self.z[row] ^= ba;
            }
            if xa {
                self.z[row] ^= bb;
            }
        }
    }

    /// Conjugates the state by `X_a` (an injected bit-flip error): rows
    /// anticommuting with `X_a` — those with a Z factor on `a` — flip
    /// sign.
    pub fn apply_x(&mut self, a: usize) {
        let bit = 1u64 << a;
        for row in 0..2 * self.n {
            if self.z[row] & bit != 0 {
                self.r[row] = !self.r[row];
            }
        }
    }

    /// Conjugates the state by `Z_a` (an injected phase-flip error).
    pub fn apply_z(&mut self, a: usize) {
        let bit = 1u64 << a;
        for row in 0..2 * self.n {
            if self.x[row] & bit != 0 {
                self.r[row] = !self.r[row];
            }
        }
    }

    /// The predetermined Z-measurement outcome of qubit `a`, or `None`
    /// when the outcome is uniformly random (some stabilizer
    /// anticommutes with `Z_a`). Does not mutate the tableau.
    pub fn deterministic_outcome(&self, a: usize) -> Option<u8> {
        let bit = 1u64 << a;
        if (self.n..2 * self.n).any(|p| self.x[p] & bit != 0) {
            return None;
        }
        let (mut sx, mut sz, mut sr) = (0u64, 0u64, false);
        for i in 0..self.n {
            if self.x[i] & bit != 0 {
                self.rowsum_acc(self.n + i, &mut sx, &mut sz, &mut sr);
            }
        }
        Some(u8::from(sr))
    }

    /// Measures qubit `a` in the Z basis, resolving a random outcome
    /// with the uniform draw `u ∈ [0, 1)` exactly as the exact chip's
    /// `u < p1` comparison does (random outcomes have `p1 = ½`).
    pub fn measure_with(&mut self, a: usize, u: f64) -> u8 {
        let bit = 1u64 << a;
        match (self.n..2 * self.n).find(|&p| self.x[p] & bit != 0) {
            Some(p) => {
                let outcome = u8::from(u < 0.5);
                // Skip row p and its paired destabilizer p − n: the pair
                // anticommutes (their product would be anti-Hermitian,
                // breaking rowsum's sign bookkeeping), and the row is
                // overwritten with row p below regardless.
                for i in 0..2 * self.n {
                    if i != p && i + self.n != p && self.x[i] & bit != 0 {
                        self.rowsum(i, p);
                    }
                }
                self.x[p - self.n] = self.x[p];
                self.z[p - self.n] = self.z[p];
                self.r[p - self.n] = self.r[p];
                self.x[p] = 0;
                self.z[p] = bit;
                self.r[p] = outcome == 1;
                outcome
            }
            None => self
                .deterministic_outcome(a)
                .expect("no anticommuting stabilizer: outcome is determined"),
        }
    }
}

/// A stabilizer-backed chip implementing [`ChipBackend`]: Clifford-only,
/// decoherence-free, polynomial-time, RNG-stream compatible with the
/// exact [`crate::chip::QuantumChip`].
///
/// Each qubit still carries a [`ChipQubit`] so pulse calibration
/// (Rabi coefficient, SSB frequency) and readout-trace synthesis use the
/// same parameters as the exact backend — but the transmon's density
/// matrix is inert here; the tableau owns the quantum state. Decoherence
/// and detuning parameters are ignored: this backend only models the
/// ideal-device profile.
#[derive(Debug, Clone)]
pub struct StabilizerChip {
    qubits: Vec<ChipQubit>,
    tableau: Tableau,
    actions: Vec<CliffordAction>,
    group: CliffordGroup,
    /// Accumulated injected-X frame, bit per qubit.
    frame_x: u64,
    /// Accumulated injected-Z frame, bit per qubit.
    frame_z: u64,
    rng: StdRng,
    measurements: u64,
}

impl StabilizerChip {
    /// An `n`-qubit ideal-profile stabilizer device: ideal transmon
    /// parameters, noiseless readout, all qubits in `|0⟩`.
    pub fn ideal_device(n: usize, seed: u64) -> Self {
        let group = CliffordGroup::generate();
        let actions = clifford_actions(&group);
        Self {
            qubits: (0..n)
                .map(|_| ChipQubit {
                    transmon: Transmon::new(TransmonParams::ideal()),
                    readout: ReadoutParams::noiseless(),
                })
                .collect(),
            tableau: Tableau::new(n),
            actions,
            group,
            frame_x: 0,
            frame_z: 0,
            rng: StdRng::seed_from_u64(seed),
            measurements: 0,
        }
    }

    /// The 24-element Clifford group backing drive recognition.
    pub fn group(&self) -> &CliffordGroup {
        &self.group
    }

    /// Direct tableau access (inspection and tests).
    pub fn tableau(&self) -> &Tableau {
        &self.tableau
    }

    /// Applies the group element with the given index to qubit `id`
    /// directly, bypassing pulse synthesis — the fast path for error
    /// frames and Clifford-sequence experiments.
    pub fn apply_clifford(&mut self, id: QubitId, index: usize) {
        let act = self.actions[index];
        self.tableau.apply_action(&act, id);
    }

    /// Injects an X (bit-flip) error on qubit `id` and records it in the
    /// Pauli frame.
    pub fn inject_x(&mut self, id: QubitId) {
        self.tableau.apply_x(id);
        self.frame_x ^= 1 << id;
    }

    /// Injects a Z (phase-flip) error on qubit `id` and records it in
    /// the Pauli frame.
    pub fn inject_z(&mut self, id: QubitId) {
        self.tableau.apply_z(id);
        self.frame_z ^= 1 << id;
    }

    /// The accumulated injected-X frame (bit `q` set = an odd number of
    /// X errors injected on qubit `q` since the last reset).
    pub fn frame_x(&self) -> u64 {
        self.frame_x
    }

    /// The accumulated injected-Z frame.
    pub fn frame_z(&self) -> u64 {
        self.frame_z
    }
}

impl ChipBackend for StabilizerChip {
    fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    fn qubit(&self, id: QubitId) -> &ChipQubit {
        &self.qubits[id]
    }

    fn qubit_mut(&mut self, id: QubitId) -> &mut ChipQubit {
        &mut self.qubits[id]
    }

    fn measurement_count(&self) -> u64 {
        self.measurements
    }

    fn reseed(&mut self, seed: u64) {
        self.rng = StdRng::seed_from_u64(seed);
        self.measurements = 0;
    }

    fn reset_all(&mut self, _at: f64) {
        self.tableau.reset();
        self.frame_x = 0;
        self.frame_z = 0;
    }

    fn p1(&self, id: QubitId) -> f64 {
        match self.tableau.deterministic_outcome(id) {
            Some(outcome) => f64::from(outcome),
            None => 0.5,
        }
    }

    fn apply_cz(&mut self, a: QubitId, b: QubitId, _at: f64, _duration: f64) {
        self.tableau.apply_cz(a, b);
    }

    fn drive(&mut self, id: QubitId, samples: &[C64], start: f64, dt: f64) {
        let u = rotation_from_pulse(self.qubits[id].transmon.params(), samples, start, dt);
        let index = self
            .group
            .elements()
            .iter()
            .position(|e| e.matrix().approx_eq_up_to_phase(&u, CLIFFORD_MATCH_TOL));
        match index {
            Some(i) => self.apply_clifford(id, i),
            None => panic!(
                "stabilizer backend: drive on qubit {id} at t={start} is not a \
                 Clifford unitary (demodulated rotation matches no group element); \
                 use ChipProfile::Ideal or ChipProfile::Paper for non-Clifford circuits"
            ),
        }
    }

    fn measure_words(
        &mut self,
        id: QubitId,
        _start: f64,
        duration: f64,
        words: Option<&mut Vec<u64>>,
    ) -> u8 {
        // Mirror QuantumChip's RNG consumption exactly: one uniform draw
        // before the projection, then the window's readout-noise words
        // (drawn or jumped past). This is what keeps seeded shots bit-identical
        // across backends.
        self.measurements += 1;
        let u: f64 = self.rng.random();
        let outcome = self.tableau.measure_with(id, u);
        draw_readout_words(&mut self.rng, &self.qubits[id].readout, duration, words);
        outcome
    }

    fn clone_box(&self) -> Box<dyn ChipBackend> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::QuantumChip;
    use std::f64::consts::PI;

    fn chip(n: usize, seed: u64) -> StabilizerChip {
        let mut c = StabilizerChip::ideal_device(n, seed);
        for i in 0..n {
            c.qubit_mut(i).transmon.params_mut().rabi_coefficient = PI / 20e-9;
        }
        c
    }

    fn ssb_pulse(amp: f64, phase: f64, ssb: f64, start: f64) -> Vec<C64> {
        (0..20)
            .map(|k| {
                let t = start + (k as f64 + 0.5) * 1e-9;
                C64::from_polar(amp, -2.0 * PI * ssb * t + phase)
            })
            .collect()
    }

    fn x180(c: &mut dyn ChipBackend, q: usize, t0: f64) {
        let ssb = c.qubit(q).transmon.params().ssb_frequency;
        let pulse = ssb_pulse(1.0, 0.0, ssb, t0);
        c.drive(q, &pulse, t0, 1e-9);
    }

    fn y90(c: &mut dyn ChipBackend, q: usize, t0: f64, sign: f64) {
        let ssb = c.qubit(q).transmon.params().ssb_frequency;
        let pulse = ssb_pulse(0.5, sign * PI / 2.0, ssb, t0);
        c.drive(q, &pulse, t0, 1e-9);
    }

    #[test]
    fn every_clifford_has_a_pauli_action() {
        let group = CliffordGroup::generate();
        let actions = clifford_actions(&group);
        assert_eq!(actions.len(), 24);
        // The identity fixes all three Paulis with positive sign.
        let id = &actions[0];
        for (img, x, z) in [(id.x, true, false), (id.z, false, true), (id.y, true, true)] {
            assert_eq!((img.x, img.z, img.neg), (x, z, false));
        }
    }

    #[test]
    fn ground_state_measures_zero_deterministically() {
        let mut c = chip(2, 7);
        assert_eq!(c.tableau().deterministic_outcome(0), Some(0));
        let (_, bit) = c.measure_with_truth(0, 0.0, 0.3e-6);
        assert_eq!(bit, 0);
    }

    #[test]
    fn x180_flips_the_outcome() {
        let mut c = chip(1, 7);
        x180(&mut c, 0, 0.0);
        assert_eq!(c.tableau().deterministic_outcome(0), Some(1));
        assert_eq!(c.p1(0), 1.0);
    }

    #[test]
    fn y90_makes_the_outcome_random_and_projection_sticks() {
        let mut c = chip(1, 3);
        y90(&mut c, 0, 0.0, 1.0);
        assert_eq!(c.tableau().deterministic_outcome(0), None);
        assert_eq!(c.p1(0), 0.5);
        let (_, first) = c.measure_with_truth(0, 20e-9, 0.3e-6);
        let (_, second) = c.measure_with_truth(0, 0.4e-6, 0.3e-6);
        assert_eq!(first, second, "repeated measurement is deterministic");
    }

    #[test]
    fn parity_check_reads_data_parity_and_leaves_data_alone() {
        // Mirror of the exact chip's test: d0=|1⟩, ancilla, d1=|0⟩;
        // mY90(a), CZ(d0,a), CZ(d1,a), Y90(a) → ancilla = d0⊕d1 = 1.
        let mut c = chip(3, 21);
        x180(&mut c, 0, 0.0);
        y90(&mut c, 1, 30e-9, -1.0);
        c.apply_cz(0, 1, 60e-9, 40e-9);
        c.apply_cz(2, 1, 110e-9, 40e-9);
        y90(&mut c, 1, 160e-9, 1.0);
        assert_eq!(c.p1(1), 1.0, "ancilla = parity 1");
        let (_, syndrome) = c.measure_with_truth(1, 200e-9, 0.3e-6);
        assert_eq!(syndrome, 1);
        assert_eq!(c.p1(0), 1.0);
        assert_eq!(c.p1(2), 0.0);
    }

    #[test]
    fn ghz_outcomes_are_perfectly_correlated() {
        for seed in [3u64, 5, 8, 13] {
            let mut c = chip(3, seed);
            y90(&mut c, 0, 0.0, 1.0);
            for (ctrl, tgt, t0) in [(0usize, 1usize, 30e-9), (1, 2, 180e-9)] {
                y90(&mut c, tgt, t0, -1.0);
                c.apply_cz(ctrl, tgt, t0 + 30e-9, 40e-9);
                y90(&mut c, tgt, t0 + 80e-9, 1.0);
            }
            let (_, b0) = c.measure_with_truth(0, 400e-9, 0.3e-6);
            let (_, b1) = c.measure_with_truth(1, 800e-9, 0.3e-6);
            let (_, b2) = c.measure_with_truth(2, 1200e-9, 0.3e-6);
            assert_eq!(b0, b1, "seed {seed}");
            assert_eq!(b1, b2, "seed {seed}");
        }
    }

    #[test]
    fn injected_x_flips_outcome_and_tracks_the_frame() {
        let mut c = chip(2, 9);
        c.inject_x(1);
        assert_eq!(c.frame_x(), 0b10);
        assert_eq!(c.tableau().deterministic_outcome(1), Some(1));
        c.inject_x(1);
        assert_eq!(c.frame_x(), 0, "even error count cancels in the frame");
        assert_eq!(c.tableau().deterministic_outcome(1), Some(0));
    }

    #[test]
    fn injected_z_flips_superposition_phase() {
        // |+⟩ with a Z error measures like |−⟩: Y90 back rotates to |1⟩.
        let mut c = chip(1, 9);
        y90(&mut c, 0, 0.0, 1.0);
        c.inject_z(0);
        assert_eq!(c.frame_z(), 0b1);
        y90(&mut c, 0, 30e-9, -1.0);
        assert_eq!(c.tableau().deterministic_outcome(0), Some(1));
    }

    #[test]
    fn reset_restores_ground_and_clears_frames() {
        let mut c = chip(2, 11);
        x180(&mut c, 0, 0.0);
        c.inject_x(1);
        c.reset_all(0.0);
        assert_eq!(c.tableau().deterministic_outcome(0), Some(0));
        assert_eq!(c.tableau().deterministic_outcome(1), Some(0));
        assert_eq!((c.frame_x(), c.frame_z()), (0, 0));
    }

    #[test]
    fn p1_does_not_consume_rng() {
        let mut a = chip(1, 5);
        let mut b = chip(1, 5);
        y90(&mut a, 0, 0.0, 1.0);
        y90(&mut b, 0, 0.0, 1.0);
        for _ in 0..10 {
            let _ = a.p1(0);
        }
        let (ta, oa) = a.measure_with_truth(0, 20e-9, 0.3e-6);
        let (tb, ob) = b.measure_with_truth(0, 20e-9, 0.3e-6);
        assert_eq!(oa, ob);
        assert_eq!(ta.samples, tb.samples);
    }

    #[test]
    fn rng_stream_matches_the_exact_chip() {
        // Same seed, same circuit, same measurement schedule: outcome
        // bits *and* analog traces agree bit-for-bit with the exact
        // state-vector chip.
        for seed in [1u64, 17, 99] {
            let mut exact = QuantumChip::ideal_device(3, seed);
            let mut fast = chip(3, seed);
            for i in 0..3 {
                exact.qubit_mut(i).transmon.params_mut().rabi_coefficient = PI / 20e-9;
            }
            y90(&mut exact, 0, 0.0, 1.0);
            y90(&mut fast, 0, 0.0, 1.0);
            x180(&mut exact, 1, 0.0);
            x180(&mut fast, 1, 0.0);
            exact.apply_cz(0, 1, 30e-9, 40e-9);
            fast.apply_cz(0, 1, 30e-9, 40e-9);
            for (q, t0) in [(0usize, 100e-9), (1, 500e-9), (2, 900e-9)] {
                let (te, oe) = exact.measure_with_truth(q, t0, 0.3e-6);
                let (tf, of) = fast.measure_with_truth(q, t0, 0.3e-6);
                assert_eq!(oe, of, "seed {seed} qubit {q}");
                assert_eq!(te.samples, tf.samples, "seed {seed} qubit {q}");
            }
        }
    }

    #[test]
    fn measurement_handles_every_single_qubit_clifford_state() {
        // Regression: when the destabilizer paired with the measured
        // stabilizer also carries an X factor on the qubit, the AG rowsum
        // would multiply two anticommuting rows (an anti-Hermitian
        // product) before the row is overwritten anyway — the loop must
        // skip that row. Every group element exercises some (stab,
        // destab) pair; repeat the measurement to cover the post-collapse
        // tableau too.
        for c in 0..24 {
            let mut chip = chip(1, 42);
            chip.apply_clifford(0, c);
            let (_, first) = chip.measure_with_truth(0, 0.0, 0.1e-6);
            let (_, second) = chip.measure_with_truth(0, 0.3e-6, 0.1e-6);
            assert_eq!(first, second, "element {c}: collapse must stick");
        }
    }

    #[test]
    #[should_panic(expected = "not a Clifford unitary")]
    fn non_clifford_drive_panics() {
        let mut c = chip(1, 1);
        let ssb = c.qubit(0).transmon.params().ssb_frequency;
        // A π/3 rotation is not in the 24-element group.
        let pulse = ssb_pulse(1.0 / 3.0, 0.0, ssb, 0.0);
        c.drive(0, &pulse, 0.0, 1e-9);
    }

    #[test]
    fn distance25_scale_measurements_stay_fast_and_consistent() {
        // 49 qubits (d=25 repetition code) with repeated parity checks:
        // the tableau handles it without blowing up, and weight-1 X
        // errors show on exactly the adjacent syndromes.
        let mut c = chip(49, 2);
        c.inject_x(24); // data qubit 12 (even chain position 24)
        for anc in [23usize, 25] {
            y90(&mut c, anc, 0.0, -1.0);
            c.apply_cz(anc - 1, anc, 0.0, 0.0);
            c.apply_cz(anc + 1, anc, 0.0, 0.0);
            y90(&mut c, anc, 0.0, 1.0);
            let (_, s) = c.measure_with_truth(anc, 0.0, 0.1e-6);
            assert_eq!(s, 1, "ancilla {anc} sees the flip");
        }
        let (_, far) = c.measure_with_truth(1, 0.0, 0.1e-6);
        assert_eq!(far, 0, "distant ancilla unaffected");
    }
}

//! Box–Muller standard normals over raw RNG words.
//!
//! A readout window's noise is defined, sample for sample, by the exact
//! libm Box–Muller transform [`box_muller`] over consecutive pairs of the
//! chip's raw `u64` RNG words (the uniforms `rand`'s `random::<f64>()`
//! draws from them). [`box_muller_fast`] computes the same pair from
//! tables, without a libm call, and stays within [`FAST_ERROR`] of it on
//! every pair of words. The measurement discrimination unit settles each
//! sample's ADC code from the fast pair and calls the exact one only when
//! that error bracket straddles a code edge (see `quma_core::mdu`).
//!
//! ## The error bound
//!
//! The exact pair is `(r·cos θ, r·sin θ)` with `r = √(−2 ln u₁)`,
//! `u₁ ≥ f64::MIN_POSITIVE`, and `θ = 2π·u₂` rounded once. The fast pair
//! uses the same `θ`, a correctly rounded `sqrt`, and:
//!
//! * `ln u₁ = K·ln 2 + ln c + ln(1 + ρ)`: the exponent `K` and the 8-bit
//!   nearest table point `c = 1 + j/256` come from `u₁`'s bits (a
//!   mantissa that rounds up to 2 carries into `K`, so `u₁` near 1 is
//!   `ln(1 + ρ)` alone, with no cancellation); `ρ = (f − c)/c` with
//!   `f − c` exact, `|ρ| ≤ 2⁻⁹`, and a degree-5 series (truncation below
//!   `ρ⁶/6 < 2⁻⁵⁶`); `ln 2` is split so `K·ln 2` keeps full precision;
//! * `cos θ`, `sin θ` from a 1 025-entry table at the f64 points
//!   `a = j·2π/1024` and the angle-sum formulas over `δ = θ − a`, which is
//!   exact (Sterbenz) and at most `π/1024` in magnitude, with degree-4 and
//!   degree-5 corrections (truncation below `2⁻⁵⁹`).
//!
//! Each fast result is within a few units in the last place of the true
//! value, as libm's `ln`, `sin` and `cos` are (glibc documents at most
//! one). An error `ε` in `ln u₁` moves `r` by `ε/r`, and `ε` scales with
//! `ln u₁ = −r²/2`, so through `r ≤ √(−2 ln f64::MIN_POSITIVE) ≈ 37.6`
//! the two pairs differ by less than about `3·10⁻¹⁴` in each component.
//! [`FAST_ERROR`] `= 2⁻⁴⁰ ≈ 9.1·10⁻¹³` is over 30 times that budget. The
//! largest distance measured is `1.8·10⁻¹⁵` over 2·10⁷ random pairs and
//! `3.6·10⁻¹⁵` over every octave of `u₁` (largest where `u₁` is
//! smallest), 256 times below `E`. A unit test pins a margin of at least
//! 128 over 2·10⁶ random pairs, every table edge, every octave and the
//! extreme words.

use std::f64::consts::PI;
use std::sync::LazyLock;

/// The largest distance between [`box_muller_fast`] and [`box_muller`]
/// in either component, over every pair of words: `2⁻⁴⁰`.
pub const FAST_ERROR: f64 = 1.0 / (1u64 << 40) as f64;

/// The uniform in `[0, 1)` that `rand`'s `random::<f64>()` draws from
/// `word`: its 53 high bits over `2⁵³`.
#[inline]
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The exact Box–Muller pair of standard normals from two raw RNG words:
/// `r·cos θ` (a window's earlier sample) then `r·sin θ`, through libm.
/// This is the readout-noise definition every backend and every path
/// reproduces bit for bit.
#[inline]
pub fn box_muller(w1: u64, w2: u64) -> [f64; 2] {
    let u1 = unit(w1).max(f64::MIN_POSITIVE);
    let u2 = unit(w2);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * PI * u2;
    [r * theta.cos(), r * theta.sin()]
}

/// Intervals of the `ln` table over a mantissa in `[1, 2)`.
const LN_STEPS: usize = 256;
/// Intervals of the angle table over `[0, 2π]`.
const ANGLE_STEPS: usize = 1024;
/// `ln 2` split so `K·LN2_HI` is exact for any f64 exponent `K`.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// The angle-table spacing `2π/1024` (a power-of-two division: exact).
const ANGLE_STEP: f64 = 2.0 * PI / ANGLE_STEPS as f64;

/// The fast pair's tables (about 20 KB), built once per process.
struct Tables {
    /// `[ln c, 1/c]` at `c = 1 + j/256`.
    ln: [[f64; 2]; LN_STEPS],
    /// `[cos a, sin a]` at the f64 points `a = j·ANGLE_STEP`, `j ≤ 1024`.
    angle: [[f64; 2]; ANGLE_STEPS + 1],
}

static TABLES: LazyLock<Tables> = LazyLock::new(|| Tables {
    ln: std::array::from_fn(|j| {
        let c = 1.0 + j as f64 / LN_STEPS as f64;
        [c.ln(), 1.0 / c]
    }),
    angle: std::array::from_fn(|j| {
        let a = j as f64 * ANGLE_STEP;
        [a.cos(), a.sin()]
    }),
});

/// The Box–Muller pair of [`box_muller`] from tables and a hardware
/// `sqrt`, without libm: within [`FAST_ERROR`] of it in each component
/// (see the module docs).
#[inline]
pub fn box_muller_fast(w1: u64, w2: u64) -> [f64; 2] {
    let t: &Tables = &TABLES;
    // `unit(w1).max(f64::MIN_POSITIVE)`, without the NaN-aware `max`.
    let u1 = match w1 >> 11 {
        0 => f64::MIN_POSITIVE,
        _ => unit(w1),
    };
    // Round the mantissa to its top 8 bits; a carry moves into the
    // exponent, leaving j = 0. Then f = u1·2^-k and c = 1 + j/256.
    let rounded = u1.to_bits() + (1 << 43);
    let k = (rounded >> 52) as i64 - 1023;
    let j = (rounded >> 44) & 0xFF;
    let f = f64::from_bits(u1.to_bits().wrapping_sub((k as u64) << 52));
    let c = f64::from_bits(1.0f64.to_bits() | j << 44);
    let [ln_c, inv_c] = t.ln[j as usize];
    let rho = (f - c) * inv_c;
    let log1p = rho + rho * rho * (-0.5 + rho * (1.0 / 3.0 + rho * (-0.25 + rho * 0.2)));
    let k = k as f64;
    let ln_u1 = (k * LN2_HI + ln_c) + (k * LN2_LO + log1p);
    let r = (-2.0 * ln_u1).sqrt();

    // The nearest table angle to θ = 2π·u2, from u2's 53 bits.
    let theta = 2.0 * PI * unit(w2);
    let i = ((w2 >> 11) + (1 << 42)) >> 43;
    let delta = theta - i as f64 * ANGLE_STEP;
    let [cos_a, sin_a] = t.angle[i as usize];
    let d2 = delta * delta;
    let cos_d_minus_1 = d2 * (-0.5 + d2 * (1.0 / 24.0));
    let sin_d = delta + delta * d2 * (-1.0 / 6.0 + d2 * (1.0 / 120.0));
    let cos = cos_a + (cos_a * cos_d_minus_1 - sin_a * sin_d);
    let sin = sin_a + (sin_a * cos_d_minus_1 + cos_a * sin_d);
    [r * cos, r * sin]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// The words whose 53 high bits are `m`.
    fn word(m: u64) -> u64 {
        m << 11
    }

    /// Extreme and table-edge words: the smallest, next-smallest and
    /// largest uniforms, every `ln` table midpoint of `u₁ ∈ [½, 1)` and
    /// of a small octave, and every angle table midpoint (±1 ulp).
    fn edge_words() -> Vec<u64> {
        let top = (1u64 << 53) - 1;
        let mut ms = vec![0, 1, 2, 3, top, top - 1, 1 << 52, (1 << 52) - 1];
        for j in 0..=LN_STEPS as u64 {
            for base in [1u64 << 52, 1 << 9] {
                let mid = base + (base * (2 * j + 1)) / (2 * LN_STEPS as u64);
                ms.extend([mid.saturating_sub(1), mid, mid + 1].map(|m| m.min(top)));
            }
        }
        for i in 0..=ANGLE_STEPS as u64 {
            let mid = ((2 * i + 1) << 53) / (2 * ANGLE_STEPS as u64);
            ms.extend([mid.saturating_sub(1), mid, mid + 1].map(|m| m.min(top)));
        }
        ms.into_iter().map(word).collect()
    }

    fn distance(w1: u64, w2: u64) -> f64 {
        let exact = box_muller(w1, w2);
        let fast = box_muller_fast(w1, w2);
        (exact[0] - fast[0]).abs().max((exact[1] - fast[1]).abs())
    }

    #[test]
    fn fast_pair_stays_far_inside_the_certified_error() {
        let mut rng = StdRng::seed_from_u64(0xB0C5);
        let mut worst = 0.0f64;
        for _ in 0..2_000_000 {
            worst = worst.max(distance(rng.next_u64(), rng.next_u64()));
        }
        let edges = edge_words();
        for &w1 in &edges {
            for w2 in [edges[0], edges[4], rng.next_u64()] {
                worst = worst.max(distance(w1, w2)).max(distance(w2, w1));
            }
        }
        for &w2 in &edges {
            worst = worst.max(distance(rng.next_u64(), w2));
        }
        // Every octave of u₁, down to 2⁻⁵³ (where r is largest but for
        // the clamped word 0).
        for octave in 0..53 {
            for _ in 0..2_000 {
                let m = 1 << octave | rng.next_u64() & ((1 << octave) - 1);
                worst = worst.max(distance(word(m), rng.next_u64()));
            }
        }
        assert!(worst > 0.0, "the fast pair is an approximation");
        assert!(
            worst <= FAST_ERROR / 128.0,
            "measured {worst:e}, budgeted 3e-14, certified {FAST_ERROR:e}"
        );
    }

    #[test]
    fn extreme_words_give_the_extreme_normals() {
        let zero = box_muller(0, 0);
        let largest = (-2.0 * f64::MIN_POSITIVE.ln()).sqrt();
        assert_eq!(zero, [largest, 0.0]);
        let near_one = box_muller(u64::MAX, 0);
        assert!(near_one[0] > 0.0 && near_one[0] < 1e-7);
        for (w1, w2) in [(0, 0), (u64::MAX, u64::MAX), (0, u64::MAX), (1 << 11, 0)] {
            assert!(distance(w1, w2) <= FAST_ERROR / 100.0, "{w1:#x}, {w2:#x}");
        }
    }

    #[test]
    fn exact_pair_is_the_rng_box_muller_stream() {
        // The definition the readout golden digests were recorded from:
        // two `random::<f64>()` uniforms per pair, cosine first.
        let mut words = StdRng::seed_from_u64(7);
        let mut uniforms = words.clone();
        for _ in 0..10_000 {
            let pair = box_muller(words.next_u64(), words.next_u64());
            let u1: f64 = uniforms.random::<f64>().max(f64::MIN_POSITIVE);
            let u2: f64 = uniforms.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * PI * u2;
            assert_eq!(pair[0].to_bits(), (r * theta.cos()).to_bits());
            assert_eq!(pair[1].to_bits(), (r * theta.sin()).to_bits());
        }
    }
}

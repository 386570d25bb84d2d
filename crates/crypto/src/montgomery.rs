//! Montgomery-form modular arithmetic on 64-bit limbs: the engine behind
//! [`BigUint::mod_pow`](crate::bignum::BigUint::mod_pow), RSA and DSA.
//!
//! A [`MontgomeryContext`] fixes an odd modulus `n` of `k` 64-bit limbs up
//! front (two divisions, for `R mod n` and `R² mod n`, `R = 2^(64k)`) and
//! replaces every reduction with a Montgomery multiplication (Montgomery
//! 1985) in the CIOS form of Koç, Acar & Kaliski (1996): per limb of one
//! operand, add it times the other and the multiple of `n` that clears the
//! low limb, in one inner loop that writes each limb one place down —
//! `u128` products, one conditional subtraction at the end, no division.
//! [`BigUint`] keeps its `u32` limbs: an exponentiation converts on entry
//! and on exit and runs in one scratch buffer ([`with_scratch`]), on the
//! stack up to 1,024-bit moduli, so no multiplication allocates.
//!
//! Exponentiation walks the exponent in 4-bit windows over a 16-entry
//! powers table — or, when it fits one `u32` limb (RSA's public exponent),
//! in 1-bit windows: plain square-and-multiply, since a table would cost
//! more than the whole exponentiation. [`FixedBaseTable`] materializes all
//! powers `base^(d·16^j)` of a reused base (DSA's `g` and `y`, shared by
//! signing's `g^k` and verification) once, leaving one multiply per 4
//! exponent bits.
//!
//! It runs once per signature on the server's request path, so it is held
//! to the service's no-panic rule: the attribute below makes clippy refuse
//! `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` and direct slice
//! indexing outside tests.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo))]
#![cfg_attr(not(test), deny(clippy::unimplemented, clippy::indexing_slicing))]

use crate::bignum::BigUint;

/// Exponent window width in bits.
const WINDOW_BITS: usize = 4;
/// Entries per window table (`2^WINDOW_BITS`).
const WINDOW_SIZE: usize = 1 << WINDOW_BITS;
/// Limbs of stack scratch: a window table, an accumulator and a product
/// for a 1,024-bit (16-limb) modulus, the widest any caller here uses.
const STACK_LIMBS: usize = (WINDOW_SIZE + 2) * 16;

/// Runs `f` on `len` zeroed limbs: on the stack when they fit
/// [`STACK_LIMBS`], on the heap past it — the same code either way.
pub(crate) fn with_scratch<T>(len: usize, f: impl FnOnce(&mut [u64]) -> T) -> T {
    let mut stack = [0u64; STACK_LIMBS];
    match stack.get_mut(..len) {
        Some(scratch) => f(scratch),
        None => f(&mut vec![0; len]),
    }
}

/// `x` as little-endian `u64` limbs into `out`, zero above; `x` must fit.
fn load(x: &BigUint, out: &mut [u64]) {
    out.fill(0);
    for (limb, pair) in out.iter_mut().zip(x.limbs().chunks(2)) {
        *limb = pair.iter().rfold(0, |a, &h| a << 32 | u64::from(h));
    }
}

/// Big-endian `bytes` as little-endian `u64` limbs into `out`, zero above.
pub(crate) fn load_be(bytes: &[u8], out: &mut [u64]) {
    out.fill(0);
    for (limb, chunk) in out.iter_mut().zip(bytes.rchunks(8)) {
        *limb = chunk.iter().fold(0, |acc, &b| acc << 8 | u64::from(b));
    }
}

/// The integer `limbs` holds, as a [`BigUint`].
pub(crate) fn to_biguint(limbs: &[u64]) -> BigUint {
    let halves = limbs.iter().flat_map(|&l| [l as u32, (l >> 32) as u32]);
    BigUint::from_limbs(halves.collect())
}

/// Big-endian bytes of `limbs` without leading zeros (zero is one `0x00`):
/// [`BigUint::to_bytes_be`] of the same integer.
pub(crate) fn to_bytes_be(limbs: &[u64]) -> Vec<u8> {
    let bytes = limbs.iter().rev().flat_map(|l| l.to_be_bytes());
    let mut out = Vec::with_capacity(8 * limbs.len());
    out.extend(bytes.skip_while(|&b| b == 0));
    if out.is_empty() {
        out.push(0);
    }
    out
}

/// The `w`-th `bits`-bit window of `e` (LSB-first window order).
fn window_digit(e: &BigUint, w: usize, bits: usize) -> usize {
    let first = w * bits;
    (0..bits).map(|b| usize::from(e.bit(first + b)) << b).sum()
}

/// Precomputed Montgomery-domain state for one odd modulus.
#[derive(Clone, Debug)]
pub struct MontgomeryContext {
    /// Modulus limbs, little-endian, exactly `k` limbs.
    n: Vec<u64>,
    /// The modulus as a [`BigUint`] (for reductions and fallbacks).
    modulus: BigUint,
    /// `-n^{-1} mod 2^64`, the per-limb reduction factor.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64k)`; multiplying by it converts into the
    /// Montgomery domain.
    r2: Vec<u64>,
    /// `R mod n`: the Montgomery representation of 1.
    one: Vec<u64>,
    /// The plain integer 1, padded to `k` limbs (for leaving the domain).
    int_one: Vec<u64>,
}

impl MontgomeryContext {
    /// Builds the context for an odd modulus `> 1`; returns `None` for even
    /// moduli, zero and one (callers fall back to the legacy path).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_one() || modulus.is_even() {
            return None;
        }
        let k = modulus.limbs().len().div_ceil(2);
        let limbs = |x: &BigUint| {
            let mut out = vec![0; k];
            load(x, &mut out);
            out
        };
        let n = limbs(modulus);
        let n0 = n.first().copied()?;
        // Newton's iteration doubles the correct low bits each round: six
        // rounds from 1 give the full 64-bit inverse of the odd n0.
        let inv = (0..6).fold(1u64, |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)))
        });
        // R mod n and R^2 mod n via the (one-off) generic reduction.
        let r = BigUint::one().shl(64 * k).rem(modulus);
        Some(MontgomeryContext {
            n0inv: inv.wrapping_neg(),
            r2: limbs(&r.mul(&r).rem(modulus)),
            one: limbs(&r),
            int_one: limbs(&BigUint::one()),
            n,
            modulus: modulus.clone(),
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Limb count `k` of the modulus.
    pub(crate) fn limbs(&self) -> usize {
        self.n.len()
    }

    /// True if the `k`-limb `x` is below `n`.
    pub(crate) fn is_reduced(&self, x: &[u64]) -> bool {
        x.iter().rev().lt(self.n.iter().rev())
    }

    /// CIOS Montgomery multiplication: `out ← a · b · W^(−a.len()) mod n`
    /// (`W = 2^64`) for `b < n` and an `a` of any length, `out` being `k`
    /// limbs. Each step adds `aᵢ·b` and the multiple `m·n` that clears the
    /// low limb in one pass, writing each limb one place down; the sum
    /// stays below `2n`, so one conditional subtraction normalizes it. With
    /// `a` of `k` limbs this is `a · b · R⁻¹ mod n`.
    pub(crate) fn mont_mul(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        out.fill(0);
        let mut top = 0u64;
        for &ai in a {
            let mut limbs = out.iter_mut().zip(b.iter().zip(&self.n));
            let Some((t0, (&b0, &n0))) = limbs.next() else {
                return;
            };
            let s = u128::from(*t0) + u128::from(ai) * u128::from(b0);
            let m = (s as u64).wrapping_mul(self.n0inv);
            let mut carry = (s >> 64) as u64;
            let r = u128::from(s as u64) + u128::from(m) * u128::from(n0);
            let mut carry_n = (r >> 64) as u64;
            let mut prev = t0;
            for (t, (&bj, &nj)) in limbs {
                let s = u128::from(*t) + u128::from(ai) * u128::from(bj) + u128::from(carry);
                carry = (s >> 64) as u64;
                let r = u128::from(s as u64) + u128::from(m) * u128::from(nj) + u128::from(carry_n);
                carry_n = (r >> 64) as u64;
                *prev = r as u64;
                prev = t;
            }
            let s = u128::from(top) + u128::from(carry) + u128::from(carry_n);
            *prev = s as u64;
            top = (s >> 64) as u64;
        }
        self.subtract_if_not_reduced(out, top);
    }

    /// `t ← t − n` unless `top · R + t < n`: brings a value below `2n` into
    /// `[0, n)`.
    fn subtract_if_not_reduced(&self, t: &mut [u64], top: u64) {
        if top == 0 && self.is_reduced(t) {
            return;
        }
        let mut borrow = false;
        for (x, &y) in t.iter_mut().zip(&self.n) {
            let (d, b1) = x.overflowing_sub(y);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            *x = d;
            borrow = b1 | b2;
        }
    }

    /// `a ← a + b mod n` for `a, b < n`.
    pub(crate) fn add_mod(&self, a: &mut [u64], b: &[u64]) {
        let mut carry = false;
        for (x, &y) in a.iter_mut().zip(b) {
            let (s, c1) = x.overflowing_add(y);
            let (s, c2) = s.overflowing_add(u64::from(carry));
            *x = s;
            carry = c1 | c2;
        }
        self.subtract_if_not_reduced(a, u64::from(carry));
    }

    /// `acc ← acc · b · R⁻¹ mod n`, through the product buffer `t`.
    fn mul_assign(&self, acc: &mut [u64], b: &[u64], t: &mut [u64]) {
        self.mont_mul(acc, b, t);
        acc.copy_from_slice(t);
    }

    /// `acc ← acc² · R⁻¹ mod n`, through the product buffer `t`.
    fn square(&self, acc: &mut [u64], t: &mut [u64]) {
        self.mont_mul(acc, acc, t);
        acc.copy_from_slice(t);
    }

    /// `out ← x · R^e mod n` for an `x` of any width: CIOS over `x`
    /// zero-padded to `j` whole widths of `k` limbs, against `R^(j+e) mod n`,
    /// divides by `R^j` and leaves exactly that. `e = 0` reduces `x`, `e = 1`
    /// carries it into the domain.
    pub(crate) fn reduce(&self, x: &[u64], e: usize, out: &mut [u64]) {
        let k = self.limbs();
        let j = x.len().div_ceil(k).max(1);
        with_scratch((j + 1) * k, |scratch| {
            let (padded, factor) = scratch.split_at_mut(j * k);
            padded.iter_mut().zip(x).for_each(|(p, &v)| *p = v);
            // R^(j+e) mod n: R itself, or R² times R per further width.
            factor.copy_from_slice(if j + e == 1 { &self.one } else { &self.r2 });
            for _ in 2..j + e {
                self.mul_assign(factor, &self.r2, out);
            }
            self.mont_mul(padded, factor, out);
        })
    }

    /// `x · R mod n`: `x` carried into the Montgomery domain.
    pub(crate) fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        let mut out = vec![0; self.limbs()];
        let width = x.limbs().len().div_ceil(2);
        with_scratch(width, |limbs| {
            load(x, limbs);
            self.reduce(limbs, 1, &mut out);
        });
        out
    }

    /// `row ← base^d` for every `k`-limb entry `d` of `row`, in the domain.
    fn fill_powers(&self, row: &mut [u64], base: &[u64]) {
        let k = self.limbs();
        for d in 0..row.len() / k {
            let (done, rest) = row.split_at_mut(d * k);
            let Some(entry) = rest.get_mut(..k) else {
                return;
            };
            match (d, done.chunks_exact(k).last()) {
                (0, _) | (_, None) => entry.copy_from_slice(&self.one),
                (1, _) => entry.copy_from_slice(base),
                (_, Some(prev)) => self.mont_mul(prev, base, entry),
            }
        }
    }

    /// `out ← base^exponent mod n` into the low `k` limbs of `out`, for a
    /// `base` of any width, left to right over the exponent's windows: 4
    /// bits for a multi-limb exponent, 1 for one that fits a `u32` limb —
    /// a 16-entry table costs more than a whole exponentiation by a short
    /// exponent of low weight (RSA's e = 65537: 16 squarings, 1 multiply).
    pub(crate) fn pow_limbs(&self, base: &[u64], exponent: &BigUint, out: &mut [u64]) {
        let k = self.limbs();
        let short = exponent.limbs().len() == 1;
        let bits = if short { 1 } else { WINDOW_BITS };
        with_scratch(((1 << bits) + 2) * k, |scratch| {
            let (acc, rest) = scratch.split_at_mut(k);
            let (t, table) = rest.split_at_mut(k);
            self.reduce(base, 1, t);
            self.fill_powers(table, t);
            // The first nonzero window starts the accumulator.
            acc.copy_from_slice(&self.one);
            let mut started = false;
            for w in (0..exponent.bits().div_ceil(bits)).rev() {
                if started {
                    for _ in 0..bits {
                        self.square(acc, t);
                    }
                }
                let d = window_digit(exponent, w, bits);
                match table.chunks_exact(k).nth(d).filter(|_| d != 0) {
                    Some(entry) if started => self.mul_assign(acc, entry, t),
                    Some(entry) => acc.copy_from_slice(entry),
                    None => {}
                }
                started |= d != 0;
            }
            self.mont_mul(acc, &self.int_one, t);
            out.iter_mut().zip(t.iter()).for_each(|(o, &v)| *o = v);
        })
    }

    /// `base^exponent mod n` by Montgomery exponentiation.
    pub fn mod_pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        let width = base.limbs().len().div_ceil(2);
        with_scratch(width + self.limbs(), |scratch| {
            let (limbs, out) = scratch.split_at_mut(width);
            load(base, limbs);
            self.pow_limbs(limbs, exponent, out);
            to_biguint(out)
        })
    }
}

/// Fixed-base windowed precomputation: every power `base^(d · 16^j)` is
/// materialized once, so each later exponentiation is just one Montgomery
/// multiply per 4 exponent bits with **no squarings**.
///
/// Used for the DSA generator `g` and public key `y` on the verify path,
/// and for `g^k` when signing.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    /// Level `j`'s entries `base^(d · 16^j)` for `d` in `0..16`, `k` limbs
    /// each in the Montgomery domain, levels laid end to end.
    powers: Vec<u64>,
    /// Number of 4-bit levels.
    levels: usize,
    /// The base itself, for the out-of-range fallback.
    base: BigUint,
}

impl FixedBaseTable {
    /// Precomputes tables covering exponents up to `max_exp_bits` bits.
    pub fn new(ctx: &MontgomeryContext, base: &BigUint, max_exp_bits: usize) -> Self {
        let k = ctx.limbs();
        let levels = max_exp_bits.div_ceil(WINDOW_BITS).max(1);
        let mut powers = vec![0; levels * WINDOW_SIZE * k];
        // level_base = base^(16^j): the level's top entry times its base.
        let (mut level_base, mut next) = (ctx.to_mont(base), vec![0; k]);
        for row in powers.chunks_exact_mut(WINDOW_SIZE * k) {
            ctx.fill_powers(row, &level_base);
            if let Some(top) = row.chunks_exact(k).last() {
                ctx.mont_mul(top, &level_base, &mut next);
            }
            level_base.copy_from_slice(&next);
        }
        FixedBaseTable {
            powers,
            levels,
            base: base.clone(),
        }
    }

    /// Number of exponent bits the precomputation covers.
    pub fn max_exp_bits(&self) -> usize {
        self.levels * WINDOW_BITS
    }

    /// `acc ← acc · base^exponent` in the Montgomery domain, `t` the product
    /// buffer. Exponents beyond the precomputed range fall back to the
    /// generic windowed path.
    fn mul_pow(&self, ctx: &MontgomeryContext, exponent: &BigUint, acc: &mut [u64], t: &mut [u64]) {
        if exponent.bits() > self.max_exp_bits() {
            let power = ctx.to_mont(&ctx.mod_pow(&self.base, exponent));
            return ctx.mul_assign(acc, &power, t);
        }
        let k = ctx.limbs();
        for (j, row) in self.powers.chunks_exact(WINDOW_SIZE * k).enumerate() {
            let d = window_digit(exponent, j, WINDOW_BITS);
            if let Some(entry) = row.chunks_exact(k).nth(d).filter(|_| d != 0) {
                ctx.mul_assign(acc, entry, t);
            }
        }
    }

    /// `∏ baseᵢ^exponentᵢ mod n` over tables built on `ctx`, multiplied
    /// together without leaving the Montgomery domain — DSA's `g^u1 · y^u2`.
    pub(crate) fn pow_product(ctx: &MontgomeryContext, factors: &[(&Self, &BigUint)]) -> BigUint {
        let k = ctx.limbs();
        with_scratch(2 * k, |scratch| {
            let (acc, t) = scratch.split_at_mut(k);
            acc.copy_from_slice(&ctx.one);
            for (table, exponent) in factors {
                table.mul_pow(ctx, exponent, acc, t);
            }
            ctx.mont_mul(acc, &ctx.int_one, t);
            to_biguint(t)
        })
    }

    /// `base^exponent mod n` as a plain [`BigUint`].
    pub fn pow(&self, ctx: &MontgomeryContext, exponent: &BigUint) -> BigUint {
        Self::pow_product(ctx, &[(self, exponent)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// A `bits`-wide odd modulus with its top bit set.
    fn odd_modulus(rng: &mut StdRng, bits: usize) -> BigUint {
        let m = BigUint::random_exact_bits(rng, bits);
        match m.is_even() {
            true => m.add(&BigUint::one()),
            false => m,
        }
    }

    /// `a · R mod n` back out of the domain, as an integer.
    fn leave(ctx: &MontgomeryContext, a: &[u64]) -> BigUint {
        let mut out = vec![0; ctx.limbs()];
        ctx.mont_mul(a, &ctx.int_one, &mut out);
        to_biguint(&out)
    }

    #[test]
    fn rejects_even_zero_and_one_moduli() {
        assert!(MontgomeryContext::new(&BigUint::zero()).is_none());
        assert!(MontgomeryContext::new(&BigUint::one()).is_none());
        assert!(MontgomeryContext::new(&big(1 << 20)).is_none());
        assert!(MontgomeryContext::new(&big(97)).is_some());
    }

    #[test]
    fn matches_legacy_on_known_values() {
        // Multi-limb odd modulus.
        let m = BigUint::from_hex("ffffffffffffffc5").unwrap(); // prime
        let ctx = MontgomeryContext::new(&m).unwrap();
        for (b, e) in [(4u64, 13u64), (7, 1008), (123456789, 987654321), (2, 0)] {
            assert_eq!(
                ctx.mod_pow(&big(b), &big(e)),
                big(b).mod_pow_legacy(&big(e), &m),
                "b={b} e={e}"
            );
        }
    }

    #[test]
    fn matches_legacy_on_random_wide_operands() {
        let mut rng = StdRng::seed_from_u64(42);
        for bits in [33usize, 64, 96, 160, 256, 512] {
            let m = odd_modulus(&mut rng, bits);
            let ctx = MontgomeryContext::new(&m).expect("odd modulus");
            for _ in 0..4 {
                let base = BigUint::random_bits(&mut rng, bits + 17);
                let exp = BigUint::random_bits(&mut rng, 80);
                assert_eq!(
                    ctx.mod_pow(&base, &exp),
                    base.mod_pow_legacy(&exp, &m),
                    "bits={bits}"
                );
            }
        }
    }

    /// Moduli of every `u64` limb count 1..=16, each in three shapes: top
    /// bit set (`64k` bits), top limb holding 33 bits (33, 97, 161, …: two
    /// `u32` limbs per `u64` limb, top bit clear) and top limb holding 17
    /// bits (17, 81, 145, …: an odd number of `u32` limbs, so the two
    /// layouts differ), plus `2^64k − 59`-style moduli whose every limb is
    /// all ones, where sums reach past `R` and the final subtraction runs.
    /// Bases below, at and above the modulus — up to three times its
    /// width — and exponents 0, 1, every one-limb width and multi-limb.
    #[test]
    fn mod_pow_matches_legacy_for_every_limb_count() {
        let mut rng = StdRng::seed_from_u64(0x64_11b5);
        for k in 1..=16usize {
            let mut moduli: Vec<BigUint> = [64 * k, 64 * k - 31, 64 * k - 47]
                .map(|bits| odd_modulus(&mut rng, bits))
                .to_vec();
            moduli.push(BigUint::one().shl(64 * k).sub(&big(59)));
            for m in moduli {
                let ctx = MontgomeryContext::new(&m).expect("odd modulus");
                assert_eq!(ctx.limbs(), k, "{m}");
                let bits = m.bits();
                let exponents: Vec<BigUint> = (0..=32usize)
                    .chain([33, 64, 97])
                    .map(|w| match w {
                        0 => BigUint::zero(),
                        w => BigUint::random_exact_bits(&mut rng, w),
                    })
                    .chain([big(1), big(u32::MAX.into())])
                    .collect();
                for (i, exp) in exponents.into_iter().enumerate() {
                    let base = match i % 4 {
                        0 => BigUint::random_below(&mut rng, &m),
                        1 => m.add(&big(i as u64)),
                        2 => BigUint::random_bits(&mut rng, bits + 40),
                        _ => BigUint::random_bits(&mut rng, 3 * bits + 5),
                    };
                    assert_eq!(
                        ctx.mod_pow(&base, &exp),
                        base.mod_pow_legacy(&exp, &m),
                        "{bits}-bit modulus {m}, exponent {exp}, base {base}"
                    );
                }
            }
        }
    }

    #[test]
    fn reduce_matches_rem_for_any_width() {
        let mut rng = StdRng::seed_from_u64(0x7ed);
        for bits in [17usize, 33, 64, 97, 128, 512, 1024] {
            let m = odd_modulus(&mut rng, bits);
            let ctx = MontgomeryContext::new(&m).expect("odd modulus");
            let k = ctx.limbs();
            for width in 0..=4 * k {
                let mut x: Vec<u64> = (0..width).map(|_| rand::Rng::gen(&mut rng)).collect();
                if width % 3 == 0 {
                    x.fill(u64::MAX);
                }
                let mut out = vec![0; k];
                ctx.reduce(&x, 0, &mut out);
                assert_eq!(
                    to_biguint(&out),
                    to_biguint(&x).rem(&m),
                    "{bits} bits, {width} limbs"
                );
            }
        }
    }

    #[test]
    fn moduli_wider_than_1024_bits_take_the_heap_scratch() {
        let mut rng = StdRng::seed_from_u64(2048);
        for bits in [1025usize, 1088, 2048] {
            let m = odd_modulus(&mut rng, bits);
            let ctx = MontgomeryContext::new(&m).expect("odd modulus");
            assert!((WINDOW_SIZE + 2) * ctx.limbs() > STACK_LIMBS, "{bits} bits");
            let base = BigUint::random_bits(&mut rng, bits + 9);
            for exp in [big(65537), BigUint::random_exact_bits(&mut rng, 40)] {
                let want = base.mod_pow_legacy(&exp, &m);
                assert_eq!(
                    ctx.mod_pow(&base, &exp),
                    want,
                    "{bits} bits, exponent {exp}"
                );
                let table = FixedBaseTable::new(&ctx, &base, 40);
                assert_eq!(table.pow(&ctx, &exp), want, "{bits} bits, table");
            }
        }
    }

    #[test]
    fn base_larger_than_modulus_is_reduced() {
        let m = big(1_000_003); // odd
        let ctx = MontgomeryContext::new(&m).unwrap();
        let base = big(123_456_789_012_345);
        let exp = big(12345);
        assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_legacy(&exp, &m));
    }

    #[test]
    fn modulus_equal_to_value_yields_zero_powers() {
        let m = big(101);
        let ctx = MontgomeryContext::new(&m).unwrap();
        assert_eq!(ctx.mod_pow(&big(101), &big(5)), BigUint::zero());
        assert_eq!(ctx.mod_pow(&BigUint::zero(), &big(7)), BigUint::zero());
        assert_eq!(ctx.mod_pow(&big(17), &BigUint::zero()), BigUint::one());
    }

    #[test]
    fn mont_roundtrip_is_identity() {
        let m = BigUint::from_hex("f000000000000001b").unwrap();
        let ctx = MontgomeryContext::new(&m).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let x = BigUint::random_below(&mut rng, &m);
            assert_eq!(leave(&ctx, &ctx.to_mont(&x)), x);
        }
    }

    #[test]
    fn fixed_base_table_matches_generic_path() {
        let mut rng = StdRng::seed_from_u64(11);
        for bits in [17usize, 33, 64, 97, 200, 512] {
            let m = odd_modulus(&mut rng, bits);
            let ctx = MontgomeryContext::new(&m).unwrap();
            let base = BigUint::random_below(&mut rng, &m);
            let table = FixedBaseTable::new(&ctx, &base, 96);
            for _ in 0..10 {
                let exp = BigUint::random_bits(&mut rng, 96);
                assert_eq!(
                    table.pow(&ctx, &exp),
                    ctx.mod_pow(&base, &exp),
                    "{bits} bits"
                );
            }
            // Exponent beyond the covered range uses the fallback.
            let wide = BigUint::random_bits(&mut rng, 160);
            assert_eq!(table.pow(&ctx, &wide), ctx.mod_pow(&base, &wide));
            assert_eq!(table.pow(&ctx, &BigUint::zero()), BigUint::one());
            assert_eq!(table.max_exp_bits(), 96);
        }
    }

    #[test]
    fn fixed_base_products_combine_in_the_montgomery_domain() {
        // g^a · y^b mod n assembled from two tables without leaving the
        // domain — the exact shape of the DSA verify fast path.
        let mut rng = StdRng::seed_from_u64(13);
        let m = odd_modulus(&mut rng, 128);
        let ctx = MontgomeryContext::new(&m).unwrap();
        let g = BigUint::random_below(&mut rng, &m);
        let y = BigUint::random_below(&mut rng, &m);
        let tg = FixedBaseTable::new(&ctx, &g, 64);
        let ty = FixedBaseTable::new(&ctx, &y, 64);
        let a = BigUint::random_bits(&mut rng, 64);
        let b = BigUint::random_bits(&mut rng, 64);
        let fast = FixedBaseTable::pow_product(&ctx, &[(&tg, &a), (&ty, &b)]);
        let slow = g
            .mod_pow_legacy(&a, &m)
            .mul_mod(&y.mod_pow_legacy(&b, &m), &m);
        assert_eq!(fast, slow);
    }

    #[test]
    fn short_exponents_match_legacy_on_wide_moduli() {
        // Every one-limb exponent width takes the square-and-multiply path;
        // 33 bits is the first width back on the window table.
        let mut rng = StdRng::seed_from_u64(65537);
        for bits in [64usize, 160, 512, 1024] {
            let m = odd_modulus(&mut rng, bits);
            let ctx = MontgomeryContext::new(&m).expect("odd modulus");
            let base = BigUint::random_bits(&mut rng, bits + 5);
            let widths = (1..=33).map(|w| BigUint::random_exact_bits(&mut rng, w));
            let fixed = [1u64, 2, 3, 65537, 0x8000_0000, 0xFFFF_FFFF].map(big);
            for exp in widths.chain(fixed) {
                assert_eq!(
                    ctx.mod_pow(&base, &exp),
                    base.mod_pow_legacy(&exp, &m),
                    "bits={bits} exp={exp}"
                );
            }
        }
    }

    #[test]
    fn byte_and_limb_conversions_round_trip() {
        let mut rng = StdRng::seed_from_u64(8);
        for bits in [1usize, 8, 63, 64, 65, 127, 1000] {
            let x = BigUint::random_exact_bits(&mut rng, bits);
            let mut limbs = vec![0; bits.div_ceil(64) + 1];
            load_be(&x.to_bytes_be(), &mut limbs);
            assert_eq!(to_biguint(&limbs), x);
            assert_eq!(to_bytes_be(&limbs), x.to_bytes_be());
        }
        assert_eq!(to_bytes_be(&[0, 0]), BigUint::zero().to_bytes_be());
    }

    proptest::proptest! {
        #[test]
        fn prop_montgomery_equals_legacy(
            base in 0u64..,
            exp in 0u64..,
            exp_bits in 0u32..=40,
            modulus in 3u64..,
        ) {
            // Exponents of exactly 0 to 40 bits: up to 32 they fit a limb
            // and take the square-and-multiply path, beyond it the window.
            let exp = match exp_bits {
                0 => 0,
                w => (exp >> (64 - w)) | 1 << (w - 1),
            };
            // Force odd multi-limb-capable moduli; small odd ones too.
            let m = big(modulus | 1);
            if let Some(ctx) = MontgomeryContext::new(&m) {
                let fast = ctx.mod_pow(&big(base), &big(exp));
                let slow = big(base).mod_pow_legacy(&big(exp), &m);
                proptest::prop_assert_eq!(fast, slow);
            }
        }
    }
}

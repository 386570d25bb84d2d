//! Montgomery-form modular arithmetic: the engine behind the hot-path
//! [`BigUint::mod_pow`](crate::bignum::BigUint::mod_pow).
//!
//! The legacy exponentiation reduces every product by long division — a
//! double-width product and a quotient it throws away, per multiply. A
//! [`MontgomeryContext`] fixes an odd modulus `n` up front (two divisions,
//! for `R mod n` and `R² mod n`) and replaces each reduction with a CIOS
//! (coarsely-integrated operand scanning) Montgomery multiplication: one
//! fused multiply-reduce pass over the limbs with no division at all.
//! Exponentiation walks the exponent in 4-bit windows over a 16-entry
//! powers table — or, when the exponent fits one limb (RSA's public
//! exponent), by plain square-and-multiply, since building the table would
//! cost more than the whole exponentiation. [`FixedBaseTable`] goes
//! further for bases that are reused across many exponentiations (the DSA
//! generator `g`, the public key `y`, and the signing pool's `g^k`
//! precomputation): all powers `base^(d·16^j)` are materialized once,
//! after which an exponentiation is just one table lookup and one multiply
//! per 4 exponent bits — no squarings on the hot path.
//!
//! This file is on vaq-lint's panic-path hot list: no `unwrap`/`expect`/
//! `panic!` and no direct slice indexing outside tests. Out-of-range inputs
//! degrade to the (slower, equivalent) generic path instead of panicking.

use crate::bignum::BigUint;

/// Exponent window width in bits.
const WINDOW_BITS: usize = 4;
/// Entries per window table (`2^WINDOW_BITS`).
const WINDOW_SIZE: usize = 1 << WINDOW_BITS;

/// Precomputed Montgomery-domain state for one odd modulus.
#[derive(Clone, Debug)]
pub struct MontgomeryContext {
    /// Modulus limbs, little-endian, exactly `k` limbs.
    n: Vec<u32>,
    /// The modulus as a [`BigUint`] (for reductions and fallbacks).
    modulus: BigUint,
    /// `-n^{-1} mod 2^32`, the per-limb reduction factor.
    n0inv: u32,
    /// `R^2 mod n` where `R = 2^(32k)`; multiplying by it converts into the
    /// Montgomery domain.
    r2: Vec<u32>,
    /// `R mod n`: the Montgomery representation of 1.
    one: Vec<u32>,
    /// The plain integer 1, padded to `k` limbs (for leaving the domain).
    int_one: Vec<u32>,
    /// Limb count of the modulus.
    k: usize,
}

/// `x * ys` accumulated into `t` (little-endian), with the carry rippled
/// through the tail of `t`. Requires `t.len() >= ys.len() + 1` with enough
/// headroom for the final carry (guaranteed by the `k + 2`-limb scratch).
fn addmul(t: &mut [u32], x: u32, ys: &[u32]) {
    if x == 0 {
        return;
    }
    let (lo, hi) = t.split_at_mut(ys.len().min(t.len()));
    let mut carry = 0u64;
    for (tj, &yj) in lo.iter_mut().zip(ys) {
        let cur = *tj as u64 + (x as u64) * (yj as u64) + carry;
        *tj = cur as u32;
        carry = cur >> 32;
    }
    for tj in hi.iter_mut() {
        if carry == 0 {
            break;
        }
        let cur = *tj as u64 + carry;
        *tj = cur as u32;
        carry = cur >> 32;
    }
}

/// `a < b` over equal-length little-endian limb slices.
fn limbs_lt(a: &[u32], b: &[u32]) -> bool {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a -= b` over equal-length little-endian limb slices (wrapping, i.e. the
/// final borrow — if any — is discarded; callers arrange for it to cancel an
/// implicit high limb).
fn limbs_sub_assign(a: &mut [u32], b: &[u32]) {
    let mut borrow = 0i64;
    for (x, &y) in a.iter_mut().zip(b) {
        let d = *x as i64 - y as i64 - borrow;
        if d < 0 {
            *x = (d + (1i64 << 32)) as u32;
            borrow = 1;
        } else {
            *x = d as u32;
            borrow = 0;
        }
    }
}

/// The `w`-th 4-bit window of `e` (LSB-first window order).
fn window_digit(e: &BigUint, w: usize) -> usize {
    let mut d = 0usize;
    for b in 0..WINDOW_BITS {
        if e.bit(w * WINDOW_BITS + b) {
            d |= 1 << b;
        }
    }
    d
}

impl MontgomeryContext {
    /// Builds the context for an odd modulus `> 1`; returns `None` for even
    /// moduli, zero and one (callers fall back to the legacy path).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_zero() || modulus.is_one() || modulus.is_even() {
            return None;
        }
        let n: Vec<u32> = modulus.limbs().to_vec();
        let k = n.len();
        let n0 = n.first().copied()?;
        // Newton's iteration doubles correct low bits each round: five
        // rounds from 1 gives the full 32-bit inverse of the odd n0.
        let mut inv: u32 = 1;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u32.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let n0inv = inv.wrapping_neg();

        // R mod n and R^2 mod n via the (one-off) generic reduction.
        let r = BigUint::one().shl(32 * k).rem(modulus);
        let r2_int = r.mul(&r).rem(modulus);
        let mut one = r.limbs().to_vec();
        one.resize(k, 0);
        let mut r2 = r2_int.limbs().to_vec();
        r2.resize(k, 0);
        let mut int_one = vec![0u32; k];
        if let Some(low) = int_one.first_mut() {
            *low = 1;
        }

        Some(MontgomeryContext {
            n,
            modulus: modulus.clone(),
            n0inv,
            r2,
            one,
            int_one,
            k,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// CIOS Montgomery multiplication: for `k`-limb inputs `a, b < n`,
    /// returns `a · b · R^{-1} mod n` as `k` limbs.
    pub(crate) fn mont_mul(&self, a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut t = vec![0u32; self.k + 2];
        for &ai in a {
            addmul(&mut t, ai, b);
            let m = t.first().copied().unwrap_or(0).wrapping_mul(self.n0inv);
            addmul(&mut t, m, &self.n);
            // t is now divisible by 2^32: drop the zero low limb.
            t.rotate_left(1);
            if let Some(last) = t.last_mut() {
                *last = 0;
            }
        }
        // t < 2n: one conditional subtraction normalizes into [0, n).
        let (lo, hi) = t.split_at_mut(self.k);
        let high = hi.first().copied().unwrap_or(0);
        if high != 0 || !limbs_lt(lo, &self.n) {
            limbs_sub_assign(lo, &self.n);
        }
        t.truncate(self.k);
        t
    }

    /// Converts `x` into the Montgomery domain (reducing it mod `n` first).
    pub(crate) fn to_mont(&self, x: &BigUint) -> Vec<u32> {
        let mut reduced = x.rem(&self.modulus).limbs().to_vec();
        reduced.resize(self.k, 0);
        self.mont_mul(&reduced, &self.r2)
    }

    /// Converts a Montgomery-domain value back to a plain [`BigUint`].
    /// Named for symmetry with [`Self::to_mont`]; it is a domain
    /// conversion, not a constructor.
    #[allow(clippy::wrong_self_convention)]
    pub(crate) fn from_mont(&self, a: &[u32]) -> BigUint {
        BigUint::from_limbs(self.mont_mul(a, &self.int_one))
    }

    /// `base^exponent mod n` by Montgomery exponentiation: 4-bit windows
    /// for a multi-limb exponent, plain square-and-multiply for one that
    /// fits a limb.
    pub fn mod_pow(&self, base: &BigUint, exponent: &BigUint) -> BigUint {
        if exponent.is_zero() {
            return BigUint::one();
        }
        let base_m = self.to_mont(base);
        if let [e] = exponent.limbs() {
            // The window table costs 14 multiplications to build — more
            // than a whole exponentiation by a one-limb exponent of low
            // weight (RSA's e = 65537: 16 squarings + 1 multiply). Walk
            // the bits below the leading one, left to right.
            let mut acc = base_m.clone();
            for bit in (0..e.checked_ilog2().unwrap_or(0)).rev() {
                acc = self.mont_mul(&acc, &acc);
                if (e >> bit) & 1 == 1 {
                    acc = self.mont_mul(&acc, &base_m);
                }
            }
            return self.from_mont(&acc);
        }
        // table[d] = base^d in the Montgomery domain, d in 0..16.
        let mut table: Vec<Vec<u32>> = Vec::with_capacity(WINDOW_SIZE);
        table.push(self.one.clone());
        table.push(base_m.clone());
        for _ in 2..WINDOW_SIZE {
            let next = match table.last() {
                Some(prev) => self.mont_mul(prev, &base_m),
                None => break,
            };
            table.push(next);
        }

        let windows = exponent.bits().div_ceil(WINDOW_BITS);
        let mut acc = self.one.clone();
        for w in (0..windows).rev() {
            if w + 1 != windows {
                for _ in 0..WINDOW_BITS {
                    acc = self.mont_mul(&acc, &acc);
                }
            }
            let d = window_digit(exponent, w);
            if d != 0 {
                if let Some(entry) = table.get(d) {
                    acc = self.mont_mul(&acc, entry);
                }
            }
        }
        self.from_mont(&acc)
    }
}

/// Fixed-base windowed precomputation: every power `base^(d · 16^j)` is
/// materialized once, so each later exponentiation is just one Montgomery
/// multiply per 4 exponent bits with **no squarings**.
///
/// Used for the DSA generator `g` and public key `y` on the verify path,
/// and for `g^k` in the signing pool's nonce precomputation.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    /// `windows[j]` holds `base^(d · 16^j)` for `d` in `0..16`, all in the
    /// Montgomery domain.
    windows: Vec<Vec<Vec<u32>>>,
    /// The base itself, for the out-of-range fallback.
    base: BigUint,
}

impl FixedBaseTable {
    /// Precomputes tables covering exponents up to `max_exp_bits` bits.
    pub fn new(ctx: &MontgomeryContext, base: &BigUint, max_exp_bits: usize) -> Self {
        let levels = max_exp_bits.div_ceil(WINDOW_BITS).max(1);
        let mut windows = Vec::with_capacity(levels);
        // level_base = base^(16^j), advanced by 4 squarings per level.
        let mut level_base = ctx.to_mont(base);
        for _ in 0..levels {
            let mut row: Vec<Vec<u32>> = Vec::with_capacity(WINDOW_SIZE);
            row.push(ctx.one.clone());
            row.push(level_base.clone());
            for _ in 2..WINDOW_SIZE {
                let next = match row.last() {
                    Some(prev) => ctx.mont_mul(prev, &level_base),
                    None => break,
                };
                row.push(next);
            }
            for _ in 0..WINDOW_BITS {
                level_base = ctx.mont_mul(&level_base, &level_base);
            }
            windows.push(row);
        }
        FixedBaseTable {
            windows,
            base: base.clone(),
        }
    }

    /// Number of exponent bits the precomputation covers.
    pub fn max_exp_bits(&self) -> usize {
        self.windows.len() * WINDOW_BITS
    }

    /// `base^exponent` in the Montgomery domain. Exponents beyond the
    /// precomputed range fall back to the generic windowed path.
    pub(crate) fn pow_mont(&self, ctx: &MontgomeryContext, exponent: &BigUint) -> Vec<u32> {
        if exponent.bits() > self.max_exp_bits() {
            return ctx.to_mont(&ctx.mod_pow(&self.base, exponent));
        }
        let mut acc = ctx.one.clone();
        for (j, row) in self.windows.iter().enumerate() {
            let d = window_digit(exponent, j);
            if d != 0 {
                if let Some(entry) = row.get(d) {
                    acc = ctx.mont_mul(&acc, entry);
                }
            }
        }
        acc
    }

    /// `base^exponent mod n` as a plain [`BigUint`].
    pub fn pow(&self, ctx: &MontgomeryContext, exponent: &BigUint) -> BigUint {
        ctx.from_mont(&self.pow_mont(ctx, exponent))
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
            let mut m = BigUint::random_exact_bits(&mut rng, bits);
            if m.is_even() {
                m = m.add(&BigUint::one());
            }
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
            let back = ctx.from_mont(&ctx.to_mont(&x));
            assert_eq!(back, x);
        }
    }

    #[test]
    fn fixed_base_table_matches_generic_path() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = BigUint::random_exact_bits(&mut rng, 200);
        if m.is_even() {
            m = m.add(&BigUint::one());
        }
        let ctx = MontgomeryContext::new(&m).unwrap();
        let base = BigUint::random_below(&mut rng, &m);
        let table = FixedBaseTable::new(&ctx, &base, 96);
        for _ in 0..10 {
            let exp = BigUint::random_bits(&mut rng, 96);
            assert_eq!(table.pow(&ctx, &exp), ctx.mod_pow(&base, &exp));
        }
        // Exponent beyond the covered range uses the fallback.
        let wide = BigUint::random_bits(&mut rng, 160);
        assert_eq!(table.pow(&ctx, &wide), ctx.mod_pow(&base, &wide));
        assert_eq!(table.max_exp_bits(), 96);
    }

    #[test]
    fn fixed_base_products_combine_in_the_montgomery_domain() {
        // g^a · y^b mod n assembled from two tables without leaving the
        // domain — the exact shape of the DSA verify fast path.
        let mut rng = StdRng::seed_from_u64(13);
        let mut m = BigUint::random_exact_bits(&mut rng, 128);
        if m.is_even() {
            m = m.add(&BigUint::one());
        }
        let ctx = MontgomeryContext::new(&m).unwrap();
        let g = BigUint::random_below(&mut rng, &m);
        let y = BigUint::random_below(&mut rng, &m);
        let tg = FixedBaseTable::new(&ctx, &g, 64);
        let ty = FixedBaseTable::new(&ctx, &y, 64);
        let a = BigUint::random_bits(&mut rng, 64);
        let b = BigUint::random_bits(&mut rng, 64);
        let fast = ctx.from_mont(&ctx.mont_mul(&tg.pow_mont(&ctx, &a), &ty.pow_mont(&ctx, &b)));
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
            let mut m = BigUint::random_exact_bits(&mut rng, bits);
            if m.is_even() {
                m = m.add(&BigUint::one());
            }
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

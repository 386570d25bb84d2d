//! Arbitrary-precision unsigned integers.
//!
//! [`BigUint`] provides exactly the arithmetic needed by the RSA and DSA
//! signature schemes used in the paper's experiments: comparison, addition,
//! subtraction, multiplication, long division, modular exponentiation,
//! modular inverse and random sampling. Limbs are stored little-endian as
//! `u32` so every primitive operation fits in `u64` intermediates without
//! `unsafe`.
//!
//! Division is word-level (Knuth's algorithm D, one quotient limb per
//! step). It sits under the reductions the Montgomery arithmetic does not
//! do — a context's `R mod n` and `R² mod n`, `mul_mod` in Miller–Rabin,
//! `mod_inverse` — so its cost is a floor under key generation. The
//! bit-at-a-time division it replaced survives under `#[cfg(test)]` as the
//! reference a differential suite holds it equal to, and hand-built vectors
//! (with a test-only counter) show that the rare correction and add-back
//! steps execute.

use rand::Rng;
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// The internal representation is a little-endian vector of 32-bit limbs
/// with no trailing zero limbs (zero is represented by an empty vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

impl From<u32> for BigUint {
    fn from(v: u32) -> Self {
        BigUint::from_u64(v as u64)
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = vec![(v & 0xffff_ffff) as u32, (v >> 32) as u32];
        let mut out = BigUint {
            limbs: std::mem::take(&mut limbs),
        };
        out.normalize();
        out
    }

    /// Constructs from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut cur: u32 = 0;
        let mut shift = 0u32;
        for &b in bytes.iter().rev() {
            cur |= (b as u32) << shift;
            shift += 8;
            if shift == 32 {
                limbs.push(cur);
                cur = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(cur);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Returns the value as big-endian bytes without leading zeros (zero
    /// becomes a single `0x00` byte).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return vec![0];
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        // Strip leading zeros.
        let first = out.iter().position(|&b| b != 0).unwrap_or(out.len() - 1);
        out.drain(..first);
        out
    }

    /// Lowercase hexadecimal rendering without a `0x` prefix.
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    /// Parses a hexadecimal string (no prefix). Returns `None` on invalid
    /// characters.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() {
            return None;
        }
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let chars: Vec<char> = s.chars().collect();
        let mut idx = 0;
        // Handle an odd leading nibble.
        if chars.len() % 2 == 1 {
            bytes.push(chars[0].to_digit(16)? as u8);
            idx = 1;
        }
        while idx < chars.len() {
            let hi = chars[idx].to_digit(16)? as u8;
            let lo = chars[idx + 1].to_digit(16)? as u8;
            bytes.push(hi * 16 + lo);
            idx += 2;
        }
        Some(BigUint::from_bytes_be(&bytes))
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True if the value is even.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let off = i % 32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = Vec::with_capacity(self.limbs.len().max(other.limbs.len()) + 1);
        let mut carry = 0u64;
        for i in 0..self.limbs.len().max(other.limbs.len()) {
            let a = *self.limbs.get(i).unwrap_or(&0) as u64;
            let b = *other.limbs.get(i).unwrap_or(&0) as u64;
            let s = a + b + carry;
            out.push((s & 0xffff_ffff) as u32);
            carry = s >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Subtraction; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        debug_assert!(self.cmp_to(other) != Ordering::Less, "BigUint underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0i64;
        for i in 0..self.limbs.len() {
            let a = self.limbs[i] as i64;
            let b = *other.limbs.get(i).unwrap_or(&0) as i64;
            let mut d = a - b - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(d as u32);
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Multiplication (schoolbook).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in other.limbs.iter().enumerate() {
                let idx = i + j;
                let cur = out[idx] as u64 + (a as u64) * (b as u64) + carry;
                out[idx] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
            }
            let mut idx = i + other.limbs.len();
            while carry > 0 {
                let cur = out[idx] as u64 + carry;
                out[idx] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
                idx += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = n / 32;
        let bit_shift = n % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> BigUint {
        let limb_shift = n / 32;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = n % 32;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs[limb_shift..]);
        } else {
            let src = &self.limbs[limb_shift..];
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (32 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        let mut r = BigUint { limbs: out };
        r.normalize();
        r
    }

    /// Total-order comparison.
    pub fn cmp_to(&self, other: &BigUint) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Long division: returns `(quotient, remainder)`.
    ///
    /// A single-limb divisor is one `u64` division per dividend limb; a
    /// multi-limb divisor goes through Knuth's algorithm D, one quotient
    /// *limb* per step, so dividing `m + n` limbs by `n` costs `O(m · n)`
    /// limb operations and three allocations in total. Every modular
    /// reduction in the crate (`rem`, `mul_mod`, the Montgomery context's
    /// `R² mod n`, `mod_inverse`) lands here.
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self.cmp_to(divisor) == Ordering::Less {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u64;
            let mut rem = 0u64;
            let mut q = vec![0u32; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | self.limbs[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            let mut quo = BigUint { limbs: q };
            quo.normalize();
            return (quo, BigUint::from_u64(rem));
        }
        self.div_rem_knuth(divisor)
    }

    /// Knuth's algorithm D (TAOCP vol. 2, §4.3.1) on the `u32` limbs with
    /// `u64` intermediates, for a divisor of at least two limbs and a
    /// dividend no shorter than it.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        const BASE: u64 = 1 << 32;
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;

        // D1: shift both operands until the divisor's top bit is set; the
        // two-limb estimate below is then at most 2 above the true digit.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let vn = divisor.shl(shift).limbs;
        let mut un = self.shl(shift).limbs;
        un.resize(m + n + 1, 0);
        let (v_top, v_next) = (vn[n - 1] as u64, vn[n - 2] as u64);

        let mut q = vec![0u32; m + 1];
        for j in (0..=m).rev() {
            // D3: estimate the digit from the top two limbs of the running
            // remainder, then correct it against the divisor's second limb.
            let num = ((un[j + n] as u64) << 32) | un[j + n - 1] as u64;
            let mut qhat = num / v_top;
            let mut rhat = num % v_top;
            while qhat >= BASE || qhat * v_next > ((rhat << 32) | un[j + n - 2] as u64) {
                #[cfg(test)]
                QHAT_CORRECTIONS.with(|c| c.set(c.get() + 1));
                qhat -= 1;
                rhat += v_top;
                if rhat >= BASE {
                    break;
                }
            }

            // D4: un[j..=j+n] -= qhat · vn. Each difference lies in
            // (-2^33, 2^32), so its sign bit is the borrow.
            let mut carry = 0u64;
            let mut borrow = 0u64;
            for (ui, &vi) in un[j..j + n].iter_mut().zip(&vn) {
                let p = qhat * vi as u64 + carry;
                carry = p >> 32;
                let t = (*ui as u64)
                    .wrapping_sub(p & 0xffff_ffff)
                    .wrapping_sub(borrow);
                *ui = t as u32;
                borrow = t >> 63;
            }
            let t = (un[j + n] as u64).wrapping_sub(carry).wrapping_sub(borrow);
            un[j + n] = t as u32;

            // D6: the estimate was still one too large (probability
            // ≈ 2/2^32 on random operands): add the divisor back once.
            if t >> 63 == 1 {
                #[cfg(test)]
                ADD_BACKS.with(|c| c.set(c.get() + 1));
                qhat -= 1;
                let mut carry = 0u64;
                for (ui, &vi) in un[j..j + n].iter_mut().zip(&vn) {
                    let s = *ui as u64 + vi as u64 + carry;
                    *ui = s as u32;
                    carry = s >> 32;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u32);
            }
            q[j] = qhat as u32;
        }

        // D8: the remainder is the low n limbs, shifted back.
        un.truncate(n);
        (BigUint::from_limbs(q), BigUint::from_limbs(un).shr(shift))
    }

    /// Bitwise long division, one shift + compare + subtract per dividend
    /// *bit*: the implementation [`Self::div_rem`] replaced, kept as the
    /// reference the word-level division is held equal to.
    #[cfg(test)]
    fn div_rem_bitwise(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        let mut remainder = BigUint::zero();
        let mut q_limbs = vec![0u32; self.limbs.len()];
        for i in (0..self.bits()).rev() {
            remainder = remainder.shl(1);
            if self.bit(i) {
                remainder = remainder.add(&BigUint::one());
            }
            if remainder.cmp_to(divisor) != Ordering::Less {
                remainder = remainder.sub(divisor);
                q_limbs[i / 32] |= 1 << (i % 32);
            }
        }
        (BigUint::from_limbs(q_limbs), remainder)
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Modular addition.
    pub fn add_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.add(other).rem(modulus)
    }

    /// Modular subtraction (`self - other mod modulus`), handling wrap-around.
    pub fn sub_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        let a = self.rem(modulus);
        let b = other.rem(modulus);
        if a.cmp_to(&b) != Ordering::Less {
            a.sub(&b)
        } else {
            a.add(modulus).sub(&b)
        }
    }

    /// Modular multiplication.
    pub fn mul_mod(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        self.mul(other).rem(modulus)
    }

    /// Modular exponentiation.
    ///
    /// Odd moduli (every RSA modulus, CRT half and DSA prime in this
    /// workspace, down to one limb) go through the windowed Montgomery fast
    /// path ([`crate::montgomery::MontgomeryContext`]); even ones fall back
    /// to the crate-private schoolbook `mod_pow_legacy`. The two paths are
    /// property-tested equivalent.
    pub fn mod_pow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        match crate::montgomery::MontgomeryContext::new(modulus) {
            Some(ctx) => ctx.mod_pow(self, exponent),
            None => self.mod_pow_legacy(exponent, modulus),
        }
    }

    /// Modular exponentiation by plain LSB-first square-and-multiply, with
    /// every product reduced by long division.
    ///
    /// This is the pre-Montgomery implementation, kept (and exercised by
    /// property tests) as the reference the fast path must agree with, and
    /// as the fallback for even moduli and the modulus one.
    pub(crate) fn mod_pow_legacy(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "mod_pow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let mut base = self.rem(modulus);
        let nbits = exponent.bits();
        for i in 0..nbits {
            if exponent.bit(i) {
                result = result.mul_mod(&base, modulus);
            }
            base = base.mul_mod(&base, modulus);
        }
        result
    }

    /// Greatest common divisor (binary-free, Euclid's algorithm).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// Returns `None` if `self` and `modulus` are not coprime.
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() {
            return None;
        }
        // Extended Euclid with coefficients tracked as (value, is_negative).
        let mut r0 = modulus.clone();
        let mut r1 = self.rem(modulus);
        let mut t0 = (BigUint::zero(), false);
        let mut t1 = (BigUint::one(), false);

        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // t2 = t0 - q * t1 (signed arithmetic on magnitude+sign pairs)
            let qt1 = q.mul(&t1.0);
            let t2 = signed_sub(&t0, &(qt1, t1.1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }

        if !r0.is_one() {
            return None;
        }
        // Normalize t0 into [0, modulus).
        let (mag, neg) = t0;
        let mag = mag.rem(modulus);
        if neg && !mag.is_zero() {
            Some(modulus.sub(&mag))
        } else {
            Some(mag)
        }
    }

    /// Uniformly random value in `[0, bound)` (rejection sampling).
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "random_below with zero bound");
        let bits = bound.bits();
        loop {
            let candidate = Self::random_bits(rng, bits);
            if candidate.cmp_to(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Random value with at most `bits` bits.
    pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        if bits == 0 {
            return BigUint::zero();
        }
        let limbs_needed = bits.div_ceil(32);
        let mut limbs = Vec::with_capacity(limbs_needed);
        for _ in 0..limbs_needed {
            limbs.push(rng.gen::<u32>());
        }
        // Mask excess bits in the top limb.
        let excess = limbs_needed * 32 - bits;
        if excess > 0 {
            let mask = u32::MAX >> excess;
            *limbs.last_mut().expect("at least one limb") &= mask;
        }
        let mut r = BigUint { limbs };
        r.normalize();
        r
    }

    /// Random value with exactly `bits` bits (the top bit is forced to one).
    pub fn random_exact_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0);
        let mut v = Self::random_bits(rng, bits);
        // Force the top bit.
        let limb = (bits - 1) / 32;
        let off = (bits - 1) % 32;
        while v.limbs.len() <= limb {
            v.limbs.push(0);
        }
        v.limbs[limb] |= 1 << off;
        v.normalize();
        v
    }

    /// Converts to `u64`, returning `None` when the value does not fit.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0] as u64),
            2 => Some(self.limbs[0] as u64 | ((self.limbs[1] as u64) << 32)),
            _ => None,
        }
    }

    /// The little-endian `u32` limbs (no trailing zeros). Internal to the
    /// crate: the Montgomery context works on raw limbs.
    pub(crate) fn limbs(&self) -> &[u32] {
        &self.limbs
    }

    /// Builds a value from little-endian limbs, normalizing trailing zeros.
    /// Internal to the crate (Montgomery-domain conversions).
    pub(crate) fn from_limbs(limbs: Vec<u32>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_to(other)
    }
}

#[cfg(test)]
thread_local! {
    /// How many times this thread's divisions lowered a quotient estimate
    /// (step D3) and how many times they took the add-back (step D6), so
    /// the tests can show those branches ran instead of hoping they did.
    static QHAT_CORRECTIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static ADD_BACKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Signed subtraction on (magnitude, negative) pairs: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    let (am, an) = a;
    let (bm, bn) = b;
    match (an, bn) {
        // a - b with both non-negative
        (false, false) => {
            if am.cmp_to(bm) != Ordering::Less {
                (am.sub(bm), false)
            } else {
                (bm.sub(am), true)
            }
        }
        // a - (-b) = a + b
        (false, true) => (am.add(bm), false),
        // (-a) - b = -(a + b)
        (true, false) => (am.add(bm), true),
        // (-a) - (-b) = b - a
        (true, true) => {
            if bm.cmp_to(am) != Ordering::Less {
                (bm.sub(am), false)
            } else {
                (am.sub(bm), true)
            }
        }
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
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bits(), 0);
        assert_eq!(BigUint::one().bits(), 1);
    }

    #[test]
    fn roundtrip_bytes() {
        let v = BigUint::from_bytes_be(&[0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]);
        assert_eq!(
            v.to_bytes_be(),
            vec![0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09]
        );
        // Leading zeros are stripped.
        let v2 = BigUint::from_bytes_be(&[0x00, 0x00, 0xff]);
        assert_eq!(v2.to_bytes_be(), vec![0xff]);
    }

    #[test]
    fn hex_roundtrip() {
        let v = BigUint::from_hex("deadbeef12345678").unwrap();
        assert_eq!(v.to_hex(), "deadbeef12345678");
        assert_eq!(BigUint::from_hex("0").unwrap(), BigUint::zero());
        assert!(BigUint::from_hex("xyz").is_none());
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(big(123).add(&big(456)), big(579));
        assert_eq!(big(579).sub(&big(456)), big(123));
        assert_eq!(big(1).add(&big(u64::MAX - 1)).to_u64(), Some(u64::MAX));
    }

    #[test]
    fn add_carry_chain() {
        let a = BigUint::from_hex("ffffffffffffffffffffffff").unwrap();
        let b = a.add(&BigUint::one());
        assert_eq!(b.to_hex(), "1000000000000000000000000");
        assert_eq!(b.sub(&BigUint::one()), a);
    }

    #[test]
    fn mul_known_values() {
        assert_eq!(big(12345).mul(&big(67890)), big(12345 * 67890));
        let a = BigUint::from_hex("ffffffff").unwrap();
        assert_eq!(a.mul(&a).to_hex(), "fffffffe00000001");
    }

    #[test]
    fn div_rem_small_and_large() {
        let (q, r) = big(1000).div_rem(&big(7));
        assert_eq!(q, big(142));
        assert_eq!(r, big(6));

        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0").unwrap();
        let b = BigUint::from_hex("fedcba9876543").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_to(&b) == Ordering::Less);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(5).div_rem(&BigUint::zero());
    }

    /// `a / d` by the word-level division, checked against the bitwise
    /// reference and against the two identities that define a quotient and
    /// remainder.
    fn assert_div_matches_reference(a: &BigUint, d: &BigUint) {
        let (q, r) = a.div_rem(d);
        assert_eq!(q.mul(d).add(&r), *a, "q·d + r == a for {a} / {d}");
        assert!(r < *d, "r < d for {a} / {d}");
        assert_eq!((q, r), a.div_rem_bitwise(d), "{a} / {d}");
    }

    /// A `limbs`-limb value in one of the shapes that stress a limb-wise
    /// division: uniform, every limb all-ones, interior limbs zero, or a
    /// mix of all-ones, zero and random limbs.
    fn patterned(rng: &mut StdRng, limbs: usize, shape: u32) -> Vec<u32> {
        (0..limbs)
            .map(|i| match shape % 4 {
                0 => rng.gen::<u32>(),
                1 => u32::MAX,
                2 if i > 0 && i + 1 < limbs => 0,
                2 => rng.gen::<u32>() | 1,
                _ => match rng.gen::<u32>() % 3 {
                    0 => u32::MAX,
                    1 => 0,
                    _ => rng.gen::<u32>(),
                },
            })
            .collect()
    }

    #[test]
    fn div_rem_matches_the_bitwise_reference_on_seeded_operands() {
        let mut rng = StdRng::seed_from_u64(0xD1_71DE);
        let mut widest_dividend = 0usize;
        let mut widest_divisor = 0usize;
        for checked in 0..10_000usize {
            // Most pairs are a few limbs wide (the reference costs one
            // pass per dividend bit); every eighth is as wide as the
            // R² mod n reduction of a 1,024-bit Montgomery context.
            let wide = checked.is_multiple_of(8);
            let d_limbs = 2 + rng.gen::<u32>() as usize % if wide { 33 } else { 6 };
            let extra = rng.gen::<u32>() as usize % if wide { 33 } else { 8 };
            let shape = rng.gen::<u32>();

            let mut d = patterned(&mut rng, d_limbs, shape);
            let top = match (shape >> 2) % 4 {
                0 => 0x8000_0000,
                1 => 0xFFFF_FFFF,
                2 => 1,
                _ => rng.gen::<u32>() | 1,
            };
            *d.last_mut().unwrap() = top;
            let d = BigUint::from_limbs(d);
            assert!((33..=1_100).contains(&d.bits()));

            let a = match (shape >> 4) % 4 {
                // dividend = k·divisor ± 1: a remainder of d − 1 or 1.
                0 => {
                    let k = BigUint::from_limbs(patterned(&mut rng, extra + 1, shape >> 6));
                    k.mul(&d).add(&BigUint::one())
                }
                1 => {
                    let k = BigUint::from_limbs(patterned(&mut rng, extra + 1, shape >> 6));
                    k.add(&BigUint::one()).mul(&d).sub(&BigUint::one())
                }
                _ => BigUint::from_limbs(patterned(&mut rng, d_limbs + extra, shape >> 6)),
            };
            assert!(a.bits() <= 2_144);
            widest_dividend = widest_dividend.max(a.bits());
            widest_divisor = widest_divisor.max(d.bits());
            assert_div_matches_reference(&a, &d);
        }
        assert!(widest_dividend > 2_000 && widest_divisor > 1_000);
        // With this many patterned operands the estimate is lowered often;
        // the add-back is pinned by the hand-built vectors below.
        assert!(QHAT_CORRECTIONS.with(|c| c.get()) > 100);
    }

    #[test]
    fn div_rem_hand_built_vectors_reach_correction_and_add_back() {
        // The multi-limb `divmnu` cases of Hacker's Delight (§9-2), limbs
        // little-endian: (dividend, divisor, quotient, remainder, whether
        // step D6 must add back).
        type Case = (
            &'static [u32],
            &'static [u32],
            &'static [u32],
            &'static [u32],
            bool,
        );
        let cases: &[Case] = &[
            (&[0, 7], &[0, 3], &[2], &[0, 1], false),
            (&[5, 7], &[0, 3], &[2], &[5, 1], false),
            (
                &[0, 0x8000_0000],
                &[1, 0x4000_0000],
                &[1],
                &[0xffff_ffff, 0x3fff_ffff],
                false,
            ),
            // The first estimate is b + 1.
            (
                &[0, 0xfffe, 0x8000],
                &[0xffff, 0x8000],
                &[0xffff_ffff, 0],
                &[0xffff, 0x7fff],
                false,
            ),
            (
                &[3, 0, 0x8000_0000],
                &[1, 0, 0x2000_0000],
                &[3],
                &[0, 0, 0x2000_0000],
                true,
            ),
            (
                &[3, 0, 0x8000],
                &[1, 0, 0x2000],
                &[3],
                &[0, 0, 0x2000],
                true,
            ),
            (
                &[0, 0, 0x8000, 0x7fff],
                &[1, 0, 0x8000],
                &[0xfffe_0000, 0],
                &[0x0002_0000, 0xffff_ffff, 0x7fff],
                true,
            ),
            // The multiply-subtract quantity cannot be treated as signed.
            (
                &[0, 0xfffe, 0, 0x8000],
                &[0xffff, 0, 0x8000],
                &[0xffff_ffff, 0],
                &[0xffff, 0xffff_ffff, 0x7fff],
                true,
            ),
            (
                &[0, 0xffff_fffe, 0, 0x8000_0000],
                &[0xffff, 0, 0x8000_0000],
                &[0, 1],
                &[0, 0xfffe_ffff, 0],
                false,
            ),
            (
                &[0, 0xffff_fffe, 0, 0x8000_0000],
                &[0xffff_ffff, 0, 0x8000_0000],
                &[0xffff_ffff, 0],
                &[0xffff_ffff, 0xffff_ffff, 0x7fff_ffff],
                true,
            ),
        ];
        let corrections_before = QHAT_CORRECTIONS.with(|c| c.get());
        for &(u, v, q, r, adds_back) in cases {
            let (a, d) = (
                BigUint::from_limbs(u.to_vec()),
                BigUint::from_limbs(v.to_vec()),
            );
            let add_backs_before = ADD_BACKS.with(|c| c.get());
            let got = a.div_rem(&d);
            let want = (
                BigUint::from_limbs(q.to_vec()),
                BigUint::from_limbs(r.to_vec()),
            );
            assert_eq!(got, want, "{a} / {d}");
            assert_eq!(
                ADD_BACKS.with(|c| c.get()) - add_backs_before,
                adds_back as u64,
                "add-back steps in {a} / {d}"
            );
            assert_div_matches_reference(&a, &d);
        }
        assert!(QHAT_CORRECTIONS.with(|c| c.get()) > corrections_before);
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(40).shr(40), big(1));
        assert_eq!(big(0b1011).shl(2), big(0b101100));
        assert_eq!(big(0b101100).shr(2), big(0b1011));
        assert_eq!(big(12345).shr(64), BigUint::zero());
    }

    #[test]
    fn mod_pow_known() {
        // 4^13 mod 497 = 445
        assert_eq!(big(4).mod_pow(&big(13), &big(497)), big(445));
        // Fermat's little theorem: a^(p-1) = 1 mod p
        assert_eq!(big(7).mod_pow(&big(1008), &big(1009)), big(1));
        // modulus one
        assert_eq!(big(7).mod_pow(&big(3), &BigUint::one()), BigUint::zero());
    }

    #[test]
    fn mod_inverse_known() {
        // 3 * 4 = 12 = 1 mod 11
        assert_eq!(big(3).mod_inverse(&big(11)), Some(big(4)));
        // Non-coprime -> None
        assert_eq!(big(6).mod_inverse(&big(9)), None);
        // Large-ish case checked by multiplication
        let m = BigUint::from_hex("ffffffffffffffc5").unwrap(); // prime
        let a = BigUint::from_hex("123456789abcdef").unwrap();
        let inv = a.mod_inverse(&m).unwrap();
        assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(big(54).gcd(&big(24)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        assert_eq!(big(0).gcd(&big(5)), big(5));
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let bound = BigUint::from_hex("10000000000000000000001").unwrap();
        for _ in 0..50 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v.cmp_to(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn random_exact_bits_has_top_bit() {
        let mut rng = StdRng::seed_from_u64(9);
        for bits in [1usize, 7, 32, 33, 64, 127, 256] {
            let v = BigUint::random_exact_bits(&mut rng, bits);
            assert_eq!(v.bits(), bits, "bits = {bits}");
        }
    }

    #[test]
    fn ordering_consistency() {
        let a = big(100);
        let b = big(200);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp_to(&a), Ordering::Equal);
    }

    #[test]
    fn sub_mod_wraps() {
        let m = big(97);
        assert_eq!(big(5).sub_mod(&big(10), &m), big(92));
        assert_eq!(big(10).sub_mod(&big(5), &m), big(5));
    }

    proptest::proptest! {
        #[test]
        fn prop_add_sub_roundtrip(a in 0u64..u64::MAX/2, b in 0u64..u64::MAX/2) {
            let ba = big(a);
            let bb = big(b);
            proptest::prop_assert_eq!(ba.add(&bb).sub(&bb), ba);
        }

        #[test]
        fn prop_div_rem_reconstructs(a in 1u64.., b in 1u64..) {
            let ba = big(a);
            let bb = big(b);
            let (q, r) = ba.div_rem(&bb);
            proptest::prop_assert_eq!(q.mul(&bb).add(&r), ba);
            proptest::prop_assert!(r < bb);
        }

        #[test]
        fn prop_mul_matches_u128(a in 0u64.., b in 0u64..) {
            let expected = (a as u128) * (b as u128);
            let got = big(a).mul(&big(b));
            let bytes = got.to_bytes_be();
            let mut buf = [0u8; 16];
            buf[16 - bytes.len()..].copy_from_slice(&bytes);
            proptest::prop_assert_eq!(u128::from_be_bytes(buf), expected);
        }

        #[test]
        fn prop_mod_pow_matches_u128(base in 0u64..1000, exp in 0u64..20, modulus in 2u64..100_000) {
            let mut expected: u128 = 1;
            for _ in 0..exp {
                expected = expected * (base as u128) % (modulus as u128);
            }
            let got = big(base).mod_pow(&big(exp), &big(modulus));
            proptest::prop_assert_eq!(got.to_u64().unwrap() as u128, expected);
        }

        #[test]
        fn prop_bytes_roundtrip(bytes in proptest::collection::vec(0u8..=255, 1..40)) {
            let v = BigUint::from_bytes_be(&bytes);
            let back = v.to_bytes_be();
            // Compare numerically (leading zeros are dropped).
            let v2 = BigUint::from_bytes_be(&back);
            proptest::prop_assert_eq!(v, v2);
        }
    }
}

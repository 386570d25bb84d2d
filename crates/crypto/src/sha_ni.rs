//! The SHA-256 compression function through the x86-64 SHA extensions
//! (`sha256rnds2` does two rounds an instruction, `sha256msg1` / `msg2` the
//! message schedule), ≈5× the portable function in [`crate::sha256`] — which
//! stays the reference this kernel is held equal to, and what runs where the
//! CPU lacks the extension.
//!
//! One kernel, generic over its lane count `L` (1 or 2): it folds `L`
//! independent messages in lockstep, the same number of blocks each. A hash
//! is one long dependent chain of `sha256rnds2`, so a second, unrelated chain
//! interleaved with it fills cycles the first leaves idle (on a 2-core Xeon
//! host: a block ≈37 ns alone, ≈29 ns a lane in two; four lanes spill
//! registers and lose). Two more ways it saves work:
//!
//! * a block is read sixteen bytes at a time and byte-swapped in the
//!   register (`loadu` + `pshufb`), not assembled word by word;
//! * the padding block of a 64-byte message — the second block of every
//!   `H(a ‖ b)` — is the same for every message, so its schedule plus the
//!   round constants (`W + K`) is a `const` table, and that block is the
//!   thirty-two `sha256rnds2` alone, with no `msg1` / `msg2`.
//!
//! This file holds the crate's only `unsafe`: the call into code compiled
//! for instructions the CPU was just asked about, and the two unaligned
//! sixteen-byte loads that code makes.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8,
};

use crate::sha256::{K, PAD64};

/// `W + K` for the padding block of a 64-byte message: its sixteen words,
/// the forty-eight the schedule derives from them, and the round constants,
/// added at compile time.
const PAD64_WK: [[u32; 4]; 16] = {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        let b = [
            PAD64[4 * i],
            PAD64[4 * i + 1],
            PAD64[4 * i + 2],
            PAD64[4 * i + 3],
        ];
        w[i] = u32::from_be_bytes(b);
        i += 1;
    }
    while i < 64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
        i += 1;
    }
    let mut wk = [[0u32; 4]; 16];
    i = 0;
    while i < 64 {
        wk[i / 4][i % 4] = w[i].wrapping_add(K[i]);
        i += 1;
    }
    wk
};

/// The round constants four to a group, as the kernel loads them.
const K4: [[u32; 4]; 16] = {
    let mut k = [[0u32; 4]; 16];
    let mut i = 0;
    while i < 64 {
        k[i / 4][i % 4] = K[i];
        i += 1;
    }
    k
};

/// Folds each lane's `blocks[l]` (whole 64-byte blocks, as many in every
/// lane) into `states[l]` and then, with `pad64`, the padding block of a
/// 64-byte message. Returns `true` on the hardware path; returns `false`,
/// `states` untouched, when this CPU lacks the instructions. std caches the
/// detection in an atomic.
pub(crate) fn compress_lanes<const L: usize>(
    states: &mut [[u32; 8]; L],
    blocks: [&[u8]; L],
    pad64: bool,
) -> bool {
    let detected = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    if detected {
        // SAFETY: every feature `compress_lanes_sha` is compiled for (sse2
        // is x86-64 baseline) was detected on the running CPU just above.
        unsafe { compress_lanes_sha(states, blocks, pad64) };
    }
    detected
}

/// Four words to a register, `w[0]` in the lowest lane.
#[inline]
#[target_feature(enable = "sse2")]
fn load_words(w: &[u32; 4]) -> __m128i {
    // SAFETY: `w` is sixteen readable bytes, and `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(w.as_ptr().cast()) }
}

/// Four big-endian words to a register, the first in the lowest lane.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn load_be_words(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: as in `load_words`: sixteen readable bytes, any alignment.
    let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) };
    _mm_shuffle_epi8(
        raw,
        _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203),
    )
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_lanes_sha<const L: usize>(states: &mut [[u32; 8]; L], blocks: [&[u8]; L], pad64: bool) {
    let len = blocks.first().map_or(0, |b| b.len());
    assert!(
        len.is_multiple_of(64) && blocks.iter().all(|b| b.len() == len),
        "whole blocks, as many in every lane"
    );
    // `sha256rnds2` wants the state split this way (Intel writes the two
    // registers from the highest lane down: ABEF and CDGH).
    let lanes = |w: [u32; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
    let mut feba: [__m128i; L] =
        std::array::from_fn(|l| lanes([states[l][5], states[l][4], states[l][1], states[l][0]]));
    let mut hgdc: [__m128i; L] =
        std::array::from_fn(|l| lanes([states[l][7], states[l][6], states[l][3], states[l][2]]));

    for at in (0..len).step_by(64) {
        let (feba_in, hgdc_in) = (feba, hgdc);
        // Each lane's block as four registers of four words. `m0` is the
        // group's own words; the four turn one place a group, so `m1` is
        // refilled four words ahead (msg2, fed by the msg1 that started on
        // `m3` one group earlier) and no index is computed.
        let [mut m0, mut m1, mut m2, mut m3]: [[__m128i; L]; 4] = std::array::from_fn(|j| {
            std::array::from_fn(|l| {
                let words = &blocks[l][at + 16 * j..at + 16 * j + 16];
                load_be_words(words.try_into().expect("16 bytes"))
            })
        });
        for (group, k) in K4.iter().enumerate() {
            let k = load_words(k);
            let wk: [__m128i; L] = std::array::from_fn(|l| _mm_add_epi32(m0[l], k));
            for l in 0..L {
                hgdc[l] = _mm_sha256rnds2_epu32(hgdc[l], feba[l], wk[l]);
            }
            if (3..15).contains(&group) {
                for l in 0..L {
                    let w_minus_7 = _mm_alignr_epi8(m0[l], m3[l], 4);
                    m1[l] = _mm_sha256msg2_epu32(_mm_add_epi32(m1[l], w_minus_7), m0[l]);
                }
            }
            for l in 0..L {
                feba[l] = _mm_sha256rnds2_epu32(feba[l], hgdc[l], _mm_shuffle_epi32(wk[l], 0x0e));
            }
            if (1..13).contains(&group) {
                for l in 0..L {
                    m3[l] = _mm_sha256msg1_epu32(m3[l], m0[l]);
                }
            }
            (m0, m1, m2, m3) = (m1, m2, m3, m0);
        }
        for l in 0..L {
            feba[l] = _mm_add_epi32(feba[l], feba_in[l]);
            hgdc[l] = _mm_add_epi32(hgdc[l], hgdc_in[l]);
        }
    }

    if pad64 {
        // The padding block's schedule is fixed: its rounds and nothing else.
        let (feba_in, hgdc_in) = (feba, hgdc);
        for wk in &PAD64_WK {
            let wk = load_words(wk);
            let wk_high = _mm_shuffle_epi32(wk, 0x0e);
            for l in 0..L {
                hgdc[l] = _mm_sha256rnds2_epu32(hgdc[l], feba[l], wk);
            }
            for l in 0..L {
                feba[l] = _mm_sha256rnds2_epu32(feba[l], hgdc[l], wk_high);
            }
        }
        for l in 0..L {
            feba[l] = _mm_add_epi32(feba[l], feba_in[l]);
            hgdc[l] = _mm_add_epi32(hgdc[l], hgdc_in[l]);
        }
    }

    let words = |v: __m128i| {
        let w = [
            _mm_extract_epi32(v, 0),
            _mm_extract_epi32(v, 1),
            _mm_extract_epi32(v, 2),
            _mm_extract_epi32(v, 3),
        ];
        w.map(|lane| lane as u32)
    };
    for (state, (feba, hgdc)) in states.iter_mut().zip(feba.into_iter().zip(hgdc)) {
        let ([f, e, b, a], [h, g, d, c]) = (words(feba), words(hgdc));
        *state = [a, b, c, d, e, f, g, h];
    }
}

//! The SHA-256 compression function through the x86-64 SHA extensions
//! (`sha256rnds2` does two rounds an instruction, `sha256msg1` / `msg2` the
//! message schedule), ≈5× the portable function in [`crate::sha256`] — which
//! stays the reference this kernel is held equal to, and what runs where the
//! CPU lacks the extension. This file holds the crate's only `unsafe`: the
//! call into code compiled for instructions the CPU was just asked about.

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
};

use crate::sha256::K;

/// Folds `blocks` (whole 64-byte blocks) into `state` on the hardware path
/// and returns `true`; returns `false`, `state` untouched, when this CPU
/// lacks the instructions. std caches the detection in an atomic.
pub(crate) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    let detected = is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1");
    if detected {
        // SAFETY: every feature `compress_blocks_sha` is compiled for (sse2
        // is x86-64 baseline) was detected on the running CPU just above.
        unsafe { compress_blocks_sha(state, blocks) };
    }
    detected
}

#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    // Four words to and from a register, `w[0]` in the lowest lane.
    let lanes = |w: [u32; 4]| _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32);
    let words = |v: __m128i| {
        let w = [
            _mm_extract_epi32(v, 0),
            _mm_extract_epi32(v, 1),
            _mm_extract_epi32(v, 2),
            _mm_extract_epi32(v, 3),
        ];
        w.map(|lane| lane as u32)
    };
    // `sha256rnds2` wants the state split this way (Intel writes the two
    // registers from the highest lane down: ABEF and CDGH).
    let [a, b, c, d, e, f, g, h] = *state;
    let mut feba = lanes([f, e, b, a]);
    let mut hgdc = lanes([h, g, d, c]);

    for block in blocks.chunks_exact(64) {
        let (feba_in, hgdc_in) = (feba, hgdc);
        // The block's sixteen big-endian words, four to a register.
        let mut m: [__m128i; 4] = std::array::from_fn(|i| {
            lanes(std::array::from_fn(|j| {
                let at = 16 * i + 4 * j;
                u32::from_be_bytes(block[at..at + 4].try_into().expect("four bytes"))
            }))
        });
        // Sixteen groups of four rounds; group g consumes w[4g..4g+4] from
        // m[g % 4], which groups 3..15 refill four words ahead (msg2, fed by
        // the msg1 that groups 1..13 start one group earlier).
        for group in 0..16 {
            let cur = m[group % 4];
            let wk = _mm_add_epi32(cur, lanes(std::array::from_fn(|j| K[4 * group + j])));
            hgdc = _mm_sha256rnds2_epu32(hgdc, feba, wk);
            if (3..15).contains(&group) {
                let next = (group + 1) % 4;
                let w_minus_7 = _mm_alignr_epi8(cur, m[(group + 3) % 4], 4);
                m[next] = _mm_sha256msg2_epu32(_mm_add_epi32(m[next], w_minus_7), cur);
            }
            feba = _mm_sha256rnds2_epu32(feba, hgdc, _mm_shuffle_epi32(wk, 0x0e));
            if (1..13).contains(&group) {
                let prev = (group + 3) % 4;
                m[prev] = _mm_sha256msg1_epu32(m[prev], cur);
            }
        }
        feba = _mm_add_epi32(feba, feba_in);
        hgdc = _mm_add_epi32(hgdc, hgdc_in);
    }

    let ([f, e, b, a], [h, g, d, c]) = (words(feba), words(hgdc));
    *state = [a, b, c, d, e, f, g, h];
}

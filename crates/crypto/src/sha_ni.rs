//! Two SHA-256 compression kernels for x86-64, in one reviewed file: the
//! SHA extensions' (`sha256rnds2` does two rounds an instruction,
//! `sha256msg1` / `msg2` the message schedule), ≈5× the portable function
//! in [`crate::sha256`], and a sixteen-lane AVX-512 kernel. The portable
//! function stays the reference both are held equal to, and what runs
//! where the CPU lacks the instructions.
//!
//! The SHA-extension kernel is generic over its lane count `L` (1 or 2): it
//! folds `L` independent messages in lockstep, the same number of blocks
//! each. A hash is one long dependent chain of `sha256rnds2`, so a second,
//! unrelated chain interleaved with it fills cycles the first leaves idle
//! (on a 2-vCPU 2.0 GHz Xeon VM: a block ≈37 ns alone, ≈29 ns a lane in
//! two; four lanes spill registers and lose). Two more ways it saves work:
//!
//! * a block is read sixteen bytes at a time and byte-swapped in the
//!   register (`loadu` + `pshufb`), not assembled word by word;
//! * the padding block of a 64-byte message — the second block of every
//!   `H(a ‖ b)` — is the same for every message, so its schedule plus the
//!   round constants (`W + K`) is a `const` table, and that block is the
//!   thirty-two `sha256rnds2` alone, with no `msg1` / `msg2`.
//!
//! The sixteen-lane kernel is multi-buffer hashing (Gueron & Krasnov,
//! *Simultaneous Hashing of Multiple Messages*, 2012): sixteen messages,
//! one in each 32-bit lane of a 512-bit register, every round's rotations
//! (`vprord`) and boolean functions (`vpternlogd`: `Ch`, `Maj` and three-way
//! xor in one instruction each) done for all sixteen at once. Each lane's
//! block is one 64-byte load, byte-swapped (`vpshufb`) and transposed into
//! word-per-register form in registers; the schedule rolls through sixteen
//! registers, and the padding block's rounds broadcast the same `W + K`
//! table. It has no chain to wait on, so it wins wherever sixteen messages
//! are ready at once (on the same VM, through the public functions
//! including padding and digest output: ≈35–45 ns a one-block message and
//! ≈42–52 ns an `H(a ‖ b)`, against 75–99 and 95–113 ns two at a time).
//!
//! This file holds the crate's only `unsafe`: the calls into code compiled
//! for instructions the CPU was just asked about, and the unaligned loads
//! and stores that code makes.

use core::arch::x86_64::{
    __m128i, __m512i, _mm512_add_epi32, _mm512_loadu_si512, _mm512_ror_epi32, _mm512_set1_epi32,
    _mm512_set_epi64, _mm512_shuffle_epi8, _mm512_shuffle_i32x4, _mm512_srli_epi32,
    _mm512_storeu_si512, _mm512_ternarylogic_epi32, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
    _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm_add_epi32, _mm_alignr_epi8,
    _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32,
    _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8,
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

/// Folds sixteen lanes' `blocks[l]` (whole 64-byte blocks, as many in every
/// lane) into `states[l]` and then, with `pad64`, the padding block of a
/// 64-byte message — [`compress_lanes`]' contract for sixteen lanes, on
/// AVX-512. Returns `false`, `states` untouched, when this CPU lacks
/// `avx512f` or `avx512bw`.
pub(crate) fn compress_sixteen(
    states: &mut [[u32; 8]; 16],
    blocks: [&[u8]; 16],
    pad64: bool,
) -> bool {
    let detected = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw");
    if detected {
        // SAFETY: both features `compress_sixteen_avx512` is compiled for
        // were detected on the running CPU just above.
        unsafe { compress_sixteen_avx512(states, blocks, pad64) };
    }
    detected
}

/// Sixteen words to a register, `w[0]` in the lowest lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_words_512(w: &[u32; 16]) -> __m512i {
    // SAFETY: `w` is sixty-four readable bytes, and `loadu` has no
    // alignment requirement.
    unsafe { _mm512_loadu_si512(w.as_ptr().cast()) }
}

/// A register's sixteen words to `w`, the lowest lane in `w[0]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_words_512(w: &mut [u32; 16], v: __m512i) {
    // SAFETY: `w` is sixty-four writable bytes, and `storeu` has no
    // alignment requirement.
    unsafe { _mm512_storeu_si512(w.as_mut_ptr().cast(), v) }
}

/// A 64-byte block's sixteen big-endian words to a register, the first in
/// the lowest lane.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn load_be_block(bytes: &[u8; 64]) -> __m512i {
    // SAFETY: as in `load_words_512`: sixty-four readable bytes, any
    // alignment.
    let raw = unsafe { _mm512_loadu_si512(bytes.as_ptr().cast()) };
    let swap = 0x0c0d0e0f_08090a0b_u64 as i64;
    let swap_low = 0x04050607_00010203;
    _mm512_shuffle_epi8(
        raw,
        _mm512_set_epi64(
            swap, swap_low, swap, swap_low, swap, swap_low, swap, swap_low,
        ),
    )
}

/// Transposes four registers as four 4 × 4 matrices of words, one in each
/// 128-bit quarter: word `j` of quarter `q` of `out[i]` is word `i` of
/// quarter `q` of `rows[j]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose_words(rows: [__m512i; 4]) -> [__m512i; 4] {
    let [r0, r1, r2, r3] = rows;
    let (low01, low23) = (_mm512_unpacklo_epi32(r0, r1), _mm512_unpacklo_epi32(r2, r3));
    let (high01, high23) = (_mm512_unpackhi_epi32(r0, r1), _mm512_unpackhi_epi32(r2, r3));
    [
        _mm512_unpacklo_epi64(low01, low23),
        _mm512_unpackhi_epi64(low01, low23),
        _mm512_unpacklo_epi64(high01, high23),
        _mm512_unpackhi_epi64(high01, high23),
    ]
}

/// Transposes four registers as one 4 × 4 matrix of 128-bit quarters:
/// quarter `j` of `out[i]` is quarter `i` of `rows[j]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose_quarters(rows: [__m512i; 4]) -> [__m512i; 4] {
    let [r0, r1, r2, r3] = rows;
    // Quarters 0 and 2, then 1 and 3, of each pair of rows.
    let even01 = _mm512_shuffle_i32x4::<0x88>(r0, r1);
    let odd01 = _mm512_shuffle_i32x4::<0xdd>(r0, r1);
    let even23 = _mm512_shuffle_i32x4::<0x88>(r2, r3);
    let odd23 = _mm512_shuffle_i32x4::<0xdd>(r2, r3);
    [
        _mm512_shuffle_i32x4::<0x88>(even01, even23),
        _mm512_shuffle_i32x4::<0x88>(odd01, odd23),
        _mm512_shuffle_i32x4::<0xdd>(even01, even23),
        _mm512_shuffle_i32x4::<0xdd>(odd01, odd23),
    ]
}

/// Sixteen registers of sixteen words, transposed: word `l` of `out[j]` is
/// word `j` of `rows[l]`. Each row's four quarters are transposed with those
/// of the three rows beside it, then each quarter with its three siblings.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose_16(rows: &[__m512i; 16]) -> [__m512i; 16] {
    // `by_group[g][c]`, quarter `q`: word `4q + c` of rows `4g..4g + 4`.
    let mut by_group = [[rows[0]; 4]; 4];
    for (g, group) in by_group.iter_mut().enumerate() {
        *group = transpose_words([
            rows[4 * g],
            rows[4 * g + 1],
            rows[4 * g + 2],
            rows[4 * g + 3],
        ]);
    }
    let mut out = *rows;
    for c in 0..4 {
        let column = [
            by_group[0][c],
            by_group[1][c],
            by_group[2][c],
            by_group[3][c],
        ];
        // Quarter `g` of `words[q]`: word `4q + c` of rows `4g..4g + 4`.
        let words = transpose_quarters(column);
        for (q, word) in words.into_iter().enumerate() {
            out[4 * q + c] = word;
        }
    }
    out
}

/// `states` as eight registers of sixteen lanes: word `k` of lane `l` in
/// lane `l` of register `k`. Each pair of states is one 64-byte load.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_states(states: &[[u32; 8]; 16]) -> [__m512i; 8] {
    let (pairs, []) = states.as_chunks::<2>() else {
        unreachable!("sixteen is even")
    };
    let pair = |m: usize| load_words_512(pairs[m].as_flattened().try_into().expect("16 words"));
    // Pair `m` holds lanes `2m` (quarters 0 and 1) and `2m + 1`; lanes
    // `4q..4q + 4` are in pairs `2q` and `2q + 1`.
    let [low0, high0, low1, high1] = transpose_quarters([pair(0), pair(2), pair(4), pair(6)]);
    let [low2, high2, low3, high3] = transpose_quarters([pair(1), pair(3), pair(5), pair(7)]);
    let [a, b, c, d] = transpose_words([low0, low1, low2, low3]);
    let [e, f, g, h] = transpose_words([high0, high1, high2, high3]);
    [a, b, c, d, e, f, g, h]
}

/// [`load_states`] backwards: the eight registers into `states`.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_states(states: &mut [[u32; 8]; 16], words: [__m512i; 8]) {
    let [a, b, c, d, e, f, g, h] = words;
    let [low0, low1, low2, low3] = transpose_words([a, b, c, d]);
    let [high0, high1, high2, high3] = transpose_words([e, f, g, h]);
    let [p0, p2, p4, p6] = transpose_quarters([low0, high0, low1, high1]);
    let [p1, p3, p5, p7] = transpose_quarters([low2, high2, low3, high3]);
    let (pairs, []) = states.as_chunks_mut::<2>() else {
        unreachable!("sixteen is even")
    };
    for (pair, words) in pairs.iter_mut().zip([p0, p1, p2, p3, p4, p5, p6, p7]) {
        store_words_512(pair.as_flattened_mut().try_into().expect("16 words"), words);
    }
}

/// The eight working variables `a..h` of every lane, one register each.
type State = [__m512i; 8];

/// One SHA-256 round in every lane: `wk` is the round's `W + K`.
#[inline]
#[target_feature(enable = "avx512f")]
fn round(state: State, wk: __m512i) -> State {
    let [a, b, c, d, e, f, g, h] = state;
    // 0x96 is x ^ y ^ z, 0xca is x ? y : z (Ch), 0xe8 the majority (Maj).
    let sigma1 = _mm512_ternarylogic_epi32::<0x96>(
        _mm512_ror_epi32::<6>(e),
        _mm512_ror_epi32::<11>(e),
        _mm512_ror_epi32::<25>(e),
    );
    let ch = _mm512_ternarylogic_epi32::<0xca>(e, f, g);
    let t1 = _mm512_add_epi32(_mm512_add_epi32(h, wk), _mm512_add_epi32(sigma1, ch));
    let sigma0 = _mm512_ternarylogic_epi32::<0x96>(
        _mm512_ror_epi32::<2>(a),
        _mm512_ror_epi32::<13>(a),
        _mm512_ror_epi32::<22>(a),
    );
    let maj = _mm512_ternarylogic_epi32::<0xe8>(a, b, c);
    let t2 = _mm512_add_epi32(sigma0, maj);
    [
        _mm512_add_epi32(t1, t2),
        a,
        b,
        c,
        _mm512_add_epi32(d, t1),
        e,
        f,
        g,
    ]
}

/// `W[i]` for `i` in `16..64` from `W[i - 16..i]`, given as its ends
/// `W[i - 16]`, `W[i - 15]`, `W[i - 7]` and `W[i - 2]`.
#[inline]
#[target_feature(enable = "avx512f")]
fn schedule(w16: __m512i, w15: __m512i, w7: __m512i, w2: __m512i) -> __m512i {
    let s0 = _mm512_ternarylogic_epi32::<0x96>(
        _mm512_ror_epi32::<7>(w15),
        _mm512_ror_epi32::<18>(w15),
        _mm512_srli_epi32::<3>(w15),
    );
    let s1 = _mm512_ternarylogic_epi32::<0x96>(
        _mm512_ror_epi32::<17>(w2),
        _mm512_ror_epi32::<19>(w2),
        _mm512_srli_epi32::<10>(w2),
    );
    _mm512_add_epi32(_mm512_add_epi32(w16, s0), _mm512_add_epi32(w7, s1))
}

/// Eight rounds in every lane, `wk` their `W + K` in order: after eight,
/// each working variable is back in its own register.
#[inline]
#[target_feature(enable = "avx512f")]
fn eight_rounds(state: State, wk: [__m512i; 8]) -> State {
    let [wk0, wk1, wk2, wk3, wk4, wk5, wk6, wk7] = wk;
    let state = round(round(round(round(state, wk0), wk1), wk2), wk3);
    round(round(round(round(state, wk4), wk5), wk6), wk7)
}

/// `x + y`, word by word.
#[inline]
#[target_feature(enable = "avx512f")]
fn add_states(x: State, y: State) -> State {
    let mut sum = x;
    for (sum, y) in sum.iter_mut().zip(y) {
        *sum = _mm512_add_epi32(*sum, y);
    }
    sum
}

#[target_feature(enable = "avx512f,avx512bw")]
fn compress_sixteen_avx512(states: &mut [[u32; 8]; 16], blocks: [&[u8]; 16], pad64: bool) {
    let len = blocks[0].len();
    assert!(
        len.is_multiple_of(64) && blocks.iter().all(|b| b.len() == len),
        "whole blocks, as many in every lane"
    );
    let mut state = load_states(states);
    for at in (0..len).step_by(64) {
        let mut rows = [state[0]; 16];
        for (row, lane) in rows.iter_mut().zip(blocks) {
            *row = load_be_block(lane[at..at + 64].try_into().expect("64 bytes"));
        }
        // A rolling schedule: `w[i % 16]` holds `W[i]` from round `i` on.
        let mut w = transpose_16(&rows);
        let start = state;
        for (first, k) in (0..64).step_by(8).zip(K.as_chunks::<8>().0) {
            let mut wk = [state[0]; 8];
            for (j, wk) in wk.iter_mut().enumerate() {
                let i = first + j;
                if i >= 16 {
                    w[i % 16] = schedule(
                        w[i % 16],
                        w[(i + 1) % 16],
                        w[(i + 9) % 16],
                        w[(i + 14) % 16],
                    );
                }
                *wk = _mm512_add_epi32(w[i % 16], _mm512_set1_epi32(k[j] as i32));
            }
            state = eight_rounds(state, wk);
        }
        state = add_states(state, start);
    }
    if pad64 {
        // The padding block's `W + K` is one constant a round, every lane.
        let start = state;
        for constants in PAD64_WK.as_flattened().as_chunks::<8>().0 {
            let mut wk = [state[0]; 8];
            for (wk, &constant) in wk.iter_mut().zip(constants) {
                *wk = _mm512_set1_epi32(constant as i32);
            }
            state = eight_rounds(state, wk);
        }
        state = add_states(state, start);
    }
    store_states(states, state);
}

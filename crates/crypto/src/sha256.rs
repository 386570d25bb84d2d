//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! The paper uses SHA-256 as the one-way hash `H(·)` for both the FMH-tree
//! (Merkle hashing of sorted function lists) and the IMH-tree (hashing of
//! intersection nodes), as well as inside the baseline signature mesh.
//!
//! Three functions compress blocks. On x86-64 CPUs with the SHA extensions
//! (detected at run time) it is the SHA-extension kernel in `sha_ni`, and on
//! x86-64 CPUs with AVX-512 (`avx512f` + `avx512bw`) a batch of sixteen
//! messages goes to the sixteen-lane kernel beside it; everywhere else —
//! other architectures, x86-64 hosts without the extensions — it is the
//! scalar `compress_blocks_portable` below, written for clarity because it
//! is also the reference the tests hold both kernels equal to, block by
//! block. Nothing selects between them but the CPU and the batch length.
//!
//! All of them sit behind one dispatch over *lanes*: one, two or sixteen
//! independent messages, as many blocks each, folded in lockstep, and
//! optionally finished by the padding block of a 64-byte message, which
//! the kernels take from a constant table. One or two lanes run on the
//! SHA-extension kernel (it interleaves the two hashes) or the portable
//! path (one after the other). Sixteen lanes run on the sixteen-lane
//! kernel, one message in each 32-bit lane of a 512-bit register, where the
//! CPU has AVX-512, and as eight two-lane calls where it does not. A
//! verified answer is hundreds of record- and pair-sized hashes and little
//! else, so the one-shot functions pad on the stack and come in four
//! shapes:
//!
//! * [`sha256`] — one message of any length, one lane;
//! * [`sha256_pair`] / [`sha256_pairs`] — `H(a ‖ b)` of one pair, or of
//!   every pair of a Merkle layer: each full group of sixteen parents in
//!   sixteen lanes, the rest two at a time (an odd tail on one lane); a
//!   64-byte message is one block plus the constant padding;
//! * [`sha256_two`] — two messages of one padded block each (at most
//!   [`ONE_BLOCK_MAX`] bytes: a record of up to five attributes), in two
//!   lanes; a longer message takes [`sha256`];
//! * [`sha256_sixteen`] — sixteen such messages, staged by the caller in
//!   the blocks they are padded in, in sixteen lanes.
//!
//! So a batch reaches the sixteen-lane kernel only when it holds sixteen
//! messages: a point query's dozen records and its short Merkle layers
//! keep the one- and two-lane paths.

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use vaq_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(
///     hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(d: &[u8]) -> String { d.iter().map(|b| format!("{b:02x}")).collect() }
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled block awaiting compression.
    buffer: [u8; 64],
    /// Number of valid bytes in `buffer`.
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher with the standard initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // A piece that leaves the block unfinished is only a copy — inlined,
        // a fixed-size store when the caller's piece has a fixed size.
        let end = self.buffer_len + data.len();
        if end < 64 {
            self.buffer[self.buffer_len..end].copy_from_slice(data);
            self.buffer_len = end;
        } else {
            self.absorb_blocks(data);
        }
    }

    /// [`update`](Self::update) for `data` that completes at least one block.
    fn absorb_blocks(&mut self, data: &[u8]) {
        // Complete and compress the partial block, if there is one.
        let (head, rest) = data.split_at((64 - self.buffer_len) % 64);
        if !head.is_empty() {
            self.buffer[self.buffer_len..].copy_from_slice(head);
            compress_blocks(&mut self.state, &self.buffer);
        }
        // Whole blocks straight from the input, in one call, then stash the
        // tail.
        let (whole, tail) = rest.split_at(rest.len() & !63);
        compress_blocks(&mut self.state, whole);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finishes the computation and returns the digest.
    pub fn finalize(self) -> Digest {
        finish(self.state, &self.buffer[..self.buffer_len], self.total_len)
    }
}

/// The padding block of a 64-byte message: 0x80, zeros, then the bit length
/// (512 = 0x0200) as a 64-bit big-endian integer.
pub(crate) const PAD64: [u8; 64] = {
    let mut pad = [0u8; 64];
    pad[0] = 0x80;
    pad[62] = 0x02;
    pad
};

/// The longest message that pads into one block (the 0x80 byte and the
/// 64-bit length take the other nine): what [`sha256_two`] hashes in two
/// lanes and [`sha256_sixteen`] in sixteen.
pub const ONE_BLOCK_MAX: usize = 55;

/// Folds `blocks` (whole 64-byte blocks) into `state`, on the hardware path
/// where the CPU has one.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    compress_lanes(std::array::from_mut(state), [blocks], false);
}

/// Folds each lane's `blocks[l]` (whole 64-byte blocks, as many in every
/// lane) into `states[l]` and then, with `pad64`, [`PAD64`]: in lockstep
/// on the hardware path where the CPU has one, one lane after the other
/// through the portable function elsewhere.
fn compress_lanes<const L: usize>(states: &mut [[u32; 8]; L], blocks: [&[u8]; L], pad64: bool) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::compress_lanes(states, blocks, pad64) {
        #[cfg(test)]
        tests::HARDWARE_CALLS.with(|calls| calls.set(calls.get() + 1));
        return;
    }
    compress_lanes_portable(states, blocks, pad64);
}

/// [`compress_lanes`] for sixteen lanes: one call to the sixteen-lane kernel
/// where the CPU has AVX-512, eight two-lane [`compress_lanes`] elsewhere.
fn compress_sixteen(states: &mut [[u32; 8]; 16], blocks: [&[u8]; 16], pad64: bool) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha_ni::compress_sixteen(states, blocks, pad64) {
        #[cfg(test)]
        tests::SIXTEEN_LANE_CALLS.with(|calls| calls.set(calls.get() + 1));
        return;
    }
    let (pairs, []) = states.as_chunks_mut::<2>() else {
        unreachable!("sixteen is even")
    };
    for (pair, lanes) in pairs.iter_mut().zip(blocks.as_chunks::<2>().0) {
        compress_lanes(pair, *lanes, pad64);
    }
}

/// [`compress_lanes`] through the portable function alone.
fn compress_lanes_portable<const L: usize>(
    states: &mut [[u32; 8]; L],
    blocks: [&[u8]; L],
    pad64: bool,
) {
    for (state, blocks) in states.iter_mut().zip(blocks) {
        compress_blocks_portable(state, blocks);
        if pad64 {
            compress_blocks_portable(state, &PAD64);
        }
    }
}

/// The SHA-256 compression function as FIPS 180-4 writes it, over each
/// 64-byte block in turn: the portable path and the kernel's reference.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// Pads `tail` — the bytes of a `total_len`-byte message past its last whole
/// block — on the stack (0x80, zeros, the 64-bit big-endian bit length) and
/// compresses the final one or two blocks.
fn finish(mut state: [u32; 8], tail: &[u8], total_len: u64) -> Digest {
    let mut last = [0u8; 128];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] = 0x80;
    let end = if tail.len() < 56 { 64 } else { 128 };
    last[end - 8..end].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress_blocks(&mut state, &last[..end]);
    digest_of(&state)
}

fn digest_of(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot SHA-256 of a byte slice: whole blocks compressed where they
/// lie, the padded tail on the stack — a record of up to five attributes is
/// one block and one compression.
pub fn sha256(data: &[u8]) -> Digest {
    let (whole, tail) = data.split_at(data.len() & !63);
    let mut state = H0;
    compress_blocks(&mut state, whole);
    finish(state, tail, data.len() as u64)
}

/// SHA-256 of two concatenated 32-byte digests, `H(a | b)` — the Merkle-tree
/// combiner used throughout the paper.
///
/// Two digests are exactly one 64-byte compression block, and the padding
/// for a 64-byte message is a fixed second block, so this is one block and
/// the constant padding on a local state, with no buffering and no length
/// bookkeeping — the one-lane case of [`sha256_pairs`].
pub fn sha256_pair(a: &Digest, b: &Digest) -> Digest {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(a);
    block[32..].copy_from_slice(b);
    let [digest] = digests_of_64([&block]);
    digest
}

/// One Merkle layer: `out[i] = H(children[2i] ‖ children[2i + 1])`, sixteen
/// parents at a time in sixteen lanes, then the rest two at a time in two
/// lanes, an odd last parent on one.
///
/// Panics unless `children` holds exactly two digests per slot of `out`.
pub fn sha256_pairs(children: &[Digest], out: &mut [Digest]) {
    assert_eq!(children.len(), 2 * out.len(), "two children per parent");
    let mut groups = out.chunks_exact_mut(16);
    let mut children_of_groups = children.chunks_exact(32);
    for (parents, children) in (&mut groups).zip(&mut children_of_groups) {
        let blocks = std::array::from_fn(|l| children[2 * l..2 * l + 2].as_flattened());
        let mut states = [H0; 16];
        compress_sixteen(&mut states, blocks, true);
        for (parent, state) in parents.iter_mut().zip(&states) {
            *parent = digest_of(state);
        }
    }
    let (children, out) = (children_of_groups.remainder(), groups.into_remainder());
    let mut parents = out.chunks_exact_mut(2);
    let mut quads = children.chunks_exact(4);
    for (parents, quad) in (&mut parents).zip(&mut quads) {
        // Two adjacent digests are already one contiguous 64-byte message.
        let (left, right) = quad.split_at(2);
        parents.copy_from_slice(&digests_of_64([left.as_flattened(), right.as_flattened()]));
    }
    if let ([parent], [a, b]) = (parents.into_remainder(), quads.remainder()) {
        *parent = sha256_pair(a, b);
    }
}

/// SHA-256 of each lane's 64-byte message: the message as one block, then
/// the constant padding.
fn digests_of_64<const L: usize>(messages: [&[u8]; L]) -> [Digest; L] {
    let mut states = [H0; L];
    compress_lanes(&mut states, messages, true);
    states.map(|state| digest_of(&state))
}

/// SHA-256 of two messages at once, each padded into one block on the stack
/// and the two compressed in two lanes — equal to `messages.map(sha256)`,
/// which is what runs when either is longer than [`ONE_BLOCK_MAX`].
pub fn sha256_two(messages: [&[u8]; 2]) -> [Digest; 2] {
    if messages.iter().any(|m| m.len() > ONE_BLOCK_MAX) {
        return messages.map(sha256);
    }
    let padded = messages.map(|m| {
        let mut block = [0u8; 64];
        block[..m.len()].copy_from_slice(m);
        block[m.len()] = 0x80;
        block[56..].copy_from_slice(&(m.len() as u64 * 8).to_be_bytes());
        block
    });
    let mut states = [H0; 2];
    compress_lanes(&mut states, [&padded[0], &padded[1]], false);
    states.map(|state| digest_of(&state))
}

/// SHA-256 of sixteen messages at once, staged in place: message `l` is the
/// first `lens[l]` bytes of `blocks[l]`, at most [`ONE_BLOCK_MAX`]. Each
/// block is padded where it lies (the bytes past the message are
/// overwritten) and the sixteen are compressed in sixteen lanes where the
/// CPU has them, two at a time elsewhere — equal to [`sha256`] of each
/// message.
///
/// Panics if a length exceeds [`ONE_BLOCK_MAX`].
pub fn sha256_sixteen(blocks: &mut [[u8; 64]; 16], lens: [usize; 16]) -> [Digest; 16] {
    for (block, &len) in blocks.iter_mut().zip(&lens) {
        assert!(
            len <= ONE_BLOCK_MAX,
            "a {len}-byte message is not one block"
        );
        block[len] = 0x80;
        block[len + 1..56].fill(0);
        block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
    }
    let mut states = [H0; 16];
    compress_sixteen(&mut states, blocks.each_ref().map(|b| &b[..]), false);
    states.map(|state| digest_of(&state))
}

/// SHA-256 of the concatenation of several byte slices, streamed through the
/// hasher with no intermediate staging buffer.
pub fn sha256_multi(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for part in parts {
        h.update(part);
    }
    h.finalize()
}

/// Renders a digest (or any byte slice) as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    thread_local! {
        /// Probe: how often this thread's `compress_blocks` took the
        /// hardware path.
        pub(super) static HARDWARE_CALLS: Cell<u64> = const { Cell::new(0) };
        /// Probe: how often this thread's `compress_sixteen` took the
        /// sixteen-lane kernel.
        pub(super) static SIXTEEN_LANE_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    fn hex(d: &[u8]) -> String {
        to_hex(d)
    }

    /// A compression function over whole blocks — either path on its own.
    type Compress = fn(&mut [u32; 8], &[u8]);

    /// The hardware kernel as a [`Compress`], or `None` — said out loud —
    /// on a host whose CPU lacks it, where the hardware-side cases skip.
    fn hardware_kernel() -> Option<Compress> {
        #[cfg(target_arch = "x86_64")]
        if crate::sha_ni::compress_lanes(&mut [[0; 8]], [&[]], false) {
            return Some(|state, blocks| {
                let one_lane = std::array::from_mut(state);
                assert!(crate::sha_ni::compress_lanes(one_lane, [blocks], false))
            });
        }
        eprintln!("skipped: no SHA extensions on this host, the hardware-side cases did not run");
        None
    }

    /// Whether this host runs the sixteen-lane kernel — said out loud when
    /// it does not, where the sixteen-lane cases test the two-lane path.
    fn sixteen_lane_kernel() -> bool {
        #[cfg(target_arch = "x86_64")]
        if crate::sha_ni::compress_sixteen(&mut [[0; 8]; 16], [&[]; 16], false) {
            return true;
        }
        eprintln!("skipped: no AVX-512 on this host, the sixteen-lane kernel did not run");
        false
    }

    /// SHA-256 by the book — pad a copy of the whole message, compress it —
    /// through `compress` alone: none of the streaming or one-shot code.
    fn digest_through(compress: Compress, msg: &[u8]) -> Digest {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &padded);
        digest_of(&state)
    }

    /// A FIPS vector holds for the public one-shot and for each path alone.
    fn assert_known_answer(msg: &[u8], expected: &str) {
        assert_eq!(hex(&sha256(msg)), expected);
        let portable = digest_through(compress_blocks_portable, msg);
        assert_eq!(hex(&portable), expected, "portable path");
        if let Some(kernel) = hardware_kernel() {
            assert_eq!(hex(&digest_through(kernel, msg)), expected, "hardware path");
        }
    }

    fn seeded_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn empty_message() {
        assert_known_answer(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_known_answer(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_known_answer(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn exactly_one_block() {
        // 64 bytes: exercises padding into a second block.
        assert_known_answer(
            &[0x61u8; 64],
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        );
    }

    #[test]
    fn fifty_five_and_fifty_six_byte_boundary() {
        // 55 bytes keeps padding in the same block, 56 pushes it into the next.
        assert_known_answer(
            &[0x61u8; 55],
            "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
        );
        assert_known_answer(
            &[0x61u8; 56],
            "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
        );
    }

    #[test]
    fn million_a() {
        assert_known_answer(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn kernel_matches_reference_after_every_block() {
        let Some(kernel) = hardware_kernel() else {
            return;
        };
        let mut rng = StdRng::seed_from_u64(0x5A_256);
        // Single blocks from arbitrary states (not only ones H0 reaches).
        for case in 0..10_000 {
            let start: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let block = seeded_bytes(&mut rng, 64);
            let (mut reference, mut hardware) = (start, start);
            compress_blocks_portable(&mut reference, &block);
            kernel(&mut hardware, &block);
            assert_eq!(
                hardware, reference,
                "case {case}: {start:08x?} {block:02x?}"
            );
        }
        // Runs of blocks: the kernel keeps the state in registers across a
        // call, the reference is stepped a block at a time beside it.
        for blocks in 1..=9 {
            let start: [u32; 8] = std::array::from_fn(|_| rng.gen());
            let run = seeded_bytes(&mut rng, 64 * blocks);
            let mut reference = start;
            for upto in 1..=blocks {
                compress_blocks_portable(&mut reference, &run[64 * (upto - 1)..64 * upto]);
                let mut hardware = start;
                kernel(&mut hardware, &run[..64 * upto]);
                assert_eq!(hardware, reference, "{upto} of {blocks} blocks");
            }
        }
    }

    /// [`compress_lanes`]' contract by the book: each lane's blocks and
    /// then, with `pad64`, the padding block *as bytes*, through
    /// `compress_blocks_portable` a block at a time — no lanes, no table.
    fn lanes_by_the_book<const L: usize>(
        states: &[[u32; 8]; L],
        blocks: [&[u8]; L],
        pad64: bool,
    ) -> [[u32; 8]; L] {
        std::array::from_fn(|l| {
            let mut message = blocks[l].to_vec();
            if pad64 {
                message.extend_from_slice(&PAD64);
            }
            let mut state = states[l];
            for block in message.chunks_exact(64) {
                compress_blocks_portable(&mut state, block);
            }
            state
        })
    }

    #[test]
    fn two_lanes_equal_one_lane_and_the_reference() {
        // Seeded states (not only H0) and blocks, 0..=4 blocks a lane, with
        // and without the padding table: the two-lane kernel, each lane
        // alone on the one-lane kernel, the sixteen-lane kernel, the
        // sixteen-lane dispatch and the portable lanes all equal the book.
        // The portable side and the dispatch run on every host.
        let kernel = hardware_kernel().is_some();
        let sixteen = sixteen_lane_kernel();
        let mut rng = StdRng::seed_from_u64(0x2_1A4E);
        for blocks in 0..=4 {
            for pad64 in [false, true] {
                for case in 0..200 {
                    let states: [[u32; 8]; 2] =
                        std::array::from_fn(|_| std::array::from_fn(|_| rng.gen()));
                    let messages = [0, 1].map(|_| seeded_bytes(&mut rng, 64 * blocks));
                    let lanes = [&messages[0][..], &messages[1][..]];
                    let expected = lanes_by_the_book(&states, lanes, pad64);
                    let at = format!("{blocks} blocks, pad64 {pad64}, case {case}");

                    let mut portable = states;
                    compress_lanes_portable(&mut portable, lanes, pad64);
                    assert_eq!(portable, expected, "portable lanes, {at}");
                    #[cfg(target_arch = "x86_64")]
                    if kernel {
                        let mut two = states;
                        assert!(crate::sha_ni::compress_lanes(&mut two, lanes, pad64));
                        assert_eq!(two, expected, "two lanes, {at}");
                        for l in 0..2 {
                            let mut one = [states[l]];
                            assert!(crate::sha_ni::compress_lanes(&mut one, [lanes[l]], pad64));
                            assert_eq!(one, [expected[l]], "lane {l} alone, {at}");
                        }
                    }
                }
                for case in 0..20 {
                    let states: [[u32; 8]; 16] =
                        std::array::from_fn(|_| std::array::from_fn(|_| rng.gen()));
                    let messages = [0; 16].map(|_| seeded_bytes(&mut rng, 64 * blocks));
                    let lanes = messages.each_ref().map(|m| &m[..]);
                    let expected = lanes_by_the_book(&states, lanes, pad64);
                    let at = format!("{blocks} blocks, pad64 {pad64}, case {case}");

                    let mut dispatched = states;
                    compress_sixteen(&mut dispatched, lanes, pad64);
                    assert_eq!(dispatched, expected, "sixteen-lane dispatch, {at}");
                    #[cfg(target_arch = "x86_64")]
                    if sixteen {
                        let mut lanes16 = states;
                        assert!(crate::sha_ni::compress_sixteen(&mut lanes16, lanes, pad64));
                        assert_eq!(lanes16, expected, "sixteen lanes, {at}");
                    }
                }
            }
        }
        // One-block messages as records are hashed: every length 0..=55 in
        // every lane position, the other lanes of random lengths, padded by
        // `sha256_sixteen` in place over stale bytes; and 64-byte messages
        // through the padding table, from H0, as a Merkle layer is hashed.
        for len in 0..=ONE_BLOCK_MAX {
            for position in 0..16 {
                let lens: [usize; 16] = std::array::from_fn(|l| {
                    if l == position {
                        len
                    } else {
                        rng.gen_range(0..=ONE_BLOCK_MAX)
                    }
                });
                let mut blocks = [[0u8; 64]; 16];
                for block in &mut blocks {
                    block.iter_mut().for_each(|byte| *byte = rng.gen());
                }
                let messages = std::array::from_fn::<_, 16, _>(|l| blocks[l][..lens[l]].to_vec());
                let digests = sha256_sixteen(&mut blocks, lens);
                let at = format!("{len} bytes in lane {position}");
                for l in 0..16 {
                    let padded = blocks[l];
                    let [book] = lanes_by_the_book(&[H0], [&padded], false);
                    assert_eq!(digests[l], digest_of(&book), "lane {l}, {at}");
                    assert_eq!(digests[l], sha256(&messages[l]), "lane {l}, {at}");
                }
            }
        }
        for case in 0..50 {
            let messages = [0; 16].map(|_| seeded_bytes(&mut rng, 64));
            let lanes = messages.each_ref().map(|m| &m[..]);
            let expected = lanes_by_the_book(&[H0; 16], lanes, true);
            let mut states = [H0; 16];
            compress_sixteen(&mut states, lanes, true);
            assert_eq!(states, expected, "64-byte messages, case {case}");
        }
    }

    #[test]
    fn pairs_equal_one_pair_at_a_time() {
        // Layer sizes crossing one and two groups of sixteen.
        let mut rng = StdRng::seed_from_u64(0xFA1D);
        for parents in 0..=70 {
            let children: Vec<Digest> = (0..2 * parents)
                .map(|_| std::array::from_fn(|_| rng.gen()))
                .collect();
            let expected: Vec<Digest> = children
                .chunks_exact(2)
                .map(|pair| sha256_pair(&pair[0], &pair[1]))
                .collect();
            let mut out = vec![[0u8; 32]; parents];
            sha256_pairs(&children, &mut out);
            assert_eq!(out, expected, "{parents} parents");
            for (parent, pair) in out.iter().zip(children.chunks_exact(2)) {
                assert_eq!(*parent, sha256(pair.as_flattened()), "{parents} parents");
            }
        }
    }

    #[test]
    #[should_panic(expected = "two children per parent")]
    fn pairs_refuse_a_child_without_a_slot() {
        sha256_pairs(&[[0; 32]; 3], &mut [[0; 32]; 1]);
    }

    #[test]
    fn two_messages_equal_two_one_shots() {
        // Every pair of lengths on both sides of the one-block limit.
        let mut rng = StdRng::seed_from_u64(0x2_5555);
        for a in 0..=70 {
            for b in 0..=70 {
                let messages = [seeded_bytes(&mut rng, a), seeded_bytes(&mut rng, b)];
                let pair = [&messages[0][..], &messages[1][..]];
                assert_eq!(sha256_two(pair), pair.map(sha256), "{a} and {b} bytes");
            }
        }
    }

    #[test]
    fn every_length_and_chunking_agrees_with_both_paths() {
        let kernel = hardware_kernel();
        let mut rng = StdRng::seed_from_u64(300);
        for len in 0..=300 {
            let msg = seeded_bytes(&mut rng, len);
            let reference = digest_through(compress_blocks_portable, &msg);
            assert_eq!(sha256(&msg), reference, "one-shot, {len} bytes");
            if let Some(kernel) = kernel {
                assert_eq!(
                    digest_through(kernel, &msg),
                    reference,
                    "kernel, {len} bytes"
                );
            }
            for chunk_size in [1usize, 3, 7, 55, 56, 63, 64, 65, 119, 120, 128] {
                let mut h = Sha256::new();
                for chunk in msg.chunks(chunk_size) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), reference, "{len} bytes in {chunk_size}s");
            }
        }
    }

    #[test]
    fn dispatch_takes_the_hardware_path_where_the_cpu_has_one() {
        #[cfg(target_arch = "x86_64")]
        let expected = u64::from(is_x86_feature_detected!("sha"));
        #[cfg(not(target_arch = "x86_64"))]
        let expected = 0;
        let before = HARDWARE_CALLS.get();
        sha256_pair(&[1; 32], &[2; 32]);
        let calls = HARDWARE_CALLS.get() - before;
        assert_eq!(calls, expected, "one call, both blocks");
        sha256(&[3; 200]);
        let calls = HARDWARE_CALLS.get() - before;
        assert_eq!(calls, 3 * expected, "whole blocks, then the tail");
        sha256_pairs(&[[4; 32]; 10], &mut [[0; 32]; 5]);
        let calls = HARDWARE_CALLS.get() - before;
        assert_eq!(calls, 6 * expected, "two pairs, two pairs, the odd one");
        sha256_two([&[5; 55], &[6; 20]]);
        let calls = HARDWARE_CALLS.get() - before;
        assert_eq!(calls, 7 * expected, "two one-block messages, one call");

        // A group of sixteen takes one sixteen-lane call where the CPU has
        // AVX-512 and eight two-lane calls elsewhere; a tail takes two lanes.
        #[cfg(target_arch = "x86_64")]
        let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        let (wide, narrow) = if avx512 { (1, 0) } else { (0, 8 * expected) };
        let before = (HARDWARE_CALLS.get(), SIXTEEN_LANE_CALLS.get());
        let calls = || {
            let (hardware, sixteen) = (HARDWARE_CALLS.get(), SIXTEEN_LANE_CALLS.get());
            (hardware - before.0, sixteen - before.1)
        };
        sha256_pairs(&[[7; 32]; 32], &mut [[0; 32]; 16]);
        assert_eq!(calls(), (narrow, wide), "sixteen parents");
        sha256_sixteen(&mut [[8; 64]; 16], [ONE_BLOCK_MAX; 16]);
        assert_eq!(calls(), (2 * narrow, 2 * wide), "sixteen messages");
        sha256_pairs(&[[9; 32]; 34], &mut [[0; 32]; 17]);
        let tail = expected;
        assert_eq!(calls(), (3 * narrow + tail, 3 * wide), "sixteen, then one");
        sha256_pairs(&[[10; 32]; 30], &mut [[0; 32]; 15]);
        let tail = tail + 8 * expected;
        assert_eq!(calls(), (3 * narrow + tail, 3 * wide), "fifteen: two lanes");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let oneshot = sha256(&data);
        for chunk_size in [1usize, 3, 7, 63, 64, 65, 100, 999] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn pair_matches_manual_concatenation() {
        let a = sha256(b"left child");
        let b = sha256(b"right child");
        assert_eq!(sha256_pair(&a, &b), sha256(&[a, b].concat()));
        // Order matters.
        assert_ne!(sha256_pair(&a, &b), sha256_pair(&b, &a));

        let mut rng = StdRng::seed_from_u64(64);
        for _ in 0..200 {
            let a: Digest = std::array::from_fn(|_| rng.gen());
            let b: Digest = std::array::from_fn(|_| rng.gen());
            assert_eq!(sha256_pair(&a, &b), sha256(&[a, b].concat()));
        }
    }

    #[test]
    fn multi_matches_manual_concatenation() {
        let parts: [&[u8]; 4] = [b"VAQ-EPOCH", &42u64.to_be_bytes(), b"", b"digest bytes"];
        assert_eq!(sha256_multi(&parts), sha256(&parts.concat()));
        assert_eq!(sha256_multi(&[]), sha256(b""));

        let mut rng = StdRng::seed_from_u64(65);
        for _ in 0..200 {
            let parts: Vec<Vec<u8>> = (0..rng.gen_range(0usize..6))
                .map(|_| {
                    let len = rng.gen_range(0usize..150);
                    seeded_bytes(&mut rng, len)
                })
                .collect();
            let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            assert_eq!(sha256_multi(&slices), sha256(&parts.concat()));
        }
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let d1 = sha256(b"record-1|3.9|2|5");
        let d2 = sha256(b"record-1|3.9|2|5");
        let d3 = sha256(b"record-1|3.9|2|6");
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
    }
}

//! Cryptographic substrate for the verified-analytics workspace.
//!
//! The paper ("Verifying the Correctness of Analytic Query Results",
//! Nosrati & Cai) relies on three cryptographic building blocks:
//!
//! * a one-way hash function (SHA-256 in the paper's experiments),
//! * RSA signatures, and
//! * DSA signatures (Fig. 7c compares RSA against DSA verification cost).
//!
//! The reproduction environment only allows a small set of general-purpose
//! crates, none of which provide cryptography, so this crate implements the
//! whole stack from scratch:
//!
//! * [`sha256`] — the FIPS 180-4 SHA-256 compression function (through the
//!   SHA extensions on x86-64 CPUs that have them, sixteen messages at a
//!   time through AVX-512 on those that have it, portable otherwise) and a
//!   streaming [`sha256::Sha256`] hasher.
//! * [`bignum`] — an arbitrary-precision unsigned integer
//!   ([`bignum::BigUint`]) with the arithmetic needed for public-key
//!   signatures (modular exponentiation, modular inverse, division).
//! * [`prime`] — Miller–Rabin probabilistic primality testing and random
//!   prime generation.
//! * [`rsa`] — textbook RSA signatures over SHA-256 digests.
//! * [`dsa`] — classic (finite-field) DSA signatures.
//! * [`signer`] — object-safe [`signer::Signer`] / [`signer::Verifier`]
//!   traits so the authenticated data structures can be parameterised over
//!   the signature scheme.
//!
//! # Security disclaimer
//!
//! These primitives exist to reproduce the *performance shape* of the
//! paper's experiments (hashing is cheap, signature operations are orders of
//! magnitude more expensive, RSA verification is cheaper than DSA
//! verification). They are **not** hardened implementations: there is no
//! padding scheme beyond a minimal deterministic one, no blinding, and no
//! constant-time guarantee. The hardware kernels behind [`sha256`] are
//! not constant-time-audited either, though SHA-256 has no secret-dependent
//! branch or address in any of its paths. Do not use this crate to
//! protect real data.

#![warn(missing_docs)]

pub mod bignum;
pub mod dsa;
pub mod montgomery;
pub mod prime;
pub mod rsa;
pub mod sha256;
// The SHA-extension and AVX-512 kernels behind `sha256`: the crate's only
// `unsafe`, pinned to this file by `tests/workspace_integration.rs`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni;
pub mod signer;

pub use bignum::BigUint;
pub use dsa::{DsaKeyPair, DsaPublicKey, DsaSignature};
pub use rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
pub use sha256::{sha256, Digest, Sha256};
pub use signer::{PublicKey, Signature, SignatureScheme, Signer, Verifier};

/// The dev profile builds this crate at `opt-level = 3` (the root
/// `Cargo.toml`): its debug assertions and overflow checks must still fire.
#[cfg(all(test, debug_assertions))]
mod debug_checks {
    use crate::BigUint;
    use std::hint::black_box;

    #[test]
    #[should_panic(expected = "BigUint underflow")]
    fn a_debug_assertion_fires() {
        black_box(BigUint::from_u64(1).sub(&BigUint::from_u64(2)));
    }

    #[test]
    #[should_panic(expected = "attempt to add with overflow")]
    fn an_overflow_check_fires() {
        black_box(black_box(u32::MAX) + 1);
    }
}

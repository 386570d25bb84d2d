//! Wire encodings for cryptographic values (signatures and public keys).

use crate::error::WireError;
use crate::io::{Reader, Writer};
use crate::{WireDecode, WireEncode};
use vaq_crypto::dsa::{DsaPublicKey, DsaSignature};
use vaq_crypto::rsa::{RsaPublicKey, RsaSignature};
use vaq_crypto::signer::PublicKey;
use vaq_crypto::{BigUint, Signature};

impl WireEncode for BigUint {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.to_bytes_be());
    }
}

impl WireDecode for BigUint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BigUint::from_bytes_be(&r.get_bytes()?))
    }
}

impl WireEncode for RsaSignature {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.bytes);
    }
}

impl WireDecode for RsaSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(RsaSignature {
            bytes: r.get_bytes()?,
        })
    }
}

impl WireEncode for DsaSignature {
    fn encode(&self, w: &mut Writer) {
        self.r.encode(w);
        self.s.encode(w);
    }
}

impl WireDecode for DsaSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DsaSignature {
            r: BigUint::decode(r)?,
            s: BigUint::decode(r)?,
        })
    }
}

const SIG_TAG_RSA: u8 = 1;
const SIG_TAG_DSA: u8 = 2;

impl WireEncode for Signature {
    fn encode(&self, w: &mut Writer) {
        match self {
            Signature::Rsa(sig) => {
                w.put_u8(SIG_TAG_RSA);
                sig.encode(w);
            }
            Signature::Dsa(sig) => {
                w.put_u8(SIG_TAG_DSA);
                sig.encode(w);
            }
        }
    }
}

impl WireDecode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            SIG_TAG_RSA => Ok(Signature::Rsa(RsaSignature::decode(r)?)),
            SIG_TAG_DSA => Ok(Signature::Dsa(DsaSignature::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "Signature",
                tag,
            }),
        }
    }
}

impl WireEncode for RsaPublicKey {
    fn encode(&self, w: &mut Writer) {
        self.n.encode(w);
        self.e.encode(w);
    }
}

impl WireDecode for RsaPublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = BigUint::decode(r)?;
        let e = BigUint::decode(r)?;
        Ok(RsaPublicKey::new(n, e))
    }
}

impl WireEncode for DsaPublicKey {
    fn encode(&self, w: &mut Writer) {
        self.p.encode(w);
        self.q.encode(w);
        self.g.encode(w);
        self.y.encode(w);
    }
}

impl WireDecode for DsaPublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let p = BigUint::decode(r)?;
        let q = BigUint::decode(r)?;
        let g = BigUint::decode(r)?;
        let y = BigUint::decode(r)?;
        Ok(DsaPublicKey::new(p, q, g, y))
    }
}

impl WireEncode for PublicKey {
    fn encode(&self, w: &mut Writer) {
        match self {
            PublicKey::Rsa(pk) => {
                w.put_u8(SIG_TAG_RSA);
                pk.encode(w);
            }
            PublicKey::Dsa(pk) => {
                w.put_u8(SIG_TAG_DSA);
                pk.encode(w);
            }
        }
    }
}

impl WireDecode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            SIG_TAG_RSA => Ok(PublicKey::Rsa(RsaPublicKey::decode(r)?)),
            SIG_TAG_DSA => Ok(PublicKey::Dsa(DsaPublicKey::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "PublicKey",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_crypto::sha256::sha256;
    use vaq_crypto::{SignatureScheme, Signer, Verifier};

    #[test]
    fn biguint_roundtrip() {
        for hex in ["0", "1", "deadbeef", "ffffffffffffffffffffffffffffffff"] {
            let v = BigUint::from_hex(hex).unwrap();
            let back = BigUint::from_wire_bytes(&v.to_wire_bytes()).unwrap();
            assert_eq!(v, back);
        }
    }

    #[test]
    fn rsa_signature_survives_roundtrip_and_still_verifies() {
        let scheme = SignatureScheme::test_rsa(1);
        let digest = sha256(b"wire");
        let sig = scheme.sign_digest(&digest);
        let bytes = sig.to_framed_bytes();
        let back = Signature::from_framed_bytes(&bytes).unwrap();
        assert!(scheme.verifier().verify_digest(&digest, &back));
    }

    #[test]
    fn dsa_signature_survives_roundtrip_and_still_verifies() {
        let scheme = SignatureScheme::test_dsa(2);
        let digest = sha256(b"wire-dsa");
        let sig = scheme.sign_digest(&digest);
        let back = Signature::from_wire_bytes(&sig.to_wire_bytes()).unwrap();
        assert!(scheme.verifier().verify_digest(&digest, &back));
    }

    #[test]
    fn public_key_roundtrip_for_both_algorithms() {
        for scheme in [SignatureScheme::test_rsa(3), SignatureScheme::test_dsa(4)] {
            let pk = scheme.public_key();
            let back = PublicKey::from_wire_bytes(&pk.to_wire_bytes()).unwrap();
            assert_eq!(pk, back);
            // The decoded key must still verify signatures.
            let digest = sha256(b"key-roundtrip");
            let sig = scheme.sign_digest(&digest);
            assert!(back.verify_digest(&digest, &sig));
        }
    }

    #[test]
    fn signature_invalid_tag_rejected() {
        let mut w = Writer::new();
        w.put_u8(99);
        assert!(matches!(
            Signature::from_wire_bytes(&w.into_bytes()),
            Err(WireError::InvalidTag { .. })
        ));
    }
}

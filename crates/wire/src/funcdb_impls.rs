//! Wire encodings for function-database values.

use crate::codec::wire_struct;
use crate::error::WireError;
use crate::io::{checked_len, Reader, Writer};
use crate::{WireDecode, WireEncode};
use vaq_funcdb::{
    Attrs, Domain, FuncId, FunctionTemplate, HalfSpace, LinearFunction, Record,
    SubdomainConstraints,
};

wire_struct! {
    FuncId { 0 }
    LinearFunction { id, coeffs, constant }
    FunctionTemplate { attr_names }
    HalfSpace { coeffs, constant, non_negative, pair }
    SubdomainConstraints { domain, halfspaces }
}

/// Written by hand: a record travels as the bytes the owner hashes into the
/// FMH-tree ([`Record::canonical_bytes`]) behind their varint length. The
/// decoder takes one spelling: the shortest length, an arity whose values
/// fit it, then nothing or `0x01` and a UTF-8 label. It stays small enough
/// to inline into a reply's loop over records, and reads up to
/// [`Attrs::INLINE`] values with no heap allocation.
impl WireEncode for Record {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.canonical_len());
        self.write_canonical(|bytes| w.put_raw(bytes));
    }
}

impl WireDecode for Record {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let declared = r.get_varint()?;
        let bytes = r.get_slice(declared)?;
        let mismatch = |actual| WireError::LengthMismatch { declared, actual };
        let (id, bytes) = bytes.split_first_chunk().ok_or(mismatch(12))?;
        let (arity, bytes) = bytes.split_first_chunk().ok_or(mismatch(12))?;
        // `arity` is at most `MAX_COLLECTION_LEN`, so the byte count cannot wrap.
        let arity = checked_len(u32::from_be_bytes(*arity))?;
        let (words, label) = bytes
            .split_at_checked(8 * arity)
            .ok_or(mismatch(12 + 8 * arity))?;
        let label = match label {
            [] => None,
            [1, label @ ..] => {
                Some(std::str::from_utf8(label).map_err(|_| WireError::InvalidUtf8)?)
            }
            &[tag, ..] => {
                let type_name = "Record label marker";
                return Err(WireError::InvalidTag { type_name, tag });
            }
        };
        Ok(Record {
            id: u64::from_be_bytes(*id),
            attrs: attrs_from(words),
            label: label.map(str::to_owned),
        })
    }
}

/// The attribute values `bytes` holds, eight big-endian bytes each.
#[inline]
fn attrs_from(bytes: &[u8]) -> Attrs {
    let (words, _) = bytes.as_chunks::<8>();
    let mut inline = [0.0; Attrs::INLINE];
    for (value, word) in inline.iter_mut().zip(words) {
        *value = f64::from_be_bytes(*word);
    }
    if let Some(attrs) = Attrs::inline(inline, words.len()) {
        return attrs;
    }
    Attrs::from(
        words
            .iter()
            .map(|word| f64::from_be_bytes(*word))
            .collect::<Vec<_>>(),
    )
}

/// Written by hand: a box whose bounds differ in length, are NaN or are out
/// of order is refused at decode time.
impl WireEncode for Domain {
    fn encode(&self, w: &mut Writer) {
        self.lower.encode(w);
        self.upper.encode(w);
    }
}

impl WireDecode for Domain {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let lower: Vec<f64> = Vec::decode(r)?;
        let upper: Vec<f64> = Vec::decode(r)?;
        if lower.len() != upper.len() {
            return Err(WireError::InvalidTag {
                type_name: "Domain",
                tag: 0,
            });
        }
        if lower
            .iter()
            .zip(upper.iter())
            .any(|(l, u)| l.is_nan() || u.is_nan() || l > u)
        {
            return Err(WireError::InvalidFloat);
        }
        Ok(Domain { lower, upper })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MAX_COLLECTION_LEN;
    use vaq_crypto::sha256::sha256;
    use vaq_funcdb::inequality_set_digest;

    /// Records of arity 0 to 9, each without a label, with an empty one, a
    /// short one, and one that takes the length past a byte.
    fn records() -> Vec<Record> {
        let long = "y".repeat(300);
        let mut records = Vec::new();
        for arity in 0..=9 {
            let attrs: Vec<f64> = (0..arity).map(|i| i as f64 * -0.7 + 0.1).collect();
            for label in [None, Some(""), Some("dave"), Some(long.as_str())] {
                let mut record = Record::new(0x0102_0304_0506_0708 + arity, attrs.clone());
                record.label = label.map(str::to_string);
                records.push(record);
            }
        }
        records
    }

    /// `body` behind the varint `length`, as a record's wire bytes.
    fn framed(length: usize, body: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(length);
        w.put_raw(body);
        w.into_bytes()
    }

    #[test]
    fn record_roundtrip_with_and_without_label() {
        // The wire bytes are the length, then exactly the bytes the digest
        // hashes; the length takes one byte up to 127 (14 attributes).
        for record in records() {
            let canonical = record.canonical_bytes();
            let mut bytes = record.to_wire_bytes();
            assert_eq!(bytes, framed(canonical.len(), &canonical), "{record:?}");
            let length = bytes.len() - canonical.len();
            assert_eq!(sha256(&bytes[length..]), record.digest());
            assert_eq!(length, 1 + usize::from(canonical.len() > 127));
            // A following value is left unread.
            bytes.extend_from_slice(&[0xAB; 9]);
            let mut r = Reader::new(&bytes);
            assert_eq!(Record::decode(&mut r), Ok(record.clone()));
            assert_eq!(r.remaining(), 9);
        }
    }

    /// True when the values sit inside the `Attrs` value, not on the heap.
    fn stored_inline(attrs: &Attrs) -> bool {
        let start = attrs as *const Attrs as usize;
        let values = attrs.as_ptr() as usize;
        (start..start + std::mem::size_of::<Attrs>()).contains(&values)
    }

    #[test]
    fn a_record_of_up_to_four_attributes_decodes_inline() {
        for arity in 0..=Attrs::INLINE + 1 {
            let record = Record::with_label(9, vec![0.25; arity], "carol");
            let back = Record::from_wire_bytes(&record.to_wire_bytes()).unwrap();
            assert_eq!(back, record);
            assert_eq!(back.digest(), record.digest());
            assert_eq!(stored_inline(&back.attrs), arity <= Attrs::INLINE);
        }
    }

    #[test]
    fn the_record_decoder_refuses_every_other_spelling() {
        // Every marker byte but `0x01`, in place of a label's marker or
        // behind an unlabelled record's attributes.
        for record in records() {
            let mut body = record.canonical_bytes();
            let marker = 8 + 4 + 8 * record.arity();
            body.resize(body.len().max(marker + 1), 0);
            for tag in (0..=u8::MAX).filter(|&byte| byte != 1) {
                body[marker] = tag;
                let type_name = "Record label marker";
                let refused = Record::from_wire_bytes(&framed(body.len(), &body));
                assert_eq!(refused, Err(WireError::InvalidTag { type_name, tag }));
            }
        }
        let canonical = Record::with_label(3, vec![0.5; 5], "ok").canonical_bytes();
        let len = canonical.len();
        let mut bad_label = canonical.clone();
        bad_label[len - 2..].copy_from_slice(&[0xC3, 0x28]);
        // An arity of six over five attributes' bytes.
        let mut more_attrs = canonical.clone();
        more_attrs[11] = 6;
        // The length in two bytes where one holds it.
        let padded = [&[len as u8 | 0x80, 0x00][..], &canonical].concat();
        let mismatch = |declared, actual| WireError::LengthMismatch { declared, actual };
        for (bytes, error) in [
            (framed(len, &bad_label), WireError::InvalidUtf8),
            (framed(len, &more_attrs), mismatch(len, 12 + 6 * 8)),
            (framed(11, &canonical[..11]), mismatch(11, 12)),
            (padded, WireError::NonCanonicalLength),
        ] {
            assert_eq!(Record::from_wire_bytes(&bytes), Err(error));
        }
    }

    #[test]
    fn an_attribute_count_claim_reserves_a_bounded_amount() {
        // An arity past the collection limit is refused before anything is
        // reserved for it; one within it must still fit the record's length.
        let limit = MAX_COLLECTION_LEN;
        for arity in [u32::MAX as usize, limit + 1, limit] {
            let body = [
                &5u64.to_be_bytes()[..],
                &(arity as u32).to_be_bytes(),
                &[0; 8],
            ]
            .concat();
            let expected = if arity > limit {
                WireError::LengthLimitExceeded(arity)
            } else {
                WireError::LengthMismatch {
                    declared: 20,
                    actual: 12 + 8 * arity,
                }
            };
            assert_eq!(Record::from_wire_bytes(&framed(20, &body)), Err(expected));
        }
    }

    #[test]
    fn linear_function_roundtrip() {
        let f = LinearFunction::new(FuncId(7), vec![0.5, -0.25, 3.0], 1.75);
        let back = LinearFunction::from_wire_bytes(&f.to_wire_bytes()).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn template_and_domain_roundtrip() {
        let t = FunctionTemplate::new(vec!["gpa", "awards", "papers"]);
        assert_eq!(
            FunctionTemplate::from_wire_bytes(&t.to_wire_bytes()).unwrap(),
            t
        );
        let d = Domain::new(vec![0.0, -1.0], vec![1.0, 2.0]);
        assert_eq!(Domain::from_wire_bytes(&d.to_wire_bytes()).unwrap(), d);
    }

    #[test]
    fn malformed_domain_rejected() {
        // lower > upper must not decode into a panic-later Domain.
        let bad = Domain {
            lower: vec![2.0],
            upper: vec![1.0],
        };
        let bytes = bad.to_wire_bytes();
        assert!(Domain::from_wire_bytes(&bytes).is_err());
    }

    #[test]
    fn halfspace_and_constraints_roundtrip() {
        let hs1 = HalfSpace::raw(vec![1.0, -1.0], 0.25, true);
        let f1 = LinearFunction::new(FuncId(0), vec![1.0, 0.0], 0.0);
        let f2 = LinearFunction::new(FuncId(1), vec![0.0, 1.0], 0.0);
        let hs2 = HalfSpace::below(&f1, &f2);
        let constraints = SubdomainConstraints::whole(Domain::unit(2))
            .with(hs1)
            .with(hs2);
        let back = SubdomainConstraints::from_wire_bytes(&constraints.to_wire_bytes()).unwrap();
        assert_eq!(constraints, back);
        // Digests used in the multi-signature scheme must be preserved.
        assert_eq!(constraints.digest(), back.digest());
        let inequalities = |c: &SubdomainConstraints| inequality_set_digest(&c.halfspaces);
        assert_eq!(inequalities(&constraints), inequalities(&back));
    }

    #[test]
    fn truncated_record_rejected() {
        for record in records() {
            let bytes = record.to_wire_bytes();
            for cut in 0..bytes.len() {
                let refused = Record::from_wire_bytes(&bytes[..cut]);
                assert_eq!(refused, Err(WireError::Truncated), "{record:?}, cut {cut}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_record_roundtrip(id in 0u64.., attrs in proptest::collection::vec(-1e6f64..1e6, 0..8)) {
            let r = Record::new(id, attrs);
            let back = Record::from_wire_bytes(&r.to_wire_bytes()).unwrap();
            proptest::prop_assert_eq!(r, back);
        }
    }
}

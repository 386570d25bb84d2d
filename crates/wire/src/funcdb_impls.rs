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

/// Written by hand: the bytes are the field list `id, attrs, label`, but a
/// reply carries hundreds of records and reading them field by field costs
/// about ten checked reads each. The decoder reads the 12-byte head (id and
/// attribute count) with one bounds check, the attributes as one run
/// straight into [`Attrs`], then the strict `0`/`1` label flag and the
/// UTF-8 label, with the errors the field list gives.
impl WireEncode for Record {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        self.attrs.encode(w);
        self.label.encode(w);
    }
}

impl WireDecode for Record {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let [i0, i1, i2, i3, i4, i5, i6, i7, n0, n1, n2, n3] = r.get_array()?;
        let id = u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]);
        let arity = checked_len(u32::from_le_bytes([n0, n1, n2, n3]))?;
        // The attributes and the label flag behind them, in one checked run.
        let (flag, words) = r
            .get_slice(arity * 8 + 1)?
            .split_last()
            .ok_or(WireError::Truncated)?;
        let attrs = attrs_from(words);
        let label = match flag {
            0 => None,
            1 => Some(r.get_string()?),
            &tag => {
                return Err(WireError::InvalidTag {
                    type_name: "bool",
                    tag,
                })
            }
        };
        Ok(Record { id, attrs, label })
    }
}

/// Written by hand: the bytes are exactly `Vec<f64>`'s (a `u32` count, then
/// the values), but the values are read as one checked run: at most
/// [`Attrs::INLINE`] of them straight into the inline array, with no heap
/// allocation, and a longer list only once its bytes are all present, so a
/// count claim never reserves more than the frame holds.
impl WireEncode for Attrs {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for value in self.iter() {
            w.put_f64(*value);
        }
    }
}

impl WireDecode for Attrs {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        // `len` is at most `MAX_COLLECTION_LEN`, so the byte count cannot wrap.
        Ok(attrs_from(r.get_slice(len * 8)?))
    }
}

/// The attribute values `bytes` holds, eight little-endian bytes each.
#[inline]
fn attrs_from(bytes: &[u8]) -> Attrs {
    let (words, _) = bytes.as_chunks::<8>();
    let mut inline = [0.0; Attrs::INLINE];
    for (value, word) in inline.iter_mut().zip(words) {
        *value = f64::from_le_bytes(*word);
    }
    if let Some(attrs) = Attrs::inline(inline, words.len()) {
        return attrs;
    }
    Attrs::from(
        words
            .iter()
            .map(|word| f64::from_le_bytes(*word))
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

    #[test]
    fn record_roundtrip_with_and_without_label() {
        let r1 = Record::new(42, vec![0.1, 0.2, 0.3]);
        let r2 = Record::with_label(43, vec![1.5], "alice");
        for r in [r1, r2] {
            let back = Record::from_wire_bytes(&r.to_wire_bytes()).unwrap();
            assert_eq!(r, back);
            // The digest (and therefore the Merkle leaf) must be identical.
            assert_eq!(r.digest(), back.digest());
        }
    }

    /// True when the values sit inside the `Attrs` value, not on the heap.
    fn stored_inline(attrs: &Attrs) -> bool {
        let start = attrs as *const Attrs as usize;
        let values = attrs.as_ptr() as usize;
        (start..start + std::mem::size_of::<Attrs>()).contains(&values)
    }

    #[test]
    fn attrs_bytes_are_the_vec_codec_bytes_on_both_sides_of_the_inline_limit() {
        for arity in 0..=9 {
            let values: Vec<f64> = (0..arity).map(|i| i as f64 * 0.37 - 1.0).collect();
            let attrs = Attrs::from(values.clone());
            let bytes = attrs.to_wire_bytes();
            assert_eq!(bytes, values.to_wire_bytes(), "arity {arity}");
            let back = Attrs::from_wire_bytes(&bytes).unwrap();
            assert_eq!(back, attrs);
            assert_eq!(
                stored_inline(&back),
                arity <= Attrs::INLINE,
                "arity {arity}"
            );
            assert_eq!(Vec::<f64>::from_wire_bytes(&bytes).unwrap(), values);
            for cut in 0..bytes.len() {
                assert!(Attrs::from_wire_bytes(&bytes[..cut]).is_err());
            }
        }
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
    fn an_attribute_count_claim_reserves_a_bounded_amount() {
        let mut claim = Writer::new();
        claim.put_len(u32::MAX as usize);
        claim.put_f64(1.0);
        assert!(Attrs::from_wire_bytes(&claim.into_bytes()).is_err());
    }

    /// The decoder `wire_struct! { Record { id, attrs, label } }` generated
    /// before `Record` was decoded by hand: the reference it must match.
    fn derived_record(r: &mut Reader<'_>) -> Result<Record, WireError> {
        Ok(Record {
            id: WireDecode::decode(r)?,
            attrs: Vec::<f64>::decode(r)?.into(),
            label: WireDecode::decode(r)?,
        })
    }

    /// Both decoders over `bytes`: each record and the bytes it left
    /// unread, or each error. (Where a failed decode stops does not matter:
    /// the whole message is refused.)
    fn both(bytes: &[u8]) -> [Result<(Record, usize), WireError>; 2] {
        let (mut hand, mut derived) = (Reader::new(bytes), Reader::new(bytes));
        [
            Record::decode(&mut hand).map(|r| (r, hand.remaining())),
            derived_record(&mut derived).map(|r| (r, derived.remaining())),
        ]
    }

    #[test]
    fn the_hand_record_decoder_equals_the_derived_one_on_every_input() {
        let long = "y".repeat(300);
        let mut cases = 0;
        for arity in 0..=9 {
            let attrs: Vec<f64> = (0..arity).map(|i| i as f64 * -0.7 + 0.1).collect();
            for label in [None, Some(""), Some("dave"), Some(long.as_str())] {
                let record = Record {
                    id: 0x0102_0304_0506_0708 + arity as u64,
                    attrs: attrs.clone().into(),
                    label: label.map(str::to_string),
                };
                let mut bytes = record.to_wire_bytes();
                let [hand, derived] = both(&bytes);
                assert_eq!(hand, Ok((record.clone(), 0)));
                assert_eq!(derived, hand);
                // Every truncation, and a following value left unread.
                for cut in 0..bytes.len() {
                    let [hand, derived] = both(&bytes[..cut]);
                    assert_eq!(hand, derived, "arity {arity}, {label:?}, cut {cut}");
                    assert_eq!(hand, Err(WireError::Truncated));
                }
                bytes.extend_from_slice(&[0xAB; 9]);
                assert_eq!(both(&bytes)[0], Ok((record.clone(), 9)));
                // Every flag byte.
                let flag = 8 + 4 + 8 * arity;
                for byte in 0..=255u8 {
                    bytes[flag] = byte;
                    let [hand, derived] = both(&bytes);
                    assert_eq!(hand, derived, "arity {arity}, {label:?}, flag {byte}");
                    if byte > 1 {
                        let tag = WireError::InvalidTag {
                            type_name: "bool",
                            tag: byte,
                        };
                        assert_eq!(hand, Err(tag));
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 10 * 4 * 256);
    }

    #[test]
    fn the_hand_record_decoder_refuses_what_the_derived_one_refuses() {
        let mut bad_label = Record::with_label(3, vec![0.5; 5], "ok").to_wire_bytes();
        let end = bad_label.len();
        bad_label[end - 2..].copy_from_slice(&[0xC3, 0x28]);
        let mut w = Writer::new();
        w.put_u64(4);
        w.put_u32(1_000);
        w.put_f64(1.0);
        let short_claim = w.into_bytes();
        let over_limit = |count: u32| {
            let mut w = Writer::new();
            w.put_u64(5);
            w.put_u32(count);
            w.put_f64(1.0);
            w.put_bool(false);
            w.into_bytes()
        };
        let limit = crate::io::MAX_COLLECTION_LEN;
        for (bytes, error) in [
            (bad_label, WireError::InvalidUtf8),
            (short_claim, WireError::Truncated),
            (
                over_limit(limit as u32 + 1),
                WireError::LengthLimitExceeded(limit + 1),
            ),
            (
                over_limit(u32::MAX),
                WireError::LengthLimitExceeded(u32::MAX as usize),
            ),
        ] {
            let [hand, derived] = both(&bytes);
            assert_eq!(hand, Err(error));
            assert_eq!(hand, derived);
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
        assert_eq!(constraints.inequality_digest(), back.inequality_digest());
    }

    #[test]
    fn truncated_record_rejected() {
        let r = Record::with_label(1, vec![0.5, 0.6], "bob");
        let bytes = r.to_wire_bytes();
        for cut in [1usize, 5, 9, bytes.len() - 1] {
            assert!(Record::from_wire_bytes(&bytes[..cut]).is_err());
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

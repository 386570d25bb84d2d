//! Wire encodings for function-database values.

use crate::codec::{wire_struct, MAX_RESERVE};
use crate::error::WireError;
use crate::io::{Reader, Writer};
use crate::{WireDecode, WireEncode};
use vaq_funcdb::{
    Attrs, Domain, FuncId, FunctionTemplate, HalfSpace, LinearFunction, Record,
    SubdomainConstraints,
};

wire_struct! {
    Record { id, attrs, label }
    FuncId { 0 }
    LinearFunction { id, coeffs, constant }
    FunctionTemplate { attr_names }
    HalfSpace { coeffs, constant, non_negative, pair }
    SubdomainConstraints { domain, halfspaces }
}

/// Written by hand: the bytes are exactly `Vec<f64>`'s (a `u32` count, then
/// the values), but a list of at most [`Attrs::INLINE`] values is read
/// straight into the inline array, with no heap allocation, and only a
/// longer one goes through a bounded `Vec` reserve.
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
        let mut inline = [0.0; Attrs::INLINE];
        if let Some(values) = inline.get_mut(..len) {
            for value in values.iter_mut() {
                *value = r.get_f64()?;
            }
            return Ok(Attrs::from(&*values));
        }
        let mut values = Vec::with_capacity(len.min(MAX_RESERVE));
        for _ in 0..len {
            values.push(r.get_f64()?);
        }
        Ok(Attrs::from(values))
    }
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

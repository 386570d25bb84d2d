//! Database records.

use std::fmt;
use std::ops::{Deref, DerefMut};
use vaq_crypto::sha256::{sha256, sha256_two, Digest, Sha256, ONE_BLOCK_MAX};

/// A record's attribute values, read and written as a `[f64]`.
///
/// Up to [`Attrs::INLINE`] values live in the value itself, more on the
/// heap, so cloning, decoding or dropping a record of a low-dimensional
/// table allocates nothing for its attributes. Equality and `Debug` are the
/// slice's.
#[derive(Clone)]
pub struct Attrs(Repr);

#[derive(Clone)]
enum Repr {
    /// `values[..len]`, with `len <= Attrs::INLINE`.
    Inline {
        len: u8,
        values: [f64; Attrs::INLINE],
    },
    /// More than `Attrs::INLINE` values.
    Heap(Vec<f64>),
}

impl Attrs {
    /// The most values kept without a heap allocation.
    pub const INLINE: usize = 4;

    /// The first `len` of `values`, kept inline, or `None` when `len`
    /// exceeds [`Attrs::INLINE`]. Unlike `From<&[f64]>`, which copies a
    /// slice of run-time length, this moves a whole array, which a decoder
    /// filling the array value by value can build in place.
    #[inline]
    pub fn inline(values: [f64; Attrs::INLINE], len: usize) -> Option<Attrs> {
        (len <= Attrs::INLINE).then_some(Attrs(Repr::Inline {
            len: len as u8,
            values,
        }))
    }
}

impl From<&[f64]> for Attrs {
    #[inline]
    fn from(values: &[f64]) -> Self {
        let mut inline = [0.0; Attrs::INLINE];
        match inline.get_mut(..values.len()) {
            Some(head) => {
                head.copy_from_slice(values);
                Attrs(Repr::Inline {
                    len: values.len() as u8,
                    values: inline,
                })
            }
            None => Attrs(Repr::Heap(values.to_vec())),
        }
    }
}

impl From<Vec<f64>> for Attrs {
    #[inline]
    fn from(values: Vec<f64>) -> Self {
        if values.len() <= Attrs::INLINE {
            Attrs::from(values.as_slice())
        } else {
            Attrs(Repr::Heap(values))
        }
    }
}

impl Deref for Attrs {
    type Target = [f64];

    #[inline]
    fn deref(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, values } => &values[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }
}

impl DerefMut for Attrs {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        match &mut self.0 {
            Repr::Inline { len, values } => &mut values[..usize::from(*len)],
            Repr::Heap(values) => values,
        }
    }
}

impl PartialEq for Attrs {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A single record of the outsourced table.
///
/// Records carry a unique identifier and a vector of numeric attribute
/// values (e.g. GPA, number of awards, number of papers in the paper's
/// running example). The utility-function template maps each record to a
/// linear function of the query weights.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Unique identifier assigned by the data owner.
    pub id: u64,
    /// Numeric attribute values, in template order.
    pub attrs: Attrs,
    /// Optional human-readable label (applicant name, patient id, ...).
    pub label: Option<String>,
}

impl Record {
    /// Creates a record without a label.
    pub fn new(id: u64, attrs: Vec<f64>) -> Self {
        Record {
            id,
            attrs: attrs.into(),
            label: None,
        }
    }

    /// Creates a record with a label.
    pub fn with_label(id: u64, attrs: Vec<f64>, label: impl Into<String>) -> Self {
        Record {
            id,
            attrs: attrs.into(),
            label: Some(label.into()),
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Canonical byte encoding of the record: `id` big-endian, the attribute
    /// count as a big-endian `u32`, every attribute as IEEE-754 big-endian
    /// bytes, then — only when a label is present — the marker byte `0x01`
    /// and the label's bytes, so an absent label and an empty one encode
    /// differently.
    ///
    /// Both the data owner (when building the authenticated structure) and
    /// the client (when re-hashing returned records during verification)
    /// must produce exactly the same bytes, so this encoding is the contract
    /// between them.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 + self.attrs.len() * 8 + 16);
        self.write_canonical(|bytes| out.extend_from_slice(bytes));
        out
    }

    /// `H(r)` — the record digest used as a Merkle leaf: SHA-256 of
    /// [`canonical_bytes`](Self::canonical_bytes), streamed into the hasher
    /// rather than collected first (a verified answer hashes every record
    /// it returns).
    pub fn digest(&self) -> Digest {
        let mut hasher = Sha256::new();
        self.write_canonical(|bytes| hasher.update(bytes));
        hasher.finalize()
    }

    /// Appends [`digest`](Self::digest) of each of `records` to `out`, in
    /// order. A record whose canonical bytes fit one SHA-256 block (at most
    /// [`ONE_BLOCK_MAX`] bytes: every unlabelled record up to five
    /// attributes) is staged on the stack and hashed in a pair with the next
    /// such record; any other takes [`digest`](Self::digest).
    pub fn digests_into(records: &[Record], out: &mut Vec<Digest>) {
        out.reserve(records.len());
        // Two stacked records at most: the first waits in `staged[0]`, its
        // digest due at `out[waiting]`, until a second joins it.
        let mut staged = [[0u8; ONE_BLOCK_MAX]; 2];
        let mut lens = [0; 2];
        let mut waiting = None;
        for record in records {
            let lane = usize::from(waiting.is_some());
            let Some(len) = record.stage(&mut staged[lane]) else {
                out.push(record.digest());
                continue;
            };
            lens[lane] = len;
            match waiting.take() {
                None => {
                    waiting = Some(out.len());
                    out.push(Digest::default());
                }
                Some(slot) => {
                    let [first, second] = &staged;
                    let [a, b] = sha256_two([&first[..lens[0]], &second[..len]]);
                    out[slot] = a;
                    out.push(b);
                }
            }
        }
        if let Some(slot) = waiting {
            out[slot] = sha256(&staged[0][..lens[0]]);
        }
    }

    /// Writes the canonical encoding to the front of `buf` and returns its
    /// length, or `None`, `buf` untouched, when it does not fit.
    fn stage(&self, buf: &mut [u8]) -> Option<usize> {
        let label = self.label.as_ref().map_or(0, |label| 1 + label.len());
        let len = 8 + 4 + 8 * self.attrs.len() + label;
        let mut rest = buf.get_mut(..len)?;
        self.write_canonical(|piece| {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(piece.len());
            head.copy_from_slice(piece);
            rest = tail;
        });
        Some(len)
    }

    /// Feeds the canonical encoding to `sink`, piece by piece.
    fn write_canonical(&self, mut sink: impl FnMut(&[u8])) {
        sink(&self.id.to_be_bytes());
        sink(&(self.attrs.len() as u32).to_be_bytes());
        for a in self.attrs.iter() {
            sink(&a.to_be_bytes());
        }
        if let Some(label) = &self.label {
            sink(&[0x01]);
            sink(label.as_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vaq_crypto::sha256::sha256;

    #[test]
    fn digest_is_sha256_of_canonical_bytes() {
        // Arities 0..=9 put the encoding (12 + 8d bytes, plus marker and
        // label) on both sides of the one-block limit at 55 and, with the
        // long label, past a whole block.
        let mut rng = StdRng::seed_from_u64(20);
        for arity in 0..=9 {
            let attrs: Vec<f64> = (0..arity).map(|_| rng.gen::<f64>() * 100.0).collect();
            let labels = [
                None,
                Some(String::new()),
                Some("alice".to_string()),
                Some("x".repeat(rng.gen_range(60usize..200))),
            ];
            for label in labels {
                let record = Record {
                    id: rng.gen(),
                    attrs: attrs.clone().into(),
                    label,
                };
                assert_eq!(
                    record.digest(),
                    sha256(&record.canonical_bytes()),
                    "{record:?}"
                );
            }
        }
    }

    #[test]
    fn slice_digests_equal_one_record_at_a_time() {
        // Arities 0..=9 × {no label, "", short, > 64 bytes}: the encoding
        // straddles the 55-byte staging limit (arity 5 unlabelled is 52
        // bytes, with a marker and "alice" 58), so runs mix paired, lone
        // and streamed records in every order; every prefix length covers
        // odd and even counts of the paired kind.
        let mut rng = StdRng::seed_from_u64(27);
        let mut records = Vec::new();
        for arity in 0..=9 {
            let attrs: Vec<f64> = (0..arity).map(|_| rng.gen::<f64>() * 100.0).collect();
            let labels = [
                None,
                Some(String::new()),
                Some("alice".to_string()),
                Some("x".repeat(rng.gen_range(65usize..200))),
            ];
            for label in labels {
                let id = rng.gen();
                let attrs = attrs.clone().into();
                records.push(Record { id, attrs, label });
            }
        }
        let shuffled = {
            let mut shuffled = records.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.gen_range(0..=i));
            }
            shuffled
        };
        for list in [&records, &shuffled] {
            let expected: Vec<Digest> = list.iter().map(Record::digest).collect();
            for len in 0..=list.len() {
                // Appends after what `out` already holds.
                let mut out = vec![[7; 32]];
                Record::digests_into(&list[..len], &mut out);
                assert_eq!(out[0], [7; 32]);
                assert_eq!(out[1..], expected[..len], "first {len} records");
            }
        }
    }

    #[test]
    fn absent_and_empty_labels_hash_differently() {
        let absent = Record::new(7, vec![3.9, 2.0]);
        let empty = Record::with_label(7, vec![3.9, 2.0], "");
        assert_ne!(absent.canonical_bytes(), empty.canonical_bytes());
        assert_ne!(absent.digest(), empty.digest());
        // An unlabelled record's bytes are the fixed fields and nothing else.
        assert_eq!(absent.canonical_bytes().len(), 8 + 4 + 2 * 8);
        assert_eq!(empty.canonical_bytes().len(), 8 + 4 + 2 * 8 + 1);
    }

    #[test]
    fn canonical_bytes_are_deterministic() {
        let r = Record::new(7, vec![3.9, 2.0, 5.0]);
        assert_eq!(r.canonical_bytes(), r.canonical_bytes());
        assert_eq!(r.digest(), r.digest());
    }

    #[test]
    fn digest_changes_with_any_field() {
        let base = Record::new(7, vec![3.9, 2.0, 5.0]);
        let diff_id = Record::new(8, vec![3.9, 2.0, 5.0]);
        let diff_attr = Record::new(7, vec![3.9, 2.0, 5.1]);
        let diff_label = Record::with_label(7, vec![3.9, 2.0, 5.0], "alice");
        assert_ne!(base.digest(), diff_id.digest());
        assert_ne!(base.digest(), diff_attr.digest());
        assert_ne!(base.digest(), diff_label.digest());
    }

    #[test]
    fn arity_reports_attribute_count() {
        assert_eq!(Record::new(1, vec![1.0, 2.0]).arity(), 2);
        assert_eq!(Record::new(1, vec![]).arity(), 0);
    }

    #[test]
    fn attribute_order_matters() {
        let a = Record::new(1, vec![1.0, 2.0]);
        let b = Record::new(1, vec![2.0, 1.0]);
        assert_ne!(a.digest(), b.digest());
    }

    /// True when the values sit inside the `Attrs` value, not on the heap.
    fn stored_inline(attrs: &Attrs) -> bool {
        let start = attrs as *const Attrs as usize;
        let values = attrs.as_ptr() as usize;
        (start..start + std::mem::size_of::<Attrs>()).contains(&values)
    }

    #[test]
    fn attrs_read_like_the_vec_they_came_from_inline_up_to_four() {
        let mut rng = StdRng::seed_from_u64(33);
        for arity in 0..=9 {
            let values: Vec<f64> = (0..arity).map(|_| rng.gen::<f64>() - 0.5).collect();
            for attrs in [Attrs::from(values.clone()), Attrs::from(values.as_slice())] {
                assert_eq!(*attrs, values[..]);
                assert_eq!(format!("{attrs:?}"), format!("{values:?}"));
                assert_eq!(
                    stored_inline(&attrs),
                    arity <= Attrs::INLINE,
                    "arity {arity}"
                );
                let copy = attrs.clone();
                assert_eq!(copy, attrs);
                assert_eq!(stored_inline(&copy), arity <= Attrs::INLINE);
            }
        }
        // Equal values are equal whatever is left in the unused inline slots.
        let mut shrunk = Attrs::from(vec![1.0, 2.0]);
        shrunk[1] = 3.0;
        assert_eq!(shrunk, Attrs::from(vec![1.0, 3.0]));
        assert_ne!(shrunk, Attrs::from(vec![1.0, 3.0, 0.0]));
    }

    #[test]
    fn an_inline_array_prefix_reads_like_the_same_slice() {
        let values = [0.5, -1.25, 3.0, -0.0];
        for len in 0..=Attrs::INLINE {
            let attrs = Attrs::inline(values, len).expect("fits inline");
            assert_eq!(attrs, Attrs::from(&values[..len]));
            assert!(stored_inline(&attrs));
        }
        assert!(Attrs::inline(values, Attrs::INLINE + 1).is_none());
    }

    #[test]
    fn editing_attrs_in_place_changes_the_digest() {
        for arity in [1, Attrs::INLINE, Attrs::INLINE + 1, 9] {
            let record = Record::new(5, (0..arity).map(|i| i as f64 / 8.0).collect());
            let mut tampered = record.clone();
            tampered.attrs[arity - 1] += 0.01;
            assert_ne!(tampered.digest(), record.digest(), "arity {arity}");
            if let Some(first) = tampered.attrs.first_mut() {
                *first = -1.0;
            }
            let mut digests = Vec::new();
            Record::digests_into(&[record.clone(), tampered.clone()], &mut digests);
            assert_eq!(digests, [record.digest(), tampered.digest()]);
            assert_ne!(digests[0], digests[1]);
        }
    }
}

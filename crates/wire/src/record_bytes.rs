//! A publication's records as wire bytes, and the query reply framed from
//! them.
//!
//! A wide answer carries hundreds of records. Cloning each one out of the
//! dataset, encoding it and dropping the clone costs more than the rest of
//! the server's work on that answer, and every reply re-encodes the same
//! bytes. [`RecordBytes`] encodes every record once per publication, and
//! [`query_response_frame`] frames a reply by copying each result record's
//! slice, so the server handles no `Record` on the way out. The bytes on
//! the wire are the ones [`Response::Query`] encodes.
//!
//! [`Response::Query`]: crate::Response::Query

use crate::io::Writer;
use crate::{framed_reusing, WireEncode};
use vaq_authquery::Answer;
use vaq_funcdb::{Dataset, FuncId};

/// Every record of one dataset in its current wire encoding, end to end in
/// one buffer, indexed by [`FuncId`].
#[derive(Debug)]
pub struct RecordBytes {
    bytes: Vec<u8>,
    /// Record `i` is `bytes[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
}

impl RecordBytes {
    /// Encodes every record of `dataset`, in id order.
    pub fn new(dataset: &Dataset) -> RecordBytes {
        let mut w = Writer::new();
        let mut offsets = Vec::with_capacity(dataset.len() + 1);
        offsets.push(0);
        for record in &dataset.records {
            record.encode(&mut w);
            offsets.push(w.len());
        }
        RecordBytes {
            bytes: w.into_bytes(),
            offsets,
        }
    }

    /// Record `id`'s wire encoding, or `None` past the end of the dataset.
    pub fn get(&self, id: FuncId) -> Option<&[u8]> {
        let i = id.index();
        let (start, end) = (*self.offsets.get(i)?, *self.offsets.get(i + 1)?);
        self.bytes.get(start..end)
    }
}

/// The framed `Response::Query { epoch, response }` for `answer`, the same
/// bytes as encoding the response with the window's records copied out,
/// assembled in `scratch` like [`WireEncode::to_framed_bytes_reusing`].
/// `None` if the window names a record `records` does not hold.
///
/// Written by hand because the records are not values here but slices of
/// `records`: the tag, the epoch and the record count, one slice copy per
/// record, then the verification object and the cost through their own
/// codecs. A test holds it to the derived encoder's bytes.
pub fn query_response_frame(
    epoch: u64,
    answer: &Answer<'_>,
    records: &RecordBytes,
    scratch: &mut Vec<u8>,
) -> Option<Vec<u8>> {
    let mut complete = true;
    let frame = framed_reusing(scratch, |w| {
        w.put_u8(crate::envelope::RESPONSE_TAG_QUERY);
        w.put_u64(epoch);
        w.put_len(answer.window.len());
        for id in answer.window {
            match records.get(*id) {
                Some(bytes) => w.put_raw(bytes),
                None => complete = false,
            }
        }
        answer.vo.encode(w);
        answer.cost.encode(w);
    });
    complete.then_some(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Response;
    use vaq_authquery::{IfmhTree, Query, Server, SigningMode};
    use vaq_crypto::SignatureScheme;
    use vaq_funcdb::Record;
    use vaq_workload::{patient_risk_table, uniform_dataset};

    /// Queries at `x` over every kind, plus empty range windows below the
    /// lowest score, above the highest and in the widest gap between two.
    fn queries_at(server: &Server, x: &[f64]) -> Vec<Query> {
        let dataset = server.dataset();
        let leaf = server.tree().itree().locate(x).leaf;
        let scores: Vec<f64> = server
            .tree()
            .itree()
            .sorted_list(leaf)
            .iter()
            .map(|id| dataset.score(*id, x))
            .collect();
        let (lo, hi) = (scores[0], scores[scores.len() - 1]);
        let (gap_at, _) = scores.windows(2).map(|w| w[1] - w[0]).enumerate().fold(
            (0, f64::MIN),
            |best, (i, g)| if g > best.1 { (i, g) } else { best },
        );
        let (a, b) = (scores[gap_at], scores[gap_at + 1]);
        assert!(a < b, "the dataset has two distinct scores at {x:?}");
        let w = x.to_vec();
        let n = scores.len();
        vec![
            Query::top_k(w.clone(), 0),
            Query::top_k(w.clone(), 3),
            Query::top_k(w.clone(), n + 2),
            Query::range(w.clone(), lo, hi),
            Query::range(w.clone(), lo - 2.0, lo - 1.0),
            Query::range(w.clone(), hi + 1.0, hi + 2.0),
            Query::range(w.clone(), a + (b - a) / 3.0, b - (b - a) / 3.0),
            Query::knn(w.clone(), 0, (lo + hi) / 2.0),
            Query::knn(w.clone(), 2, (lo + hi) / 2.0),
            Query::knn(w.clone(), n, lo - 1.0),
            Query::knn(w, 3, hi + 1.0),
        ]
    }

    /// `dataset` with a label on two records in three, one of them empty.
    fn labelled(dataset: Dataset) -> Dataset {
        let records = dataset
            .records
            .iter()
            .map(|r| match r.id % 3 {
                0 => Record::with_label(r.id, r.attrs.to_vec(), format!("r-{}", r.id)),
                1 => Record::with_label(r.id, r.attrs.to_vec(), ""),
                _ => r.clone(),
            })
            .collect();
        Dataset::new(records, dataset.template, dataset.domain)
    }

    #[test]
    fn arena_frames_equal_the_derived_response_bytes() {
        let mut tables = vec![patient_risk_table(10, 3)];
        for dims in 1..=5 {
            let n = if dims <= 2 { 10 } else { 6 };
            tables.push(uniform_dataset(n, dims, 40 + dims as u64));
            tables.push(labelled(uniform_dataset(n, dims, 50 + dims as u64)));
        }
        let scheme = SignatureScheme::test_rsa(34);
        let mut scratch = Vec::new();
        for dataset in tables {
            let dims = dataset.dims();
            let arena = RecordBytes::new(&dataset);
            for mode in [SigningMode::OneSignature, SigningMode::MultiSignature] {
                let tree = IfmhTree::build_at_epoch(&dataset, mode, &scheme, 9);
                let server = Server::new(dataset.clone(), tree);
                for x in [vec![0.3; dims], vec![0.85; dims]] {
                    let mut empty_windows = 0;
                    for query in queries_at(&server, &x) {
                        let (answer, _) = server.answer(&query);
                        empty_windows += usize::from(answer.window.is_empty());
                        let frame = query_response_frame(9, &answer, &arena, &mut scratch);
                        let (response, _) = server.process_timed(&query);
                        let derived = Response::Query { epoch: 9, response }.to_framed_bytes();
                        assert_eq!(frame, Some(derived), "d = {dims}, {mode}, {query:?}");
                    }
                    // Top-k and KNN with k = 0, and the three empty ranges.
                    assert_eq!(empty_windows, 5, "d = {dims}, {mode}, {x:?}");
                }
            }
        }
    }

    #[test]
    fn arena_slices_are_each_records_wire_bytes() {
        let dataset = labelled(uniform_dataset(9, 5, 7));
        let arena = RecordBytes::new(&dataset);
        for record in &dataset.records {
            let id = FuncId(record.id as u32);
            assert_eq!(arena.get(id), Some(&record.to_wire_bytes()[..]));
        }
        assert_eq!(arena.get(FuncId(9)), None);
    }

    #[test]
    fn a_window_naming_a_record_the_arena_lacks_frames_nothing() {
        let dataset = uniform_dataset(8, 1, 3);
        let scheme = SignatureScheme::test_rsa(3);
        let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
        let server = Server::new(dataset.clone(), tree);
        let (answer, _) = server.answer(&Query::top_k(vec![0.5], 3));
        let fewer = RecordBytes::new(&uniform_dataset(2, 1, 3));
        assert_eq!(
            query_response_frame(0, &answer, &fewer, &mut Vec::new()),
            None
        );
    }
}

//! Datasets: a table, its template, and the derived functions.

use crate::domain::Domain;
use crate::function::{FuncId, LinearFunction};
use crate::record::Record;
use crate::template::FunctionTemplate;

/// The outsourced database as seen by the rest of the system: the original
/// records, the utility-function template, the derived linear functions and
/// the owner-declared weight domain.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Original records, indexed by [`FuncId`] position.
    pub records: Vec<Record>,
    /// The utility-function template shared with the server and clients.
    pub template: FunctionTemplate,
    /// `functions[i]` is the interpretation of `records[i]`.
    pub functions: Vec<LinearFunction>,
    /// The domain of the weight variables.
    pub domain: Domain,
}

impl Dataset {
    /// Builds a dataset from records, a template and a weight domain.
    ///
    /// Panics if any record's arity disagrees with the template.
    pub fn new(records: Vec<Record>, template: FunctionTemplate, domain: Domain) -> Self {
        assert_eq!(
            template.dims(),
            domain.dims(),
            "template and domain dimensionality disagree"
        );
        let functions = records
            .iter()
            .enumerate()
            .map(|(i, r)| template.to_function(FuncId(i as u32), r))
            .collect();
        Dataset {
            records,
            template,
            functions,
            domain,
        }
    }

    /// Number of records / functions `n`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the dataset has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of weight dimensions `d`.
    pub fn dims(&self) -> usize {
        self.template.dims()
    }

    /// Looks up a record by function id. Panics on sentinels.
    pub fn record(&self, id: FuncId) -> &Record {
        &self.records[id.index()]
    }

    /// Looks up a function by id. Panics on sentinels.
    pub fn function(&self, id: FuncId) -> &LinearFunction {
        &self.functions[id.index()]
    }

    /// Evaluates function `id` at `x`.
    pub fn score(&self, id: FuncId, x: &[f64]) -> f64 {
        self.function(id).eval(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> Dataset {
        let template = FunctionTemplate::new(vec!["a", "b"]);
        let records = vec![
            Record::new(100, vec![1.0, 0.0]),
            Record::new(101, vec![0.0, 1.0]),
            Record::new(102, vec![0.5, 0.5]),
        ];
        Dataset::new(records, template, Domain::unit(2))
    }

    #[test]
    fn functions_match_records() {
        let ds = small_dataset();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dims(), 2);
        assert!((ds.score(FuncId(0), &[0.3, 0.9]) - 0.3).abs() < 1e-12);
        assert!((ds.score(FuncId(1), &[0.3, 0.9]) - 0.9).abs() < 1e-12);
        assert!((ds.score(FuncId(2), &[0.3, 0.9]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn record_and_function_lookup_agree() {
        let ds = small_dataset();
        for i in 0..ds.len() as u32 {
            assert_eq!(
                *ds.record(FuncId(i)).attrs,
                ds.function(FuncId(i)).coeffs[..]
            );
        }
    }

    #[test]
    fn empty_dataset() {
        let ds = Dataset::new(vec![], FunctionTemplate::anonymous(2), Domain::unit(2));
        assert!(ds.is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality disagree")]
    fn template_domain_mismatch_panics() {
        let _ = Dataset::new(vec![], FunctionTemplate::anonymous(2), Domain::unit(3));
    }
}

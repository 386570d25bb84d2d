//! Utility-function templates.

use crate::function::{FuncId, LinearFunction};
use crate::record::Record;

/// A linear utility-function template.
///
/// The paper's example: `Score(w1, w2, w3) = GPA·w1 + Award·w2 + Paper·w3`.
/// The template fixes which attributes participate and in what order; the
/// query supplies the weight vector `X = (w1, …, wd)` at query time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FunctionTemplate {
    /// Human-readable names of the weighted attributes, e.g.
    /// `["gpa", "awards", "papers"]`.
    pub attr_names: Vec<String>,
}

impl FunctionTemplate {
    /// Creates a template over the named attributes.
    pub fn new<S: Into<String>>(attr_names: Vec<S>) -> Self {
        FunctionTemplate {
            attr_names: attr_names.into_iter().map(Into::into).collect(),
        }
    }

    /// Creates an anonymous template of the given dimensionality
    /// (`x0, x1, …`).
    pub fn anonymous(dims: usize) -> Self {
        FunctionTemplate {
            attr_names: (0..dims).map(|i| format!("x{i}")).collect(),
        }
    }

    /// Number of weight variables `d`.
    pub fn dims(&self) -> usize {
        self.attr_names.len()
    }

    /// Interprets a record as a linear function under this template.
    ///
    /// Panics if the record's arity does not match the template.
    pub fn to_function(&self, func_id: FuncId, record: &Record) -> LinearFunction {
        assert_eq!(
            record.arity(),
            self.dims(),
            "record {} arity {} does not match template arity {}",
            record.id,
            record.arity(),
            self.dims()
        );
        LinearFunction::new(func_id, record.attrs.to_vec(), 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_maps_record_to_function() {
        let t = FunctionTemplate::new(vec!["gpa", "awards", "papers"]);
        let r = Record::new(1, vec![3.9, 2.0, 5.0]);
        let f = t.to_function(FuncId(0), &r);
        // Score with weights (1, 1, 1) = 3.9 + 2 + 5
        assert!((f.eval(&[1.0, 1.0, 1.0]) - 10.9).abs() < 1e-12);
        // Score with weights (10, 0, 0) = 39
        assert!((f.eval(&[10.0, 0.0, 0.0]) - 39.0).abs() < 1e-12);
    }

    #[test]
    fn anonymous_template_dims() {
        let t = FunctionTemplate::anonymous(4);
        assert_eq!(t.dims(), 4);
        assert_eq!(t.attr_names[2], "x2");
    }

    #[test]
    #[should_panic(expected = "does not match template arity")]
    fn arity_mismatch_panics() {
        let t = FunctionTemplate::anonymous(3);
        let r = Record::new(1, vec![1.0]);
        let _ = t.to_function(FuncId(0), &r);
    }
}

//! Function-database substrate.
//!
//! In the paper's system model a data owner outsources a relational table
//! together with a *utility-function template*. The server interprets every
//! record `r_i` as a linear function `f_i(X) = a_i · X (+ b_i)` of the
//! query-supplied weight vector `X`; analytic queries (top-k, range, KNN)
//! rank the database by these function values.
//!
//! This crate provides everything below the authenticated index:
//!
//! * [`record`] / [`template`] / [`dataset`] — records, the linear utility
//!   template and the conversion from a table to a set of functions.
//! * [`function`] — [`function::LinearFunction`]: evaluation, differences,
//!   canonical byte encoding used for hashing.
//! * [`domain`] — axis-aligned boxes that bound the weight space.
//! * [`halfspace`] / [`subdomain`] — linear inequalities `f_i − f_j ⋛ 0` and
//!   the polytopes (subdomains) they carve out of the domain.
//! * [`simplex`] — a dense two-phase simplex LP solver.
//! * [`feasibility`] — the exact test of whether a hyperplane splits a
//!   region (its filters, and the LP behind them), the primitive the I-tree
//!   construction is built on.
//! * [`sort`] — sorting functions by their value at a point, i.e. the
//!   "sorted function list" of a subdomain, read at its witness.

#![warn(missing_docs)]

pub mod dataset;
pub mod domain;
pub mod feasibility;
pub mod function;
pub mod halfspace;
pub mod record;
pub mod simplex;
pub mod sort;
pub mod subdomain;
pub mod template;

pub use dataset::Dataset;
pub use domain::Domain;
pub use feasibility::{point_evidence, range_misses, LpSplitOracle, PointEvidence, SplitDecision};
pub use function::{FuncId, LinearFunction};
pub use halfspace::HalfSpace;
pub use record::{Attrs, Record};
pub use simplex::{LpOutcome, LpProblem};
pub use sort::sort_functions_at;
pub use subdomain::{inequality_set_digest, SubdomainConstraints};
pub use template::FunctionTemplate;

/// Numerical tolerance used throughout geometric predicates.
pub const EPS: f64 = 1e-9;

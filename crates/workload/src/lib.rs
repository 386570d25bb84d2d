//! Synthetic workload generation for the experiments.
//!
//! The paper's evaluation uses synthetic databases of 1,000–10,000 records
//! ranked by linear functions, and its introduction motivates the problem
//! with concrete domains: graduate-admission scoring, disease-risk scoring
//! and financial-risk scoring. This crate generates tables with those schema
//! shapes plus generic uniform/Gaussian tables, and random query mixes
//! (top-k, range, KNN) over them.

#![warn(missing_docs)]

pub mod queries;
pub mod tables;

pub use queries::{random_point, QueryGenerator, QueryMix, QuerySpec};
pub use tables::{
    applicant_table, financial_risk_table, patient_risk_table, uniform_dataset, TableKind,
};

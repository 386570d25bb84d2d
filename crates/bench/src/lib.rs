//! Experiment harness reproducing the paper's evaluation (Sec. 4.3).
//!
//! Every figure of the evaluation has a corresponding runner in
//! [`figures`]; the `figures` binary prints the same series the paper plots.
//!
//! # Scale note
//!
//! The paper sweeps 1,000–10,000 records. The number of subdomains grows
//! quadratically (and worse in higher dimensions), and the signature mesh
//! needs `#subdomains × (n + 1)` public-key signatures, so exact
//! construction at the paper's upper end is intractable in a test
//! environment (the paper itself notes mesh construction was "extremely
//! time-consuming"). The harness therefore exposes two scales:
//!
//! * [`Scale::Small`] (default) — arrangement-heavy sweeps run at
//!   n = 10–40 records (d = 2), result-length sweeps at n = 1,000 (d = 1);
//!   runs in seconds to a few minutes.
//! * [`Scale::Paper`] — the paper's parameters, for completeness; only
//!   sensible on a large machine with hours of budget.
//!
//! All comparative *shapes* (who wins, growth trends, crossovers) are
//! preserved at the small scale.

#![warn(missing_docs)]

pub mod figures;
pub mod report;
pub mod setup;

pub use figures::*;
pub use report::print_table;
pub use setup::{Scale, SchemeSet};

//! Authenticated analytic queries over outsourced function databases.
//!
//! This crate is the paper's primary contribution: the **IFMH-tree**
//! (Intersection and Function Merkle Hash tree) and the machinery around it
//! that lets a data user verify that the result of a *top-k*, *range* or
//! *KNN* query returned by an untrusted server is **sound** (every returned
//! record is original and satisfies the query) and **complete** (no
//! qualifying record was omitted).
//!
//! # Roles
//!
//! * **Data owner** — builds an [`IfmhTree`] over the dataset with
//!   [`IfmhTree::build`], choosing a [`SigningMode`]:
//!   [`SigningMode::OneSignature`] signs only the IMH root,
//!   [`SigningMode::MultiSignature`] signs every subdomain's FMH root
//!   together with its defining inequalities. The owner uploads the dataset
//!   and the tree to the server and publishes the public key and the
//!   utility-function template.
//! * **Server** — wraps the dataset and the tree in a [`Server`] and answers
//!   queries with [`Server::process`], returning the query result plus a
//!   [`VerificationObject`].
//! * **Data user (client)** — calls [`client::verify`] with the query, the
//!   result, the verification object, the template and the owner's public
//!   key; a successful verification proves soundness and completeness.
//!
//! # Quick example
//!
//! ```
//! use vaq_authquery::{client, IfmhTree, Query, Server, SigningMode};
//! use vaq_crypto::SignatureScheme;
//! use vaq_funcdb::{Dataset, Domain, FunctionTemplate, Record};
//!
//! // Owner side: a tiny applicant table.
//! let template = FunctionTemplate::new(vec!["gpa", "awards", "papers"]);
//! let records = vec![
//!     Record::new(0, vec![0.9, 0.2, 0.3]),
//!     Record::new(1, vec![0.6, 0.8, 0.1]),
//!     Record::new(2, vec![0.4, 0.5, 0.9]),
//! ];
//! let dataset = Dataset::new(records, template.clone(), Domain::unit(3));
//! let scheme = SignatureScheme::test_rsa(7);
//! let tree = IfmhTree::build(&dataset, SigningMode::OneSignature, &scheme);
//!
//! // Server side.
//! let server = Server::new(dataset.clone(), tree);
//! let query = Query::top_k(vec![1.0, 0.5, 0.25], 2);
//! let response = server.process(&query);
//!
//! // Client side.
//! let public_key = scheme.public_key();
//! let outcome = client::verify(
//!     &query,
//!     &response.records,
//!     &response.vo,
//!     &template,
//!     &public_key,
//! );
//! assert!(outcome.is_ok());
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cost;
pub mod error;
pub mod ifmh;
pub mod owner;
pub mod query;
pub mod server;
pub mod signing;
pub mod vo;

pub use client::{
    check_window_semantics, verify, verify_at_epoch, verify_at_epoch_with_scratch, VerifiedResult,
    VerifyScratch,
};
pub use cost::{ClientCost, OwnerStats, ServerCost};
pub use error::VerifyError;
pub use ifmh::IfmhTree;
pub use owner::{DataOwner, PublishedMetadata};
pub use query::{Query, QueryKind};
pub use server::{Answer, ProcessTiming, QueryResponse, Server};
pub use signing::SigningMode;
pub use vo::{BoundaryEntry, IntersectionVerification, IvStep, VerificationObject};

//! The public XML schema for physical database design (§6.1).
//!
//! "Having a public schema facilitates development of other tools that
//! can program against the schema ... and makes it possible for different
//! users/tools to interchange and communicate physical database design
//! information."
//!
//! This crate provides a small, dependency-free XML reader/writer
//! ([`xml`]) and the typed schema layer ([`schema`]) that serializes DTA
//! inputs (workload, tuning options, user-specified configuration) and
//! outputs (recommendation, report). §6.3's iterative-tuning loop — feed
//! the output configuration of one run back as the input of the next —
//! is a round-trip through this schema and is covered by tests.

// R11: no panic site in library code but an `expect("<invariant>")`
// or a reasoned `#[expect]` (DESIGN.md §8). The same block stands in
// every crate `tune()`, `Server` and the baselines reach.
#![deny(
    clippy::panic,
    clippy::unwrap_used,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod schema;
pub mod xml;

pub use schema::{
    checkpoint_from_xml, checkpoint_to_xml, configuration_from_xml, configuration_to_xml,
    evaluation_to_xml, manifest_from_xml, manifest_to_xml, options_from_xml, options_to_xml,
    result_to_xml, workload_from_xml, workload_to_xml, SchemaError,
};
pub use xml::{parse_document, XmlError, XmlNode, XmlWriter};

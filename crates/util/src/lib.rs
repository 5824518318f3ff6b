//! Small shared utilities for the gRePair workspace.
//!
//! The main export is an FxHash-style hasher ([`FxHashMap`], [`FxHashSet`]):
//! the compressor keys hash tables by small integers (node IDs, edge IDs,
//! digram signatures) for which SipHash is needlessly slow, and the offline
//! crate set does not include `rustc-hash`, so we provide the same
//! multiplicative hash here.

#![forbid(unsafe_code)]

pub mod args;
pub mod fail;
pub mod fmt;
pub mod fxhash;
pub mod sync;
pub mod tmp;

pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};

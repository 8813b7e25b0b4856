//! # deca-check — hermetic verification substrate
//!
//! The build environment of this repository has no access to the crates.io
//! registry, so every verification tool the workspace needs lives here,
//! dependency-free:
//!
//! * [`rng`] — deterministic pseudo-random number generation
//!   ([`SplitMix64`], [`Xoshiro256StarStar`]) with the sampling surface the
//!   synthetic data generators use: `gen_range`, `gen_f64`, `gen_bool`,
//!   `shuffle`, `gaussian`.
//! * [`property`] — a minimal property-based testing harness: configurable
//!   case counts, per-case seeds reported on failure, and greedy input
//!   shrinking to a local-minimum counterexample.
//! * [`json`] — a minimal JSON value model, parser, and deterministic
//!   writer, shared by the trace exporters and the `benchmark/` crate's
//!   result files.
//!
//! Timing is not done here: `benchmark/` (its own workspace) is the one
//! instrument that times the system. Everything in this crate is
//! deterministic given a seed and performs no I/O. The paper's
//! reclamation and equivalence claims (Lu et al., PVLDB 2016, §2.3/§4) are
//! only as good as their tests, and those tests must run offline,
//! repeatably, forever.

pub mod json;
pub mod property;
pub mod rng;

pub use json::{Json, JsonError};
pub use property::{check, Config, Gen, TestResult};
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};

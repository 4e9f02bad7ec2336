//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each experiment lives in its own module under [`experiments`], produces
//! [`tables::Table`] values, and is runnable through the `repro` binary:
//!
//! ```text
//! cargo run --release -p cia-experiments --bin repro -- table2 --scale small
//! ```
//!
//! Modules are named after the table or figure they regenerate; the `repro`
//! usage (`src/bin/repro.rs`) lists every experiment name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
mod runner;
pub mod tables;

pub use cia_data::presets::{Preset, Scale};
pub use runner::{
    build_setup, run_recsys, DefenseKind, ModelKind, ProtocolKind, RecsysSetup, RunResult, RunSpec,
    ScaleParams,
};

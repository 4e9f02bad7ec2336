//! Experiment harness reproducing every table and figure of the paper.
//!
//! Each experiment lives in its own module under [`experiments`] and
//! produces [`tables::Table`] values. [`ARTIFACTS`] names them all; the
//! `repro` binary and the `paper_artifacts` bench iterate it:
//!
//! ```text
//! cargo run --release -p cia-experiments --bin repro -- table2 --scale small
//! ```
//!
//! The recsys artifacts are scenario runs: they build
//! [`cia_scenarios::ScenarioSpec`] values and run them with
//! [`cia_scenarios::run_quiet`]. Only the MIA/AIA proxies, the MNIST and
//! health-community studies, the ablation and Table IX's wall-clock
//! measurement wire their own simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod tables;

use cia_data::presets::Scale;
use experiments as exp;
use tables::Table;

/// Regenerates one artifact's tables at a scale and seed.
pub type RunArtifact = fn(Scale, u64) -> Vec<Table>;

/// Every paper artifact by its `repro` name, in `repro all` order.
pub const ARTIFACTS: &[(&str, RunArtifact)] = &[
    ("table1", exp::table1::run),
    ("table2", exp::table2::run),
    ("table3", exp::table3::run),
    ("table4", exp::table4::run),
    ("table5", exp::table5::run),
    ("table6", exp::table6::run),
    ("table7", exp::table7::run),
    ("table8", exp::table8::run),
    ("table9", exp::table9::run),
    ("fig1", exp::fig1::run),
    ("fig3", exp::fig3::run),
    ("fig4", exp::fig4::run),
    ("fig5", exp::fig5::run),
    ("aia", exp::aia::run),
    ("mnist", exp::mnist::run),
    ("ablation", exp::ablation::run),
];

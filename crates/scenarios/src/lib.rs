//! `cia-scenarios` — the declarative scenario engine.
//!
//! The paper evaluates the Community Inference Attack under static FL/GL
//! deployments; real collaborative deployments have churn, stragglers,
//! partial participation and colluding sybils. This crate turns "a workload"
//! from a hand-wired Rust function into a *value*:
//!
//! * [`spec`] — the scenario specification: dataset × scale × model ×
//!   protocol × defense × attack plus a `dynamics` block, parseable from
//!   JSON and composable into named suites of *generators* — plain
//!   scenarios or parameter sweeps ([`SuiteSpec`], [`SuiteEntry`],
//!   [`builtin_suite`], [`participation_sweep_suite`],
//!   [`defense_dynamics_grid_suite`], [`pers_gossip_churn_suite`]);
//! * [`dynamics`] — the participant-dynamics layer, threaded through the
//!   protocols' observer seams so the training loops never fork;
//! * [`placement`] — adaptive traffic-aware sybil placement: a coalition
//!   that observes traffic for a warm-up window, then relocates onto the
//!   top-scoring positions ([`adaptive_sybils_suite`]);
//! * [`runner`] — deterministic suite execution streaming one JSONL record
//!   per (scenario, evaluation round), with checkpoint/resume of model,
//!   momentum, tracker and dynamics state ([`checkpoint`]);
//! * [`setup`] — the shared dataset/ground-truth substrate (also consumed by
//!   `cia-experiments`);
//! * [`json`] — the dependency-free JSON codec behind specs and records;
//! * [`trace`] — Chrome trace-event export of the per-round phase spans and
//!   counters the runner drains from its `cia_obs::Recorder`;
//! * [`report`] — the `scenario report` aggregator: per-phase mean/p50/p99
//!   tables, counter totals and the RSS trajectory from a run's JSONL.
//!
//! ```
//! use cia_data::presets::Scale;
//! use cia_scenarios::{builtin_suite, runner::{run_suite, validate_jsonl, RunOptions}};
//!
//! let suite = builtin_suite(Scale::Smoke, 42);
//! let mut out = Vec::new();
//! let outcomes = run_suite(&suite, &RunOptions::default(), &mut out).unwrap();
//! assert_eq!(outcomes.len(), 3);
//! validate_jsonl(&String::from_utf8(out).unwrap()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod dynamics;
pub mod json;
pub mod mem;
pub mod placement;
pub mod report;
pub mod runner;
pub mod setup;
pub mod spec;
pub mod trace;

pub use dynamics::{DynamicsState, FlDynamics, GlDynamics, ParticipantDynamics};
pub use mem::peak_rss_bytes;
pub use placement::{PlacementEngine, PlacementObserver, PlacementState};
pub use report::{render as render_report, summarize, PhaseStat, ScenarioReport};
pub use runner::{run_quiet, run_scenario, run_suite, RunOptions, RunResult, ScenarioOutcome};
pub use setup::{build_setup, try_build_setup, validate_scale_params, RecsysSetup};
pub use spec::{
    adaptive_sybils_suite, builtin_suite, defense_dynamics_grid_suite, named_suite,
    participation_sweep_suite, pers_gossip_churn_suite, DefenseKind, DynamicsSpec, ModelKind,
    PlacementStrategy, ProtocolKind, ScaleParams, ScenarioSpec, SuiteEntry, SuiteSpec, SweepField,
    BUILTIN_SUITES,
};
pub use trace::{chrome_trace, validate_chrome_trace};

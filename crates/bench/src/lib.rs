//! Benchmark support library.
//!
//! The actual Criterion benchmarks live in `benches/`:
//!
//! * `paper_artifacts` — one benchmark per paper table/figure, running the
//!   corresponding experiment at smoke scale (the regeneration cost of each
//!   artifact);
//! * `micro` — hot-path micro-benchmarks (kernel primitives, catalog scoring,
//!   momentum updates, MLP training, FL/gossip round steps, DP noising,
//!   attack ranking), with `_scalar_ref`/`_naive` baselines for the paths the
//!   kernel layer replaced.
//!
//! # Running the benches
//!
//! ```text
//! cargo bench -p cia-bench --bench micro              # full timing run
//! cargo bench -p cia-bench --bench micro -- kernel    # name filter
//! cargo bench -p cia-bench -- --test                  # smoke: one iteration
//! scripts/bench_smoke.sh                              # smoke + clippy gate
//! scripts/bench_kernels.sh                            # regenerate BENCH_kernels.json
//! ```
//!
//! Timing runs append JSON lines to the file named by the `CRITERION_JSON`
//! env var; [`report`] folds that stream into `BENCH_kernels.json`, pairing
//! each optimized benchmark with its scalar baseline to compute speedups.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

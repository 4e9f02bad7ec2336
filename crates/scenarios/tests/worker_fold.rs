//! The FL attack's momentum fold on FedAvg's training workers, checked bit
//! for bit against the serial `on_client_model` fold it replaces: the
//! momentum tables, the evaluated history and the global model after every
//! smoke round, under full sharing, Share-less, DP and churn, for one and
//! two worker threads. A population whose client `i` is not user `i` must
//! fall back to the serial path. The smoke transcripts the serial path
//! recorded (the committed goldens) must come out unchanged.
//!
//! One test here flips `CIA_THREADS` at runtime. The other may see the
//! flip, which is harmless: the thread count never changes results, the
//! property under test.

use cia_core::{CiaConfig, FlCia, ItemSetEvaluator, MomentumState, RoundPoint};
use cia_data::presets::Scale;
use cia_defenses::DpMechanism;
use cia_federated::{FedAvg, FedAvgConfig, LivenessEvent, RoundObserver, RoundStats};
use cia_models::{Checkpointable, GmfSpec, SharedModel};
use cia_scenarios::runner::{gmf_scorer, run_suite, RunOptions};
use cia_scenarios::{
    build_setup, named_suite, DefenseKind, FlDynamics, ParticipantDynamics, ScenarioSpec,
};

/// The FL attack behind a switch: with `lend` it lends its momentum table
/// like the bare attack, without it FedAvg must hand it every model
/// through `on_client_model`, one by one.
struct Probe {
    attack: FlCia<ItemSetEvaluator<GmfSpec>>,
    lend: bool,
    /// Models delivered through `on_client_model`.
    serial_models: usize,
}

impl RoundObserver for Probe {
    fn on_round_start(&mut self, round: u64) {
        self.attack.on_round_start(round);
    }
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        self.attack.on_liveness(event);
    }
    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        self.attack.on_global(round, global_agg);
    }
    fn on_client_model(&mut self, model: &SharedModel) {
        self.serial_models += 1;
        self.attack.on_client_model(model);
    }
    fn momentum_table(&mut self) -> Option<(f32, &mut [Option<MomentumState>])> {
        if self.lend {
            self.attack.momentum_table()
        } else {
            None
        }
    }
    fn on_round_end(&mut self, stats: &RoundStats) {
        self.attack.on_round_end(stats);
    }
}

/// Everything one FL run leaves behind that the fold can influence.
#[derive(Debug, PartialEq)]
struct RunEnd {
    momentum: Vec<Option<MomentumState>>,
    history: Vec<RoundPoint>,
    global: Vec<f32>,
    /// Per round: participants and mean loss.
    rounds: Vec<(usize, Option<f32>)>,
}

/// Runs `spec`'s FL scenario as the scenario runner wires it (dynamics
/// around the attack, DP when the spec asks for it), with the population
/// in user-id order or `reversed`. Returns the run's end state, the bytes
/// materialized over all rounds and the models the serial path delivered.
fn run_fl(spec: &ScenarioSpec, lend: bool, reversed: bool) -> (RunEnd, u64, usize) {
    let setup = build_setup(spec.preset, spec.scale, spec.k_override, spec.seed);
    let n = setup.data.num_users();
    let model = gmf_scorer(setup.data.num_items(), setup.params.dim);
    let mut clients =
        model.build_clients(setup.split.train_sets(), spec.defense.policy(), spec.seed);
    if reversed {
        clients.reverse();
    }
    let rounds = setup.params.rounds(spec.protocol);
    let cia = CiaConfig {
        k: setup.k,
        beta: spec.beta,
        eval_every: setup.params.eval_every(spec.protocol),
        seed: spec.seed ^ 0xC1A,
    };
    let share_less = matches!(spec.defense, DefenseKind::ShareLess { .. });
    let evaluator = ItemSetEvaluator::new(model, setup.split.train_sets().to_vec(), share_less);
    let attack = FlCia::new(cia, evaluator, n, setup.truth_table(), setup.owner_table());
    let mut probe = Probe { attack, lend, serial_models: 0 };
    let mut dynamics = ParticipantDynamics::new(&spec.dynamics, n, spec.seed ^ 0xD11A);
    let cfg = FedAvgConfig { rounds, local_epochs: setup.params.local_epochs, seed: spec.seed };
    let mut sim = FedAvg::new(clients, cfg);
    if let DefenseKind::Dp { epsilon } = spec.defense {
        let eps = epsilon.expect("the grid's DP cell has a finite budget");
        sim.set_update_transform(Box::new(DpMechanism::with_target_epsilon(
            eps, 1e-6, rounds, 1.0, 2.0,
        )));
    }
    let (mut per_round, mut bytes) = (Vec::new(), 0);
    for _ in 0..rounds {
        let stats = sim.step(&mut FlDynamics { inner: &mut probe, dynamics: &mut dynamics });
        per_round.push((stats.participants, stats.mean_loss));
        bytes += stats.bytes_materialized;
    }
    let end = RunEnd {
        momentum: probe.attack.export_state().momentum,
        history: probe.attack.history().to_vec(),
        global: sim.global_agg().to_vec(),
        rounds: per_round,
    };
    (end, bytes, probe.serial_models)
}

/// The smoke FL cells covering full sharing, Share-less, DP and churn.
fn fl_cells() -> Vec<ScenarioSpec> {
    let mut cells = Vec::new();
    for (suite, names) in [
        ("builtin", &["baseline-static", "churn-20pct"][..]),
        ("defense-dynamics-grid", &["shareless-x-churn", "dp10-x-churn"][..]),
    ] {
        let specs = named_suite(suite, Scale::Smoke, 42).unwrap().expanded().unwrap();
        cells.extend(specs.into_iter().filter(|s| names.contains(&s.name.as_str())));
    }
    assert_eq!(cells.len(), 4, "every cell is in its suite");
    cells
}

/// The worker fold against the serial fold on one cell, bit for bit, plus
/// who was handed which model and what was materialized.
fn check_worker_fold(spec: &ScenarioSpec, ctx: &str) {
    let (serial, serial_bytes, delivered) = run_fl(spec, false, false);
    let (folded, folded_bytes, bypassed) = run_fl(spec, true, false);
    assert_eq!(folded, serial, "{ctx}: the worker fold diverged");
    let observed: usize = serial.rounds.iter().map(|r| r.0).sum();
    assert!(observed > 0, "{ctx}: nobody acted");
    assert_eq!(delivered, observed, "{ctx}: the serial path missed a model");
    assert_eq!(bypassed, 0, "{ctx}: the lent table still went through the serial path");
    assert!(serial.momentum.iter().any(Option::is_some), "{ctx}: nothing was folded");
    if matches!(spec.defense, DefenseKind::Dp { .. }) {
        // DP aggregates the transformed snapshots either way.
        assert_eq!(folded_bytes, serial_bytes, "{ctx}");
    } else {
        assert!(serial_bytes > 0, "{ctx}");
        assert_eq!(folded_bytes, 0, "{ctx}: the worker fold materialized snapshots");
    }
}

#[test]
fn worker_fold_equals_the_serial_path_under_one_and_two_threads() {
    // The committed goldens were recorded while the FL attack still folded
    // every snapshot serially. One test flips `CIA_THREADS`, so no other
    // test in this binary races it to another value.
    let goldens = [
        ("builtin", include_str!("golden/builtin-smoke.jsonl")),
        ("defense-dynamics-grid", include_str!("golden/defense-dynamics-grid-smoke.jsonl")),
    ];
    for threads in ["1", "2"] {
        std::env::set_var("CIA_THREADS", threads);
        for spec in fl_cells() {
            check_worker_fold(&spec, &format!("{} under CIA_THREADS={threads}", spec.name));
        }
        for (suite, golden) in goldens {
            let mut buf = Vec::new();
            let suite_spec = named_suite(suite, Scale::Smoke, 42).unwrap();
            run_suite(&suite_spec, &RunOptions::default(), &mut buf).unwrap();
            assert!(
                String::from_utf8(buf).unwrap() == golden,
                "{suite} under CIA_THREADS={threads} drifted from its golden"
            );
        }
    }
    std::env::remove_var("CIA_THREADS");
}

#[test]
fn population_out_of_id_order_keeps_the_serial_path() {
    // Client `i` holds user `n - 1 - i`: the lent table cannot be zipped
    // with the clients, so FedAvg must deliver every model one by one and
    // land where the serial path lands.
    let spec = fl_cells().remove(1);
    let (serial, serial_bytes, delivered) = run_fl(&spec, false, true);
    let (lent, lent_bytes, fallback) = run_fl(&spec, true, true);
    assert_eq!(lent, serial, "the fallback diverged from the serial path");
    assert_eq!(fallback, delivered, "the fallback skipped models");
    assert!(fallback > 0);
    assert_eq!(lent_bytes, serial_bytes, "the fallback skipped snapshots");
}

//! The FL attack's momentum fold on FedAvg's training workers, checked bit
//! for bit against the serial `on_client_model` fold it replaces: the
//! momentum tables, the evaluated history and the global model after every
//! smoke round, under full sharing, Share-less, DP and churn, for one, two
//! and three worker threads (three gives the workers uneven shares of
//! blocks). On the serial path every model must arrive in user-id order,
//! and under DP the global model after every round must equal the dense
//! weighted mean of the transformed snapshots (the `weighted_mean` oracle
//! below), though FedAvg folds them on its workers and, without a serial
//! observer, recycles each snapshot once folded. A population whose client
//! `i` is not user `i` must fall back to the serial path. The smoke
//! transcripts the serial path recorded (the committed goldens) must come
//! out unchanged.
//!
//! One test here flips `CIA_THREADS` at runtime. The others may see the
//! flip, which is harmless: the thread count never changes results, the
//! property under test.

use cia_core::{CiaConfig, FlCia, ItemSetEvaluator, MomentumTable, RoundPoint};
use cia_data::presets::Scale;
use cia_defenses::DpMechanism;
use cia_federated::{FedAvg, FedAvgConfig, LivenessEvent, RoundObserver, RoundStats};
use cia_models::kernel;
use cia_models::{GmfSpec, Participant, SharedModel};
use cia_scenarios::runner::{run_suite, RunOptions};
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
    /// The round's delivered models: owner and aggregate.
    arrived: Vec<(u32, Vec<f32>)>,
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
        self.arrived.push((model.owner.raw(), model.agg.clone()));
        self.attack.on_client_model(model);
    }
    fn momentum_table(&mut self) -> Option<(f32, &mut MomentumTable)> {
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
    momentum: MomentumTable,
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
    let model = GmfSpec::new(setup.data.num_items(), setup.params.dim);
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
    let mut probe = Probe { attack, lend, serial_models: 0, arrived: Vec::new() };
    let mut dynamics = ParticipantDynamics::new(&spec.dynamics, n, spec.seed ^ 0xD11A);
    let cfg = FedAvgConfig { rounds, local_epochs: setup.params.local_epochs, seed: spec.seed };
    let mut sim = FedAvg::new(clients, cfg);
    if let DefenseKind::Dp { epsilon } = spec.defense {
        let eps = epsilon.expect("the grid's DP cell has a finite budget");
        sim.set_update_transform(Box::new(DpMechanism::with_target_epsilon(
            eps, 1e-6, rounds, 1.0, 2.0,
        )));
    }
    let dp = matches!(spec.defense, DefenseKind::Dp { .. });
    let (mut per_round, mut bytes) = (Vec::new(), 0);
    for round in 0..rounds {
        let before = sim.global_agg().to_vec();
        let stats = sim.step(&mut FlDynamics { inner: &mut probe, dynamics: &mut dynamics });
        per_round.push((stats.participants, stats.mean_loss));
        bytes += stats.bytes_materialized;
        let arrived = std::mem::take(&mut probe.arrived);
        if lend || reversed {
            continue;
        }
        let owners: Vec<u32> = arrived.iter().map(|m| m.0).collect();
        assert_eq!(owners.len(), stats.participants, "{}: round {round} lost a model", spec.name);
        assert!(owners.windows(2).all(|w| w[0] < w[1]), "{}: not in user-id order", spec.name);
        if dp {
            // The transformed snapshots, weighted by local example count.
            let mut want = before;
            if !arrived.is_empty() {
                let rows: Vec<&[f32]> = arrived.iter().map(|m| m.1.as_slice()).collect();
                let weights: Vec<f32> = owners
                    .iter()
                    .map(|&u| sim.clients()[u as usize].num_examples().max(1) as f32)
                    .collect();
                weighted_mean(&mut want, &rows, &weights);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(sim.global_agg()) == bits(&want),
                "{}: round {round} global differs from the weighted mean",
                spec.name
            );
        }
    }
    let (_, table) = probe.attack.momentum_table().expect("the FL attack lends its table");
    let end = RunEnd {
        momentum: std::mem::replace(table, MomentumTable::new(0)),
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
    assert!(serial.momentum.seen().next().is_some(), "{ctx}: nothing was folded");
    if matches!(spec.defense, DefenseKind::Dp { .. }) {
        // DP aggregates the transformed snapshots either way.
        assert_eq!(folded_bytes, serial_bytes, "{ctx}");
    } else {
        assert!(serial_bytes > 0, "{ctx}");
        assert_eq!(folded_bytes, 0, "{ctx}: the worker fold materialized snapshots");
    }
}

#[test]
fn worker_fold_equals_the_serial_path_under_one_to_three_threads() {
    // The committed goldens were recorded while the FL attack still folded
    // every snapshot serially. One test flips `CIA_THREADS`, so no other
    // test in this binary races it to another value.
    let goldens = [
        ("builtin", include_str!("golden/builtin-smoke.jsonl")),
        ("defense-dynamics-grid", include_str!("golden/defense-dynamics-grid-smoke.jsonl")),
    ];
    for threads in ["1", "2", "3"] {
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

/// The dense weighted mean FedAvg's DP round computed after its workers
/// before it folded each snapshot on the worker: `out ← Σ (wᵢ/Σw)·rowᵢ`,
/// rows in order. The worker fold must match it bit for bit.
fn weighted_mean(out: &mut [f32], rows: &[&[f32]], weights: &[f32]) {
    assert!(!rows.is_empty(), "weighted_mean needs at least one row");
    assert_eq!(rows.len(), weights.len(), "one weight per row");
    let total: f32 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    out.fill(0.0);
    for (row, &w) in rows.iter().zip(weights) {
        kernel::axpy(out, w / total, row);
    }
}

proptest::proptest! {
    #[test]
    fn weighted_mean_of_identical_rows_is_the_row(
        row in proptest::collection::vec(-100.0f32..100.0, 12..=12),
        w1 in 0.1f32..10.0,
        w2 in 0.1f32..10.0,
    ) {
        let mut out = vec![0.0f32; 12];
        weighted_mean(&mut out, &[&row, &row], &[w1, w2]);
        for (o, r) in out.iter().zip(&row) {
            proptest::prop_assert!((o - r).abs() < 1e-3, "o={} r={}", o, r);
        }
    }

    #[test]
    fn weighted_mean_is_convex_combination(
        a in proptest::collection::vec(-100.0f32..100.0, 8..=8),
        b in proptest::collection::vec(-100.0f32..100.0, 8..=8),
        w in 0.01f32..0.99,
    ) {
        let mut out = vec![0.0f32; 8];
        weighted_mean(&mut out, &[&a, &b], &[w, 1.0 - w]);
        for ((x, y), o) in a.iter().zip(&b).zip(&out) {
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            proptest::prop_assert!(*o >= lo - 1e-3 && *o <= hi + 1e-3);
        }
    }
}

//! Suite-level guarantees: byte-identical determinism of the JSONL stream,
//! and kill/resume by replay landing on exactly the stream and metrics of an
//! uninterrupted run — for both protocol families — while a stream the
//! replay does not reproduce is refused by line.

use cia_data::presets::Scale;
use cia_scenarios::runner::{run_scenario, run_suite, validate_jsonl, RunOptions};
use cia_scenarios::{builtin_suite, DefenseKind, ScenarioOutcome};

fn run_builtin(seed: u64) -> (Vec<ScenarioOutcome>, Vec<u8>) {
    let suite = builtin_suite(Scale::Smoke, seed);
    let mut buf = Vec::new();
    let outcomes = run_suite(&suite, &RunOptions::default(), &mut buf).unwrap();
    (outcomes, buf)
}

#[test]
fn same_spec_and_seed_is_byte_identical() {
    let (outcomes_a, bytes_a) = run_builtin(42);
    let (_, bytes_b) = run_builtin(42);
    assert_eq!(bytes_a, bytes_b, "two runs of the same suite diverged");
    assert!(outcomes_a.iter().all(|o| o.completed));
    // A different seed produces a different stream (the suite actually
    // depends on its seed, so the identity above is not vacuous).
    let (_, bytes_c) = run_builtin(43);
    assert_ne!(bytes_a, bytes_c);
    // And the stream is schema-valid.
    validate_jsonl(&String::from_utf8(bytes_a).unwrap()).unwrap();
}

/// `buf` as the text of a stream.
fn text(buf: &[u8]) -> String {
    String::from_utf8(buf.to_vec()).unwrap()
}

/// Options that resume from `stream`.
fn resuming(stream: &[u8]) -> RunOptions {
    RunOptions { resume: Some(text(stream)), ..RunOptions::default() }
}

fn resume_matches_uninterrupted(
    suite: cia_scenarios::SuiteSpec,
    scenario_index: usize,
    stop_after: u64,
) {
    let spec = suite.expanded().unwrap()[scenario_index].clone();
    resume_spec_matches_uninterrupted(&spec, stop_after);
}

fn resume_spec_matches_uninterrupted(spec: &cia_scenarios::ScenarioSpec, stop_after: u64) {
    // Uninterrupted reference run.
    let mut straight_out = Vec::new();
    let straight = run_scenario(spec, "t", &RunOptions::default(), &mut straight_out).unwrap();

    // Killed run: stops mid-flight…
    let mut partial_out = Vec::new();
    let stop = RunOptions { stop_after_rounds: Some(stop_after), ..RunOptions::default() };
    let killed = run_scenario(spec, "t", &stop, &mut partial_out).unwrap();
    assert!(!killed.completed);
    assert_eq!(killed.rounds_done, stop_after);

    // …and resumes from its stream to completion.
    let mut resumed_out = Vec::new();
    let resumed = run_scenario(spec, "t", &resuming(&partial_out), &mut resumed_out).unwrap();
    assert!(resumed.completed);

    // The resumed run must land on exactly the uninterrupted metrics.
    assert_eq!(resumed.attack.max_aac, straight.attack.max_aac, "max AAC diverged");
    assert_eq!(resumed.attack.best10_aac, straight.attack.best10_aac);
    assert_eq!(resumed.attack.max_round, straight.attack.max_round);
    assert_eq!(resumed.attack.history, straight.attack.history, "history diverged");
    assert_eq!(resumed.utility, straight.utility, "utility diverged");

    // The stream plus what the resume appended equals the uninterrupted one.
    let mut stitched = partial_out;
    stitched.extend_from_slice(&resumed_out);
    assert_eq!(stitched, straight_out, "stitched JSONL diverged");

    // Resuming the finished stream checks it and appends nothing.
    let mut extra_out = Vec::new();
    let again = run_scenario(spec, "t", &resuming(&straight_out), &mut extra_out).unwrap();
    assert!(again.completed);
    assert!(extra_out.is_empty(), "a finished stream got duplicate records");
}

#[test]
fn fl_run_with_churn_resumes_exactly() {
    // churn-20pct: FL with churn + stragglers, killed at round 4 of 8.
    resume_matches_uninterrupted(builtin_suite(Scale::Smoke, 42), 1, 4);
}

#[test]
fn gossip_sybil_run_resumes_exactly() {
    // colluding-sybils: Rand-Gossip coalition, killed at round 20 of 40.
    resume_matches_uninterrupted(builtin_suite(Scale::Smoke, 42), 2, 20);
}

#[test]
fn dp_gossip_with_held_inboxes_resumes_exactly() {
    // DP gossip under churn, clip-only and at the paper's ε = 10: senders
    // carry `prev_sent` references and offline receivers hold undelivered
    // inbox models at the kill. The resume must land on exactly the
    // uninterrupted metrics and stream.
    use cia_data::presets::Preset;
    use cia_scenarios::{ModelKind, ProtocolKind, ScenarioSpec};
    for (epsilon, tag) in [(None, "gl-dp-clip-inboxes"), (Some(10.0), "gl-dp10-inboxes")] {
        let mut spec = ScenarioSpec::new(
            Preset::MovieLens,
            ModelKind::Gmf,
            ProtocolKind::RandGossip,
            Scale::Smoke,
        );
        spec.name = tag.to_string();
        spec.defense = DefenseKind::Dp { epsilon };
        spec.dynamics.sybils = 3;
        spec.dynamics.leave_prob = 0.3;
        spec.dynamics.join_prob = 0.4;
        resume_spec_matches_uninterrupted(&spec, 20);
    }
}

#[test]
fn pers_gossip_all_placements_run_with_churn_resumes_exactly() {
    // pers-churn: Pers-Gossip under churn with no coalition, so the
    // all-placements engine runs. Killed at round 20 of 40.
    resume_matches_uninterrupted(cia_scenarios::pers_gossip_churn_suite(Scale::Smoke, 42), 1, 20);
}

#[test]
fn share_less_prme_fl_run_resumes_exactly() {
    // PRME clients on Foursquare under Share-less, where the adversary
    // trains fictive embeddings. Killed at round 4 of 8.
    use cia_data::presets::Preset;
    use cia_scenarios::{DefenseKind, ModelKind, ProtocolKind, ScenarioSpec};
    let mut spec =
        ScenarioSpec::new(Preset::Foursquare, ModelKind::Prme, ProtocolKind::Fl, Scale::Smoke);
    spec.name = "fl-prme-share-less".to_string();
    spec.defense = DefenseKind::ShareLess { tau: 0.3 };
    resume_spec_matches_uninterrupted(&spec, 4);
}

#[test]
fn sweep_expanded_scenario_resumes_exactly() {
    // participation-0.5, a scenario that only exists after sweep expansion:
    // killed at round 4 of 8, resumed, must land on the uninterrupted
    // metrics.
    resume_matches_uninterrupted(cia_scenarios::participation_sweep_suite(Scale::Smoke, 42), 2, 4);
}

#[test]
fn adaptive_run_killed_at_the_relocation_boundary_resumes_exactly() {
    // placement-degree, killed at round 10 — exactly the end of the warm-up
    // window, before the relocation fires. The resumed process must replay
    // the identical relocation.
    resume_matches_uninterrupted(cia_scenarios::adaptive_sybils_suite(Scale::Smoke, 42), 1, 10);
}

#[test]
fn adaptive_run_killed_after_the_relocation_resumes_exactly() {
    // placement-greedy, killed at round 20 — the relocation happened in the
    // first segment; the resume must move the attack engine and the dynamics
    // sybil table to the same relocated membership.
    resume_matches_uninterrupted(cia_scenarios::adaptive_sybils_suite(Scale::Smoke, 42), 2, 20);
}

#[test]
fn gossip_kill_between_view_refreshes_resumes_exactly() {
    // colluding-sybils (40 rounds) killed at round 7: gossip view refreshes
    // straddle every round boundary, so some node's next refresh lies past
    // the kill, and the resume must land on the uninterrupted stream.
    resume_matches_uninterrupted(builtin_suite(Scale::Smoke, 42), 2, 7);
}

#[test]
fn parallel_and_serial_streams_are_byte_identical() {
    // The round hot path fans out over CIA_THREADS workers (client training,
    // gossip aggregation, relevance scoring, utility evaluation). Per-client
    // RNG streams are salted by id and every reduction folds in index order,
    // so the JSONL stream must be byte-identical for any thread count.
    //
    // Other tests in this binary may run concurrently and see the variable
    // flip — harmless, because thread count never changes results (exactly
    // the property under test).
    let run_with = |threads: &str| -> Vec<u8> {
        std::env::set_var("CIA_THREADS", threads);
        let suite = builtin_suite(Scale::Smoke, 42);
        let mut buf = Vec::new();
        let outcomes = run_suite(&suite, &RunOptions::default(), &mut buf).unwrap();
        assert!(outcomes.iter().all(|o| o.completed));
        buf
    };
    let serial = run_with("1");
    let parallel = run_with("4");
    std::env::remove_var("CIA_THREADS");
    assert_eq!(serial, parallel, "thread count changed the JSONL stream");
    validate_jsonl(&String::from_utf8(serial).unwrap()).unwrap();
}

#[test]
fn kill_and_resume_under_parallel_execution_matches_serial() {
    // A churn-FL run killed mid-flight and resumed with CIA_THREADS=4 must
    // land on exactly the metrics of an uninterrupted serial run (the
    // resume_matches_uninterrupted harness runs its reference serially
    // first, then the killed/resumed legs under the parallel setting).
    std::env::set_var("CIA_THREADS", "4");
    resume_matches_uninterrupted(builtin_suite(Scale::Smoke, 42), 1, 4);
    std::env::remove_var("CIA_THREADS");
}

#[test]
fn resume_refuses_a_different_spec_naming_line_1() {
    // A stream from seed 42 resumed under seed 7: the first recomputed
    // record already differs, so the resume names line 1 and writes
    // nothing.
    let spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[0].clone();
    let stop = RunOptions { stop_after_rounds: Some(4), ..RunOptions::default() };
    let mut stream = Vec::new();
    run_scenario(&spec, "t", &stop, &mut stream).unwrap();

    let mut tampered = spec.clone();
    tampered.seed = 7;
    let mut out = Vec::new();
    let err = run_scenario(&tampered, "t", &resuming(&stream), &mut out).unwrap_err();
    assert!(err.starts_with("resume: line 1: `seed` is 42 in the stream, 7 recomputed"), "{err}");
    assert!(out.is_empty(), "a refused resume wrote {} bytes", out.len());
}

/// The straight run of scenario `index` of the smoke built-in suite, and
/// its stream stopped after `stop_after` rounds.
fn straight_and_stopped(
    index: usize,
    stop_after: u64,
) -> (cia_scenarios::ScenarioSpec, Vec<u8>, Vec<u8>) {
    let spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[index].clone();
    let mut straight = Vec::new();
    run_scenario(&spec, "t", &RunOptions::default(), &mut straight).unwrap();
    let stop = RunOptions { stop_after_rounds: Some(stop_after), ..RunOptions::default() };
    let mut stopped = Vec::new();
    run_scenario(&spec, "t", &stop, &mut stopped).unwrap();
    (spec, straight, stopped)
}

#[test]
fn a_torn_last_line_is_not_part_of_the_stream() {
    // A kill while a record is half written leaves a line without its
    // newline. The resume reads the stream without it and writes that
    // record again, whole.
    let (spec, straight, stopped) = straight_and_stopped(0, 4);
    let rest = &straight[stopped.len()..];
    let next = rest.iter().position(|&b| b == b'\n').unwrap() + 1;
    let torn = [&stopped[..], &rest[..next / 2]].concat();
    let mut out = Vec::new();
    run_scenario(&spec, "t", &resuming(&torn), &mut out).unwrap();
    assert_eq!(out, rest, "the resume did not rewrite the torn record and the rest");
}

#[test]
fn a_suite_killed_between_scenarios_resumes_in_order() {
    // Killed after the first scenario's summary: the resume recomputes it,
    // checks its records, then appends the other two scenarios, so the file
    // ends byte for byte as an uninterrupted run's.
    let suite = builtin_suite(Scale::Smoke, 42);
    let mut straight = Vec::new();
    run_suite(&suite, &RunOptions::default(), &mut straight).unwrap();
    let straight = text(&straight);
    let first_end = straight.find("scenario_summary").unwrap();
    let first_end = first_end + straight[first_end..].find('\n').unwrap() + 1;
    let mut out = Vec::new();
    let outcomes =
        run_suite(&suite, &resuming(&straight.as_bytes()[..first_end]), &mut out).unwrap();
    assert!(outcomes.iter().all(|o| o.completed));
    assert_eq!(format!("{}{}", &straight[..first_end], text(&out)), straight);
}

#[test]
fn stream_lines_no_recomputed_record_accounts_for_are_refused() {
    // Each refusal names the line and writes nothing.
    let (spec, straight, stopped) = straight_and_stopped(0, 4);
    let straight = text(&straight);
    let lines: Vec<&str> = straight.lines().collect();
    let refuse = |stream: String, opts: RunOptions, want: &str| {
        let mut out = Vec::new();
        let opts = RunOptions { resume: Some(stream), ..opts };
        let err = run_scenario(&spec, "t", &opts, &mut out).unwrap_err();
        assert!(err.starts_with(want), "expected `{want}`, got `{err}`");
        assert!(out.is_empty(), "a refused resume wrote {} bytes", out.len());
    };
    let stream = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    // A record written twice, as a kill inside a checkpoint save once left.
    let doubled = [&lines[..3], &lines[2..]].concat();
    refuse(stream(&doubled), RunOptions::default(), "resume: line 4: `round` is ");
    // Records past the summary.
    let extra = [&lines[..], &lines[..1]].concat();
    let last = lines.len() + 1;
    refuse(stream(&extra), RunOptions::default(), &format!("resume: line {last}: no recomputed"));
    // Records past where this resume stops.
    let early = RunOptions { stop_after_rounds: Some(2), ..RunOptions::default() };
    let mut two = Vec::new();
    run_scenario(&spec, "t", &early, &mut two).unwrap();
    let past = text(&two).lines().count() + 1;
    refuse(text(&stopped), early, &format!("resume: line {past}: no recomputed record"));
    // A scenario this run does not run, and a line that is not a record.
    let other = lines[0].replace("baseline-static", "churn-20pct");
    refuse(stream(&[&other]), RunOptions::default(), "resume: line 1: scenario `churn-20pct`");
    refuse(stream(&[lines[0], "{}"]), RunOptions::default(), "resume: line 2: missing `type`");
}

#[test]
fn a_sybil_coalition_covering_the_population_is_refused() {
    // Smoke scale has 48 users: a coalition of all of them (or more) leaves
    // no honest node to attack, so the run is refused by name instead of
    // silently clamping the coalition to the population.
    let mut spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[2].clone();
    assert_eq!(spec.name, "colluding-sybils");
    for sybils in [48, 1000] {
        spec.dynamics.sybils = sybils;
        let mut buf = Vec::new();
        let err = run_scenario(&spec, "t", &RunOptions::default(), &mut buf).unwrap_err();
        assert_eq!(
            err,
            format!(
                "colluding-sybils: dynamics.sybils {sybils} must be smaller than the population \
                 (48 users)"
            )
        );
    }
}

#[test]
fn a_community_size_outside_the_population_is_refused() {
    // Smoke scale has 48 users, so K must lie in [1, 46]: the ground truth
    // ranks each target's K nearest users among the other 47, minus one
    // adversary. A K outside that range is refused by name instead of being
    // clamped into it.
    let mut spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[0].clone();
    assert_eq!(spec.name, "baseline-static");
    for k in [0, 47, 100_000] {
        spec.k_override = Some(k);
        let err = run_scenario(&spec, "t", &RunOptions::default(), &mut Vec::new()).unwrap_err();
        assert_eq!(
            err,
            format!("baseline-static: k {k} must lie in [1, 46] for a population of 48 users")
        );
    }
    spec.k_override = Some(46);
    let outcome = run_scenario(&spec, "t", &RunOptions::default(), &mut Vec::new()).unwrap();
    assert!(outcome.completed);
}

#[test]
fn a_non_finite_training_loss_stops_the_run() {
    // τ = 3e38 drives the Share-less training loss to NaN. Written out, the
    // loss would read `"mean_loss": null`, a record `validate` refuses; the
    // run stops with an error naming the scenario, the round and the loss,
    // before writing any such record.
    let mut spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[0].clone();
    spec.name = "huge-tau".to_string();
    spec.defense = DefenseKind::ShareLess { tau: 3e38 };
    let mut buf = Vec::new();
    let err = run_scenario(&spec, "t", &RunOptions::default(), &mut buf).unwrap_err();
    assert!(err.starts_with("huge-tau: round "), "{err}");
    assert!(err.ends_with(": training loss NaN is not finite"), "{err}");
    let written = String::from_utf8(buf).unwrap();
    assert!(!written.contains("null"), "{written}");
}

/// The smoke FL cells under full sharing (`baseline-static`) and
/// Share-less (`shareless-x-churn`).
fn full_and_share_less_fl_cells() -> [cia_scenarios::ScenarioSpec; 2] {
    let grid = cia_scenarios::defense_dynamics_grid_suite(Scale::Smoke, 42).expanded().unwrap();
    let share_less = grid.into_iter().find(|s| s.name == "shareless-x-churn").unwrap();
    [builtin_suite(Scale::Smoke, 42).expanded().unwrap()[0].clone(), share_less]
}

#[test]
fn fl_clients_hold_no_aggregate_between_rounds() {
    // FedAvg lends each client its aggregate and Share-less reference for
    // the round it trains in and takes both back once its update is folded:
    // after every round, under full sharing and Share-less, no client holds
    // an aggregate.
    use cia_core::{CiaConfig, FlCia, ItemSetEvaluator};
    use cia_federated::{FedAvg, FedAvgConfig};
    use cia_models::{GmfSpec, Participant};
    use cia_scenarios::{build_setup, DefenseKind, FlDynamics, ParticipantDynamics};
    for spec in full_and_share_less_fl_cells() {
        let setup = build_setup(spec.preset, spec.scale, spec.k_override, spec.seed);
        let n = setup.data.num_users();
        let model = GmfSpec::new(setup.data.num_items(), setup.params.dim);
        let clients =
            model.build_clients(setup.split.train_sets(), spec.defense.policy(), spec.seed);
        let rounds = setup.params.rounds(spec.protocol);
        let cia = CiaConfig {
            k: setup.k,
            beta: spec.beta,
            eval_every: setup.params.eval_every(spec.protocol),
            seed: spec.seed ^ 0xC1A,
        };
        let share_less = matches!(spec.defense, DefenseKind::ShareLess { .. });
        let targets = setup.split.train_sets().to_vec();
        let evaluator = ItemSetEvaluator::new(model, targets, share_less);
        let mut attack = FlCia::new(cia, evaluator, n, setup.truth_table(), setup.owner_table());
        let mut dynamics = ParticipantDynamics::new(&spec.dynamics, n, spec.seed ^ 0xD11A);
        let cfg = FedAvgConfig { rounds, local_epochs: setup.params.local_epochs, seed: spec.seed };
        let mut sim = FedAvg::new(clients, cfg);
        for round in 0..rounds {
            let stats = sim.step(&mut FlDynamics { inner: &mut attack, dynamics: &mut dynamics });
            assert!(stats.participants > 0, "{}: round {round} trained nobody", spec.name);
            for (u, c) in sim.clients().iter().enumerate() {
                let ctx = format!("{}: client {u} after round {round}", spec.name);
                assert!(c.agg().is_empty(), "{ctx} holds an aggregate");
            }
        }
    }
}

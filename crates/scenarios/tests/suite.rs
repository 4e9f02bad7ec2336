//! Suite-level guarantees: byte-identical determinism of the JSONL stream,
//! and checkpoint/resume landing on exactly the metrics of an uninterrupted
//! run — for both protocol families.

use cia_data::presets::Scale;
use cia_scenarios::runner::{run_scenario, run_suite, validate_jsonl, RunOptions};
use cia_scenarios::{builtin_suite, DefenseKind, ScenarioOutcome};
use std::path::PathBuf;

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

/// Temp directory that cleans up after itself.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("cia-scenarios-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn resume_matches_uninterrupted(
    suite: cia_scenarios::SuiteSpec,
    scenario_index: usize,
    stop_after: u64,
    every: u64,
    tag: &str,
) {
    let spec = suite.expanded().unwrap()[scenario_index].clone();
    resume_spec_matches_uninterrupted(&spec, stop_after, every, tag);
}

fn resume_spec_matches_uninterrupted(
    spec: &cia_scenarios::ScenarioSpec,
    stop_after: u64,
    every: u64,
    tag: &str,
) {
    let spec = spec.clone();

    // Uninterrupted reference run.
    let mut straight_out = Vec::new();
    let straight = run_scenario(&spec, "t", &RunOptions::default(), &mut straight_out).unwrap();

    // Killed run: checkpoints every `every` rounds, stops mid-flight…
    let dir = TempDir::new(tag);
    let ckpt = RunOptions {
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_every: every,
        ..RunOptions::default()
    };
    let mut partial_out = Vec::new();
    let killed = run_scenario(
        &spec,
        "t",
        &RunOptions { stop_after_rounds: Some(stop_after), ..ckpt.clone() },
        &mut partial_out,
    )
    .unwrap();
    assert!(!killed.completed);
    assert_eq!(killed.rounds_done, stop_after);

    // …and resumes to completion.
    let mut resumed_out = Vec::new();
    let resumed =
        run_scenario(&spec, "t", &RunOptions { resume: true, ..ckpt }, &mut resumed_out).unwrap();
    assert!(resumed.completed);

    // The resumed run must land on exactly the uninterrupted metrics.
    assert_eq!(resumed.attack.max_aac, straight.attack.max_aac, "max AAC diverged");
    assert_eq!(resumed.attack.best10_aac, straight.attack.best10_aac);
    assert_eq!(resumed.attack.max_round, straight.attack.max_round);
    assert_eq!(resumed.attack.history, straight.attack.history, "history diverged");
    assert_eq!(resumed.utility, straight.utility, "utility diverged");

    // The concatenated record stream equals the uninterrupted one.
    let mut stitched = partial_out;
    stitched.extend_from_slice(&resumed_out);
    assert_eq!(stitched, straight_out, "stitched JSONL diverged");

    // Completion replaced the checkpoint with a completion marker…
    let entries: Vec<String> = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        entries.iter().all(|e| e.ends_with(".done")) && entries.len() == 1,
        "expected only a completion marker, found {entries:?}"
    );

    // …so resuming the finished suite again skips it without re-emitting.
    let mut extra_out = Vec::new();
    let skipped = run_scenario(
        &spec,
        "t",
        &RunOptions { checkpoint_dir: Some(dir.0.clone()), resume: true, ..RunOptions::default() },
        &mut extra_out,
    )
    .unwrap();
    assert!(skipped.skipped, "completed scenario was re-run on resume");
    assert!(extra_out.is_empty(), "skip emitted duplicate records");
}

#[test]
fn fl_run_with_churn_resumes_exactly() {
    // churn-20pct: FL with churn + stragglers, killed at round 4 of 8.
    resume_matches_uninterrupted(builtin_suite(Scale::Smoke, 42), 1, 4, 2, "fl-churn");
}

#[test]
fn gossip_sybil_run_resumes_exactly() {
    // colluding-sybils: Rand-Gossip coalition, killed at round 20 of 40.
    resume_matches_uninterrupted(builtin_suite(Scale::Smoke, 42), 2, 20, 10, "gl-sybil");
}

#[test]
fn dp_gossip_with_held_inboxes_resumes_exactly() {
    // DP gossip under churn, clip-only and at the paper's ε = 10: senders
    // carry `prev_sent` references and offline receivers hold undelivered
    // inbox models, so the mid-run checkpoint carries both (the inboxes are
    // checked here). The kill and resume must land on exactly the
    // uninterrupted metrics and stream.
    use cia_data::presets::Preset;
    use cia_scenarios::checkpoint::{Checkpoint, ProtocolState};
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
        let dir = TempDir::new(&format!("{tag}-held"));
        let killed = RunOptions {
            checkpoint_dir: Some(dir.0.clone()),
            checkpoint_every: 10,
            stop_after_rounds: Some(20),
            ..RunOptions::default()
        };
        run_scenario(&spec, "t", &killed, &mut Vec::new()).unwrap();
        let path = Checkpoint::path_for(&dir.0, &spec.name);
        let ProtocolState::Gl(state) =
            Checkpoint::load(&path, spec.fingerprint()).unwrap().protocol
        else {
            panic!("{tag}: expected gossip state")
        };
        assert!(state.inboxes.iter().any(|inbox| !inbox.is_empty()), "{tag}: no inbox model held");
        resume_spec_matches_uninterrupted(&spec, 20, 10, tag);
    }
}

#[test]
fn pers_gossip_all_placements_run_with_churn_resumes_exactly() {
    // pers-churn: Pers-Gossip under churn with no coalition, so the
    // all-placements engine runs and the checkpoint carries its score-EMA
    // state. Killed at round 20 of 40.
    resume_matches_uninterrupted(
        cia_scenarios::pers_gossip_churn_suite(Scale::Smoke, 42),
        1,
        20,
        10,
        "pers-churn",
    );
}

#[test]
fn share_less_prme_fl_run_resumes_exactly() {
    // PRME clients on Foursquare under Share-less: the checkpoint carries
    // PRME client state and the adversary's fictive embeddings. Killed at
    // round 4 of 8.
    use cia_data::presets::Preset;
    use cia_scenarios::{DefenseKind, ModelKind, ProtocolKind, ScenarioSpec};
    let mut spec =
        ScenarioSpec::new(Preset::Foursquare, ModelKind::Prme, ProtocolKind::Fl, Scale::Smoke);
    spec.name = "fl-prme-share-less".to_string();
    spec.defense = DefenseKind::ShareLess { tau: 0.3 };
    resume_spec_matches_uninterrupted(&spec, 4, 2, "fl-prme-share-less");
}

#[test]
fn sweep_expanded_scenario_resumes_exactly() {
    // participation-0.5, a scenario that only exists after sweep expansion:
    // killed at round 4 of 8, resumed, must land on the uninterrupted
    // metrics.
    resume_matches_uninterrupted(
        cia_scenarios::participation_sweep_suite(Scale::Smoke, 42),
        2,
        4,
        2,
        "sweep-participation",
    );
}

#[test]
fn adaptive_run_killed_at_the_relocation_boundary_resumes_exactly() {
    // placement-degree, killed at round 10 — exactly the end of the warm-up
    // window, before the relocation fires. The resumed process must replay
    // the identical relocation from the checkpointed traffic counters and
    // warm-up delivery log.
    resume_matches_uninterrupted(
        cia_scenarios::adaptive_sybils_suite(Scale::Smoke, 42),
        1,
        10,
        5,
        "adaptive-boundary",
    );
}

#[test]
fn adaptive_run_killed_after_the_relocation_resumes_exactly() {
    // placement-greedy, killed at round 20 — the relocation happened in the
    // first segment; the resume must re-apply the relocated membership to
    // the attack engine and the dynamics sybil table.
    resume_matches_uninterrupted(
        cia_scenarios::adaptive_sybils_suite(Scale::Smoke, 42),
        2,
        20,
        10,
        "adaptive-post",
    );
}

#[test]
fn gossip_off_cadence_kill_resumes_with_future_refreshes_scheduled() {
    // Kill at an off-cadence round (checkpoint_every does not divide it) to
    // force the stop-time checkpoint path. Gossip view refreshes straddle
    // every round boundary, so the checkpoint must carry each node's next
    // refresh round — and the resume must land on the uninterrupted stream.
    use cia_scenarios::checkpoint::{Checkpoint, ProtocolState};
    let suite = builtin_suite(Scale::Smoke, 42);
    let spec = suite.expanded().unwrap()[2].clone(); // colluding-sybils, 40 rounds

    let mut straight_out = Vec::new();
    run_scenario(&spec, "t", &RunOptions::default(), &mut straight_out).unwrap();

    let dir = TempDir::new("gl-off-cadence");
    let ckpt = RunOptions {
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_every: 4,
        ..RunOptions::default()
    };
    let mut partial_out = Vec::new();
    run_scenario(
        &spec,
        "t",
        &RunOptions { stop_after_rounds: Some(7), ..ckpt.clone() },
        &mut partial_out,
    )
    .unwrap();

    let ckpt_file = std::fs::read_dir(&dir.0)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .expect("killed run left a checkpoint");
    let saved = Checkpoint::load(&ckpt_file, spec.fingerprint()).unwrap();
    assert_eq!(saved.round, 7, "the stop-time checkpoint, not the round-4 one");
    let ProtocolState::Gl(state) = &saved.protocol else { panic!("expected gossip state") };
    assert!(
        state.refresh_at.iter().any(|&r| r >= saved.round),
        "checkpoint holds no refresh scheduled past the cut: {:?}",
        state.refresh_at
    );

    let mut resumed_out = Vec::new();
    let resumed =
        run_scenario(&spec, "t", &RunOptions { resume: true, ..ckpt }, &mut resumed_out).unwrap();
    assert!(resumed.completed);
    let mut stitched = partial_out;
    stitched.extend_from_slice(&resumed_out);
    assert_eq!(stitched, straight_out, "off-cadence resume diverged");
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
    resume_matches_uninterrupted(builtin_suite(Scale::Smoke, 42), 1, 4, 2, "parallel-resume");
    std::env::remove_var("CIA_THREADS");
}

#[test]
fn resume_refuses_a_different_spec() {
    let suite = builtin_suite(Scale::Smoke, 42);
    let spec = suite.expanded().unwrap()[0].clone();
    let dir = TempDir::new("fingerprint");
    let opts = RunOptions {
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_every: 2,
        stop_after_rounds: Some(4),
        ..RunOptions::default()
    };
    run_scenario(&spec, "t", &opts, &mut Vec::new()).unwrap();

    let mut tampered = spec.clone();
    tampered.seed = 7;
    let err = run_scenario(
        &tampered,
        "t",
        &RunOptions { checkpoint_dir: Some(dir.0.clone()), resume: true, ..RunOptions::default() },
        &mut Vec::new(),
    )
    .unwrap_err();
    assert!(err.contains("fingerprint"), "unexpected error: {err}");
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

#[test]
fn hostile_checkpoints_fail_with_a_named_mismatch() {
    // A checkpoint carrying the spec's own fingerprint but another protocol
    // family, another attack family, another client count, a truncated
    // client state or a table that does not fit the rebuilt run must be
    // refused with the matching error, never a panic — for both protocols.
    use cia_core::{CiaAttackState, MomentumTable, PlacementsState};
    use cia_scenarios::checkpoint::{AttackState, Checkpoint, ProtocolState};
    let specs = builtin_suite(Scale::Smoke, 42).expanded().unwrap();
    let (fl, gl) = (&specs[1], &specs[2]); // churn-20pct (FL), colluding-sybils (gossip)
    let dir = TempDir::new("hostile");
    let opts = RunOptions {
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_every: 2,
        ..RunOptions::default()
    };
    let genuine = |spec: &cia_scenarios::ScenarioSpec| {
        let killed = RunOptions { stop_after_rounds: Some(2), ..opts.clone() };
        run_scenario(spec, "t", &killed, &mut Vec::new()).unwrap();
        Checkpoint::load(&Checkpoint::path_for(&dir.0, &spec.name), spec.fingerprint()).unwrap()
    };
    let (fl_ck, gl_ck) = (genuine(fl), genuine(gl));
    let placements = || {
        AttackState::Placements(PlacementsState {
            s_ema: Vec::new(),
            history: Vec::new(),
            prepared: false,
        })
    };
    let truncated = |ck: &Checkpoint, node: usize| {
        let mut clients = ck.clients.clone();
        clients[node].truncate(5);
        Checkpoint { clients, ..ck.clone() }
    };
    let attack = |ck: &Checkpoint, edit: &dyn Fn(&mut CiaAttackState)| {
        let AttackState::Cia(mut state) = ck.attack.clone() else { panic!("expected CIA state") };
        edit(&mut state);
        Checkpoint { attack: AttackState::Cia(state), ..ck.clone() }
    };
    let gossip = |edit: &dyn Fn(&mut cia_gossip::GossipSimState)| {
        let ProtocolState::Gl(mut state) = gl_ck.protocol.clone() else {
            panic!("expected gossip state")
        };
        edit(&mut state);
        Checkpoint { protocol: ProtocolState::Gl(state), ..gl_ck.clone() }
    };
    let dynamics = |ck: &Checkpoint, edit: &dyn Fn(&mut cia_scenarios::dynamics::DynamicsState)| {
        let mut ck = ck.clone();
        edit(&mut ck.dynamics);
        ck
    };
    // The momentum table with every seen row cut to `keep_emb` and `agg`
    // floats: one layout throughout, but not the evaluator's.
    let relaid = |ck: &Checkpoint, keep_emb: bool, agg: usize| {
        attack(ck, &|state| {
            let mut table = MomentumTable::new(state.momentum.users());
            for u in state.momentum.seen() {
                let (e, a) = state.momentum.get(u).unwrap();
                let updates = state.momentum.updates(u);
                table.restore_row(u, e.filter(|_| keep_emb), &a[..agg], updates).unwrap();
            }
            state.momentum = table;
        })
    };
    let first_seen = |ck: &Checkpoint| {
        let AttackState::Cia(s) = &ck.attack else { panic!("expected CIA state") };
        format!("momentum of sender {}", s.momentum.seen().next().unwrap())
    };
    let agg_len = |ck: &Checkpoint| {
        let AttackState::Cia(s) = &ck.attack else { panic!("expected CIA state") };
        s.momentum.layout().unwrap().1
    };
    let resized = |ck: &Checkpoint, grow: bool| {
        attack(ck, &|s| {
            let users = s.momentum.users();
            s.momentum = MomentumTable::new(if grow { users + 1 } else { 4 });
        })
    };
    let (fl_seen, gl_seen) = (first_seen(&fl_ck), first_seen(&gl_ck));
    let mut long_emb = fl_ck.adversary_embs.clone();
    long_emb[0] = Some(vec![0.5; 3]);
    let n = gl_ck.clients.len();
    let placement = |edit: &dyn Fn(&mut cia_scenarios::PlacementState)| {
        let mut ck = gl_ck.clone();
        edit(&mut ck.placement);
        ck
    };
    let out_of_range = move |st: &mut cia_gossip::GossipSimState| {
        st.views[3][0] = u32::try_from(n).unwrap();
    };
    let hostile = [
        (fl, Checkpoint { protocol: gl_ck.protocol.clone(), ..fl_ck.clone() }, "protocol family"),
        (fl, Checkpoint { attack: placements(), ..fl_ck.clone() }, "attack family"),
        (fl, Checkpoint { clients: fl_ck.clients[1..].to_vec(), ..fl_ck.clone() }, "population"),
        (gl, Checkpoint { protocol: fl_ck.protocol.clone(), ..gl_ck.clone() }, "protocol family"),
        (gl, Checkpoint { attack: placements(), ..gl_ck.clone() }, "attack family"),
        (gl, Checkpoint { clients: gl_ck.clients[1..].to_vec(), ..gl_ck.clone() }, "population"),
        (fl, truncated(&fl_ck, 3), "state of client 3"),
        (gl, truncated(&gl_ck, 6), "state of client 6"),
        (
            fl,
            Checkpoint { protocol: ProtocolState::Fl { global: vec![0.5; 3] }, ..fl_ck.clone() },
            "global model",
        ),
        (fl, dynamics(&fl_ck, &|d| d.online.truncate(4)), "online bitmap"),
        (gl, dynamics(&gl_ck, &|d| d.straggler_until.push(0)), "straggler timer table"),
        (
            fl,
            Checkpoint { adversary_embs: vec![None], ..fl_ck.clone() },
            "adversary embedding table",
        ),
        (
            gl,
            Checkpoint { adversary_embs: Vec::new(), ..gl_ck.clone() },
            "adversary embedding table",
        ),
        (fl, resized(&fl_ck, false), "momentum table"),
        (gl, resized(&gl_ck, true), "momentum table"),
        (
            fl,
            Checkpoint { adversary_embs: long_emb, ..fl_ck.clone() },
            "adversary embedding of target 0",
        ),
        (fl, relaid(&fl_ck, true, 5), &fl_seen),
        (gl, relaid(&gl_ck, true, 5), &gl_seen),
        (fl, relaid(&fl_ck, false, agg_len(&fl_ck)), &fl_seen),
        (fl, attack(&fl_ck, &|s| s.last_global = Some(vec![0.5; 3])), "attack reference model"),
        (gl, gossip(&out_of_range), "view of node 3"),
        (gl, gossip(&|st| st.views[4].truncate(1)), "view of node 4"),
        (gl, placement(&|p| p.members.truncate(1)), "placement members"),
        (gl, placement(&|p| p.members.reverse()), "placement members"),
        (gl, placement(&|p| p.seen = vec![Vec::new(); n]), "placement delivery log"),
    ];
    for (spec, ck, part) in hostile {
        ck.save(&Checkpoint::path_for(&dir.0, &spec.name)).unwrap();
        let resume = RunOptions { resume: true, ..opts.clone() };
        let err = run_scenario(spec, "t", &resume, &mut Vec::new()).unwrap_err();
        assert!(
            err.contains(&format!("checkpoint {part} mismatch")),
            "{}: expected a {part} mismatch, got: {err}",
            spec.name
        );
    }
}

#[test]
fn momentum_rows_that_disagree_are_refused_by_sender() {
    // One momentum table holds one layout, so a checkpoint whose seen rows
    // disagree cannot be built in memory: splice the bytes of two valid
    // tables instead, the first sender's row from one and the second's from
    // the other, and re-seal the trailer. Resuming must refuse the file and
    // name the second sender, for a row that drops the embedding and for a
    // row with a short `agg`.
    use cia_core::MomentumTable;
    use cia_scenarios::checkpoint::{AttackState, Checkpoint};
    let specs = builtin_suite(Scale::Smoke, 42).expanded().unwrap();
    let dir = TempDir::new("disagree");
    let opts = RunOptions {
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_every: 2,
        ..RunOptions::default()
    };
    for spec in [&specs[1], &specs[2]] {
        let path = Checkpoint::path_for(&dir.0, &spec.name);
        let killed = RunOptions { stop_after_rounds: Some(2), ..opts.clone() };
        run_scenario(spec, "t", &killed, &mut Vec::new()).unwrap();
        let genuine = Checkpoint::load(&path, spec.fingerprint()).unwrap();
        let AttackState::Cia(state) = &genuine.attack else { panic!("expected CIA state") };
        let table = &state.momentum;
        let (u0, u1) = {
            let mut seen = table.seen();
            (seen.next().unwrap(), seen.next().unwrap())
        };
        // The genuine checkpoint's bytes with `momentum` as its table.
        let encoded = |momentum: MomentumTable| {
            let mut ck = genuine.clone();
            let AttackState::Cia(s) = &mut ck.attack else { unreachable!() };
            s.momentum = momentum;
            ck.encode()
        };
        // ... with a table holding only sender `u`'s row.
        let one_row = |u: usize, emb: Option<&[f32]>, agg: &[f32]| {
            let mut one = MomentumTable::new(table.users());
            one.restore_row(u, emb, agg, table.updates(u)).unwrap();
            encoded(one)
        };
        let (e0, a0) = table.get(u0).unwrap();
        let (e1, a1) = table.get(u1).unwrap();
        let (first, none) = (one_row(u0, e0, a0), encoded(MomentumTable::new(table.users())));
        // Row `u0`'s tag byte, and the rows' first byte.
        let at = first.iter().zip(&none).position(|(a, b)| a != b).unwrap();
        let rows = at - u0;
        let row_end = at + first.len() - none.len() + 1;
        for (emb, agg) in [(None, a1), (e1, &a1[..5])] {
            let second = one_row(u1, emb, agg);
            let mut bytes = first[..row_end + u1 - u0 - 1].to_vec();
            bytes.extend_from_slice(&second[rows + u1..second.len() - 8]);
            let sum = bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            });
            bytes.extend_from_slice(&sum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let resume = RunOptions { resume: true, ..opts.clone() };
            let err = run_scenario(spec, "t", &resume, &mut Vec::new()).unwrap_err();
            assert!(err.ends_with(&format!("momentum of sender {u1}")), "{}: {err}", spec.name);
        }
    }
}

#[test]
fn hostile_gossip_mailboxes_fail_with_a_named_node() {
    // A gossip checkpoint whose held inbox model or DP reference does not
    // fit the model layout must be refused at resume, naming the node —
    // never panic mid-run in the merge, never be silently truncated by the
    // DP update.
    use cia_data::UserId;
    use cia_models::SharedModel;
    use cia_scenarios::checkpoint::{Checkpoint, ProtocolState};
    let gl = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[2].clone(); // colluding-sybils
    let dir = TempDir::new("hostile-mailbox");
    let opts = RunOptions {
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_every: 2,
        ..RunOptions::default()
    };
    let killed = RunOptions { stop_after_rounds: Some(2), ..opts.clone() };
    run_scenario(&gl, "t", &killed, &mut Vec::new()).unwrap();
    let path = Checkpoint::path_for(&dir.0, &gl.name);
    let genuine = Checkpoint::load(&path, gl.fingerprint()).unwrap();
    let short = SharedModel { owner: UserId::new(1), round: 1, owner_emb: None, agg: vec![0.5; 3] };
    let corrupt = |edit: &dyn Fn(&mut cia_gossip::GossipSimState)| {
        let ProtocolState::Gl(mut state) = genuine.protocol.clone() else {
            panic!("expected gossip state")
        };
        edit(&mut state);
        Checkpoint { protocol: ProtocolState::Gl(state), ..genuine.clone() }
    };
    let hostile = [
        (corrupt(&|st| st.inboxes[5].push(short.clone())), "inbox of node 5"),
        (corrupt(&|st| st.prev_sent[7] = Some(vec![0.0; 3])), "DP reference of node 7"),
    ];
    for (ck, part) in hostile {
        ck.save(&path).unwrap();
        let resume = RunOptions { resume: true, ..opts.clone() };
        let err = run_scenario(&gl, "t", &resume, &mut Vec::new()).unwrap_err();
        assert_eq!(err, format!("{}: checkpoint {part} mismatch", gl.name));
    }
}

#[test]
fn unwritable_completion_marker_fails_the_run_and_keeps_the_checkpoint() {
    // The `.done` marker is written before the checkpoint is removed, and a
    // failed write is an error: otherwise a finished scenario would leave
    // neither file and the next resume would re-run it, duplicating records.
    use cia_scenarios::checkpoint::Checkpoint;
    let spec = builtin_suite(Scale::Smoke, 42).expanded().unwrap()[0].clone();
    let dir = TempDir::new("marker-fail");
    let ckpt = Checkpoint::path_for(&dir.0, &spec.name);
    let marker = ckpt.with_extension("done");
    // A directory at the marker path makes the marker's final rename fail.
    std::fs::create_dir_all(&marker).unwrap();
    let opts = RunOptions {
        checkpoint_dir: Some(dir.0.clone()),
        checkpoint_every: 2,
        ..RunOptions::default()
    };
    let err = run_scenario(&spec, "t", &opts, &mut Vec::new()).unwrap_err();
    assert!(err.contains(&marker.display().to_string()), "error does not name the marker: {err}");
    assert!(ckpt.exists(), "the checkpoint is gone although no marker was written");
}

/// The smoke FL cells under full sharing (`baseline-static`) and
/// Share-less (`shareless-x-churn`).
fn full_and_share_less_fl_cells() -> [cia_scenarios::ScenarioSpec; 2] {
    let grid = cia_scenarios::defense_dynamics_grid_suite(Scale::Smoke, 42).expanded().unwrap();
    let share_less = grid.into_iter().find(|s| s.name == "shareless-x-churn").unwrap();
    [builtin_suite(Scale::Smoke, 42).expanded().unwrap()[0].clone(), share_less]
}

/// Runs the FL scenario `spec` one round at a time: each segment stops
/// after one more round and checkpoints, `edit` sees and may rewrite every
/// client's saved state, and the next segment resumes from it — restoring
/// the edited state through `clients_mut()` and
/// `Participant::restore_state`. Returns the stitched transcript.
fn stitched_with_client_edits(
    spec: &cia_scenarios::ScenarioSpec,
    tag: &str,
    edit: &dyn Fn(&mut Vec<f32>),
) -> Vec<u8> {
    use cia_scenarios::checkpoint::Checkpoint;
    let rounds = cia_scenarios::ScaleParams::of(spec.scale).rounds(spec.protocol);
    let dir = TempDir::new(tag);
    let path = Checkpoint::path_for(&dir.0, &spec.name);
    let mut stitched = Vec::new();
    for done in 0..rounds {
        let opts = RunOptions {
            checkpoint_dir: Some(dir.0.clone()),
            resume: done > 0,
            stop_after_rounds: Some(done + 1).filter(|&stop| stop < rounds),
            ..RunOptions::default()
        };
        let run = run_scenario(spec, "t", &opts, &mut stitched).unwrap();
        if run.completed {
            break;
        }
        let mut ck = Checkpoint::load(&path, spec.fingerprint()).unwrap();
        ck.clients.iter_mut().for_each(edit);
        ck.save(&path).unwrap();
    }
    stitched
}

#[test]
fn fl_clients_hold_no_aggregate_between_rounds() {
    // FedAvg lends each client its aggregate and Share-less reference for
    // the round it trains in and takes both back once its update is folded:
    // after every round, under full sharing and Share-less, no client holds
    // an aggregate, and its checkpoint state is `[user_emb | flag 0]`.
    use cia_core::{CiaConfig, FlCia, ItemSetEvaluator};
    use cia_federated::{FedAvg, FedAvgConfig};
    use cia_models::Participant;
    use cia_scenarios::runner::gmf_scorer;
    use cia_scenarios::{build_setup, DefenseKind, FlDynamics, ParticipantDynamics};
    for spec in full_and_share_less_fl_cells() {
        let setup = build_setup(spec.preset, spec.scale, spec.k_override, spec.seed);
        let (n, dim) = (setup.data.num_users(), setup.params.dim);
        let model = gmf_scorer(setup.data.num_items(), dim);
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
                assert_eq!(c.state_vec().len(), dim + 1, "{ctx}: state is not [user_emb | flag]");
            }
        }

        // The runner's checkpoints carry the same layout after every round,
        // and the user embedding in it is live state: editing it must show
        // in the transcript, while the unedited stitched run equals the
        // straight one.
        let mut straight = Vec::new();
        run_scenario(&spec, "t", &RunOptions::default(), &mut straight).unwrap();
        let checked = |state: &mut Vec<f32>| {
            assert_eq!(
                state.len(),
                dim + 1,
                "{}: a saved state is not [user_emb | flag]",
                spec.name
            );
            assert_eq!(state[dim], 0.0, "{}: a saved state has a reference", spec.name);
        };
        let resumed = stitched_with_client_edits(&spec, &format!("lent-{}", spec.name), &checked);
        assert!(resumed == straight, "{}: the stitched run diverged", spec.name);
        let live = stitched_with_client_edits(&spec, &format!("live-{}", spec.name), &|state| {
            state[..dim].iter_mut().for_each(|v| *v += 1.0);
        });
        assert!(live != straight, "{}: the edits never reached the clients", spec.name);
    }
}

#[test]
fn fl_checkpoint_in_the_owned_client_layout_is_refused() {
    // FL client states used to carry the aggregate and the Share-less
    // reference: `[user_emb | agg | flag | ref]`. Such a checkpoint, under
    // the spec's own fingerprint, must be refused by name — never a panic,
    // never a silent resume.
    use cia_scenarios::checkpoint::{Checkpoint, ProtocolState};
    for spec in full_and_share_less_fl_cells() {
        let dim = cia_scenarios::ScaleParams::of(spec.scale).dim;
        let dir = TempDir::new(&format!("owned-layout-{}", spec.name));
        let path = Checkpoint::path_for(&dir.0, &spec.name);
        let opts = RunOptions { checkpoint_dir: Some(dir.0.clone()), ..RunOptions::default() };
        let killed = RunOptions { stop_after_rounds: Some(2), ..opts.clone() };
        run_scenario(&spec, "t", &killed, &mut Vec::new()).unwrap();
        let mut ck = Checkpoint::load(&path, spec.fingerprint()).unwrap();
        let ProtocolState::Fl { global } = &ck.protocol else { panic!("not an FL run") };
        let (flag, reference) = if spec.defense.policy().tau() > 0.0 {
            (1.0, &global[..global.len() - dim])
        } else {
            (0.0, &[][..])
        };
        let owned: Vec<Vec<f32>> = ck
            .clients
            .iter()
            .map(|state| [&state[..dim], global, &[flag], reference].concat())
            .collect();
        ck.clients = owned;
        ck.save(&path).unwrap();
        let resume = RunOptions { resume: true, ..opts };
        let err = run_scenario(&spec, "t", &resume, &mut Vec::new()).unwrap_err();
        assert_eq!(err, format!("{}: checkpoint state of client 0 mismatch", spec.name));
    }
}

//! End-to-end serving tests: a racing query reader must never perturb a
//! training transcript, and a served ranking must equal the offline
//! evaluator's bit for bit — at paper scale (943 users x 1682 items), on
//! the snapshots a real scenario run publishes.

use cia_core::TopK;
use cia_data::presets::Scale;
use cia_models::RelevanceScorer;
use cia_scenarios::runner::{gmf_scorer, run_scenario, run_suite, RunOptions};
use cia_scenarios::spec::named_suite;
use cia_scenarios::try_build_setup;
use cia_serve::{QueryWorkload, ServeEngine, SnapshotHub};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn run_builtin_smoke(opts: &RunOptions) -> String {
    let suite = named_suite("builtin", Scale::Smoke, 42).expect("builtin suite");
    let mut buf = Vec::new();
    run_suite(&suite, opts, &mut buf).expect("suite runs");
    String::from_utf8(buf).expect("utf8 stream")
}

/// Attaching a snapshot hub *and* a reader thread hammering it with queries
/// must leave the deterministic JSONL transcript byte-identical: publication
/// reads quiesced round state only, and serving reports into its own
/// recorder.
#[test]
fn transcript_byte_identical_with_racing_server_attached() {
    let plain = run_builtin_smoke(&RunOptions::default());

    let suite = named_suite("builtin", Scale::Smoke, 42).expect("builtin suite");
    let spec = &suite.expanded().expect("expands")[0];
    let setup =
        try_build_setup(spec.preset, spec.scale, spec.k_override, spec.seed).expect("smoke setup");
    let hub = Arc::new(SnapshotHub::new());
    let engine = ServeEngine::new(
        gmf_scorer(setup.data.num_items(), setup.params.dim),
        Arc::clone(&hub),
        64,
    );
    let num_users = setup.data.num_users();
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let stop = Arc::clone(&stop);
        // cia-lint: allow(D06, this test deliberately races a reader thread against training to pin transcript byte-equality)
        std::thread::spawn(move || {
            let mut workload = QueryWorkload::new(num_users, 1.1, 7).expect("workload");
            let mut answered = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if engine.top_k(workload.next_user(), 10).is_some() {
                    answered += 1;
                }
            }
            answered
        })
    };
    let opts = RunOptions { publish: Some(Arc::clone(&hub)), ..RunOptions::default() };
    let with_server = run_builtin_smoke(&opts);
    stop.store(true, Ordering::Relaxed);
    let answered = reader.join().expect("reader thread");

    assert!(hub.epoch() > 0, "runner never published a snapshot");
    assert!(answered > 0, "reader never got a query answered while training ran");
    assert_eq!(plain, with_server, "server attachment changed the transcript");
}

/// A served top-k must equal the offline evaluator path — one full-catalog
/// `score_item_range` call plus the shared `TopK` rank order — exactly,
/// scores included, on a paper-scale (943 x 1682) snapshot published by a
/// real FL run.
#[test]
fn serve_matches_offline_topk_at_paper_scale() {
    let suite = named_suite("builtin", Scale::Paper, 42).expect("builtin suite");
    let spec = suite.expanded().expect("expands")[0].clone();
    let setup =
        try_build_setup(spec.preset, spec.scale, spec.k_override, spec.seed).expect("paper setup");
    let (num_users, num_items, dim) =
        (setup.data.num_users(), setup.data.num_items(), setup.params.dim);
    assert_eq!((num_users, num_items), (943, 1682), "paper-scale dimensions");

    let hub = Arc::new(SnapshotHub::new());
    let opts = RunOptions {
        publish: Some(Arc::clone(&hub)),
        stop_after_rounds: Some(2),
        ..RunOptions::default()
    };
    run_scenario(&spec, "serve-test", &opts, &mut std::io::sink()).expect("scenario runs");
    let snap = hub.load().expect("snapshot published");
    assert_eq!(snap.epoch(), 2);
    assert_eq!(snap.num_users(), num_users);

    let scorer = gmf_scorer(num_items, dim);
    let engine = ServeEngine::new(scorer.clone(), Arc::clone(&hub), 8);
    for user in [0u32, 1, 42, 500, 942] {
        let reply = engine.top_k(user, 20).expect("servable user");
        let mut all = vec![0.0f32; num_items as usize];
        scorer.score_item_range(snap.user_emb(user), snap.agg_of(user), 0, &mut all);
        let mut sel = TopK::new(20);
        for (id, &score) in (0u32..).zip(&all) {
            sel.push(score, id);
        }
        let offline = sel.into_ids();
        assert_eq!(reply.ids(), offline, "user {user}: served ids diverge from offline");
        for &(score, id) in reply.ranked() {
            assert_eq!(
                score.to_bits(),
                all[id as usize].to_bits(),
                "user {user}, item {id}: served score not bit-identical"
            );
        }
    }
}

/// The probe must count a child that allocates and exits faster than any
/// RSS poll could observe: with sampling effectively disabled, only the
/// `getrusage(RUSAGE_CHILDREN)` fold at reap time can report the peak.
#[test]
fn rss_probe_counts_short_lived_children() {
    let hog_mib = 150;
    let candidates: [(&str, String); 2] = [
        ("python3", format!("x=bytearray({hog_mib}*1024*1024)")),
        ("perl", format!("$x = \"a\" x ({hog_mib}*1024*1024);")),
    ];
    for (interp, body) in &candidates {
        let flag = if *interp == "python3" { "-c" } else { "-e" };
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_scenario"))
            .env("CIA_RSS_POLL_MS", "600000")
            .args(["rss-probe", "--", interp, flag, body])
            .output()
            .expect("probe binary runs");
        if !out.status.success() {
            continue; // interpreter missing here; try the next one
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let kib: u64 = stdout
            .rsplit('(')
            .next()
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable probe output: {stdout}"));
        assert!(
            kib >= (hog_mib - 30) * 1024,
            "probe reported {kib} KiB; the short-lived {hog_mib} MiB child was missed"
        );
        return;
    }
    panic!("no interpreter available to spawn a memory-hungry child");
}

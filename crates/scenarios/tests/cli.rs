//! End-to-end tests of the `scenario` binary's command line: argument
//! refusals, hostile inputs, and `--stop-after` and kills followed by
//! `--resume`.

use std::process::{Command, Output};

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario")).args(args).output().expect("scenario binary runs")
}

/// `serve` and `rss-probe` are no subcommands: they fall through to the
/// usage text, and the query-workload and checkpoint flags are unknown
/// arguments to `run`.
#[test]
fn retired_serve_surface_is_refused() {
    for retired in ["serve", "rss-probe"] {
        let out = scenario(&[retired]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`scenario {retired}` succeeded: {stderr}");
        assert!(stderr.starts_with("usage: scenario <run|"), "no usage text: {stderr}");
        assert!(!stderr.contains(retired), "usage still lists {retired}: {stderr}");
    }

    for flag in ["--queries", "--checkpoint-dir", "--checkpoint-every"] {
        let out = scenario(&["run", flag, "5"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "`run {flag}`: {stderr}");
        assert!(stderr.contains(&format!("unknown argument `{flag}`")), "{flag}: {stderr}");
    }
    let usage = String::from_utf8_lossy(&scenario(&["help"]).stderr).into_owned();
    assert!(!usage.contains("checkpoint"), "usage still lists checkpoints: {usage}");
}

/// A resume reads and extends the stream in `--out`, so without `--out FILE`
/// it is refused before anything runs; `--stop-after 0` (which once ran one
/// round and said "stopped after round 1") is refused by name.
#[test]
fn resume_without_out_and_stop_after_0_are_refused() {
    let cases = [
        (&["--resume"][..], "--resume needs --out FILE"),
        (&["--stop-after", "0"][..], "--stop-after 0 would stop before the first round"),
    ];
    for (args, want) in cases {
        let out =
            scenario(&[&["run", "--only", "baseline-static", "--no-timing"][..], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: expected `{want}`, got: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: a refused run wrote records");
        assert!(!stderr.contains("[baseline-static]"), "{args:?}: a refused run ran: {stderr}");
    }
}

/// The golden records of `scenario` in the smoke built-in suite.
fn golden_slice(scenario: &str) -> String {
    include_str!("golden/builtin-smoke.jsonl")
        .lines()
        .filter(|line| line.contains(&format!(r#""scenario":"{scenario}""#)))
        .map(|line| format!("{line}\n"))
        .collect()
}

/// Crash states built by hand, each resumed with `scenario run --resume`
/// into the same file: a missing and an empty `--out` run fresh; a stopped
/// stream plus half of its next line (a kill mid-write) loses the torn half
/// and ends as the golden; a stream of another seed exits 1 naming line 1
/// and stays byte for byte as it was.
#[test]
fn hand_built_crash_states_resume_or_are_refused() {
    let dir = std::env::temp_dir().join(format!("cia-cli-test-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let golden = golden_slice("baseline-static");
    let run = |path: &std::path::Path, seed: &str, extra: &[&str]| {
        let common = ["run", "--only", "baseline-static", "--no-timing", "--seed", seed, "--out"];
        scenario(&[&common[..], &[path.to_str().unwrap()], extra].concat())
    };
    let resumed = |path: &std::path::Path| {
        let out = run(path, "42", &["--resume"]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(path).expect("stream written")
    };

    assert_eq!(resumed(&dir.join("missing.jsonl")), golden, "a missing --out");
    let empty = dir.join("empty.jsonl");
    std::fs::write(&empty, "").expect("empty stream");
    assert_eq!(resumed(&empty), golden, "an empty --out");

    let torn = dir.join("torn.jsonl");
    let stopped = run(&torn, "42", &["--stop-after", "4"]);
    let stderr = String::from_utf8_lossy(&stopped.stderr);
    assert!(stderr.contains("stopped after round 4 (rerun with --resume)"), "{stderr}");
    let stream = std::fs::read_to_string(&torn).expect("stream written");
    let next = golden[stream.len()..].lines().next().expect("a record after round 4");
    std::fs::write(&torn, format!("{stream}{}", &next[..next.len() / 2])).expect("torn");
    assert_eq!(resumed(&torn), golden, "a torn last line");

    let other = dir.join("seed7.jsonl");
    assert!(run(&other, "7", &["--stop-after", "4"]).status.success());
    let before = std::fs::read(&other).expect("stream written");
    let out = run(&other, "42", &["--resume"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("resume: line 1: `seed` is 7 in the stream, 42 recomputed"),
        "{stderr}"
    );
    assert_eq!(std::fs::read(&other).expect("stream kept"), before, "a refused resume wrote");
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile inputs get exit 1 and an error naming what is wrong, never a
/// crash: JSON nested past the parser's cap (200,000 `[` used to overflow
/// the stack) for `validate`, `report` and `list` alike, a transcript
/// record that `validate` refuses (`report` once printed it), a Share-less
/// τ that is not positive, and a DP budget no noise multiplier reaches
/// (both used to run or panic).
#[test]
fn hostile_inputs_exit_1_with_a_named_error() {
    let dir = std::env::temp_dir().join(format!("cia-cli-test-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("input written");
        path.to_str().expect("utf8 path").to_string()
    };
    let suite = |defense: &str| {
        format!(r#"{{"suite": "s", "scenarios": [{{"name": "x", "defense": {defense}}}]}}"#)
    };
    let deep = write("deep.jsonl", &"[".repeat(200_000));
    let aac = write(
        "aac.jsonl",
        r#"{"type":"round_eval","suite":"s","scenario":"x","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":1,"round":0,"aac":1.5,"best10":0,"upper_bound":0,"upper_bound_online":0,"random_bound":0,"online":1,"participants":1,"mean_loss":0}"#,
    );
    let aac_error = format!("{aac}: line 1: `aac` = 1.5 outside [0, 1]");
    let tau = write("tau.json", &suite(r#"{"kind": "share-less", "tau": -1}"#));
    let eps = write("eps.json", &suite(r#"{"kind": "dp", "epsilon": 0.0001}"#));
    let cases = [
        (vec!["validate", &deep], "line 1: nesting deeper than 128 levels at byte 128"),
        (vec!["report", &deep], "line 1: nesting deeper than 128 levels at byte 128"),
        (vec!["list", "--suite", &deep], "nesting deeper than 128 levels at byte 128"),
        (vec!["validate", &aac], "line 1: `aac` = 1.5 outside [0, 1]"),
        (vec!["report", &aac], &aac_error),
        (vec!["list", "--suite", &tau], "x: defense tau -1 must be positive and finite"),
        (vec!["run", "--suite", &eps, "--scale", "smoke"], "x: defense epsilon: cannot reach"),
    ];
    for (args, want) in cases {
        let out = scenario(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: expected `{want}`, got: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Inputs that used to run silently exit 1 with the field named: a `tau`
/// under a DP defense and an `epsilon` under none (both once dropped
/// without a word), a community size K outside `[1, n − 2]` (once clamped
/// into it, then refused only by `run`) and a sybil coalition covering the
/// population (once refused only by `run`), both refused by `list` too,
/// a Share-less τ so large that the training loss turns NaN (once written as
/// `"mean_loss": null`), a repeated key (once read as its first value), and
/// a population drained before any model reached the adversary, under
/// gossip and FL (once summarized as AAC 0 with exit 0). K = 46, the largest
/// in range at smoke scale, still lists.
#[test]
fn once_silent_inputs_exit_1_naming_the_field() {
    let dir = std::env::temp_dir().join(format!("cia-cli-test-silent-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let write = |name: &str, scenario: &str| {
        let path = dir.join(name);
        let doc = format!(r#"{{"suite": "s", "scenarios": [{{"name": "x", {scenario}}}]}}"#);
        std::fs::write(&path, doc).expect("input written");
        path.to_str().expect("utf8 path").to_string()
    };
    let tau = write("tau.json", r#""defense": {"kind": "dp", "epsilon": 10, "tau": 0.3}"#);
    let eps = write("eps.json", r#""defense": {"kind": "none", "epsilon": 5}"#);
    let k0 = write("k0.json", r#""k": 0"#);
    let k = write("k.json", r#""k": 100000"#);
    let sybils = write("sybils.json", r#""protocol": "rand-gossip", "dynamics": {"sybils": 48}"#);
    let loss = write("loss.json", r#""defense": {"kind": "share-less", "tau": 3e38}"#);
    let dup = write("dup.json", r#""k": 40, "k": 5"#);
    let drained = r#""dynamics": {"leave_prob": 1, "join_prob": 1e-300}"#;
    let drained_gl = write("drained-gl.json", &format!(r#""protocol": "rand-gossip", {drained}"#));
    let drained_fl = write("drained-fl.json", &format!(r#""protocol": "fl", {drained}"#));
    let out = dir.join("out.jsonl");
    let out = out.to_str().expect("utf8 path");
    let run = |suite| vec!["run", "--suite", suite, "--scale", "smoke", "--out", out];
    let list = |suite| vec!["list", "--suite", suite, "--scale", "smoke"];
    let cases = [
        (vec!["list", "--suite", &tau], "scenario `x`: `defense.tau` needs a share-less defense"),
        (vec!["list", "--suite", &eps], "scenario `x`: `defense.epsilon` needs a DP defense"),
        (list(&k0), "x: k 0 must lie in [1, 46] for a population of 48 users"),
        (list(&k), "x: k 100000 must lie in [1, 46] for a population of 48 users"),
        (list(&sybils), "x: dynamics.sybils 48 must be smaller than the population (48 users)"),
        (run(&loss), "training loss NaN is not finite"),
        (list(&dup), "duplicate key `k` at byte"),
        (run(&drained_gl), "x: no model reached the adversary in 40 rounds"),
        (run(&drained_fl), "x: no model reached the adversary in 8 rounds"),
    ];
    for (args, want) in cases {
        let out = scenario(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: expected `{want}`, got: {stderr}");
    }
    let k46 = scenario(&list(&write("k46.json", r#""k": 46"#)));
    assert!(k46.status.success(), "{}", String::from_utf8_lossy(&k46.stderr));
    std::fs::remove_dir_all(&dir).ok();
}

/// `--stop-after N` stops *each* scenario of a suite at round N. Resuming a
/// stopped multi-scenario suite therefore appends every scenario's remaining
/// records after all the stopped prefixes: the same records as an
/// uninterrupted run, in another order. A single-scenario run keeps the
/// byte order.
#[test]
fn stop_after_then_resume_reproduces_the_golden_records() {
    let golden = include_str!("golden/builtin-smoke.jsonl");
    let dir = std::env::temp_dir().join(format!("cia-cli-test-stop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let stop_then_resume = |only: &[&str], tag: &str| {
        let out_path = dir.join(format!("{tag}.jsonl"));
        let common = [
            &["run", "--suite", "builtin", "--scale", "smoke", "--seed", "42", "--no-timing"],
            only,
            &["--out", out_path.to_str().unwrap()],
        ]
        .concat();
        for last in [&["--stop-after", "3"][..], &["--resume"]] {
            let out = scenario(&[&common[..], last].concat());
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        }
        std::fs::read_to_string(&out_path).expect("stream written")
    };
    let sorted = |text: &str| {
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        lines.join("\n")
    };

    let suite = stop_then_resume(&[], "suite");
    let single = stop_then_resume(&["--only", "colluding-sybils"], "single");
    std::fs::remove_dir_all(&dir).ok();

    assert_ne!(suite, golden, "the stitched suite kept the uninterrupted order");
    assert_eq!(sorted(&suite), sorted(golden), "the stitched suite lost or changed records");
    assert_eq!(single, golden_slice("colluding-sybils"), "a stitched single scenario moved");
}

//! End-to-end tests of the `scenario` binary's command line: argument
//! refusals, hostile inputs and `--stop-after` with `--resume`.

use std::process::{Command, Output};

fn scenario(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scenario")).args(args).output().expect("scenario binary runs")
}

/// `serve` and `rss-probe` are no subcommands: they fall through to the
/// usage text, and the query-workload flags are unknown arguments to `run`.
#[test]
fn retired_serve_surface_is_refused() {
    for retired in ["serve", "rss-probe"] {
        let out = scenario(&[retired]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "`scenario {retired}` succeeded: {stderr}");
        assert!(stderr.starts_with("usage: scenario <run|"), "no usage text: {stderr}");
        assert!(!stderr.contains(retired), "usage still lists {retired}: {stderr}");
    }

    let out = scenario(&["run", "--queries", "5"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`run --queries` succeeded: {stderr}");
    assert!(stderr.contains("unknown argument `--queries`"), "unexpected error: {stderr}");
}

/// Without a checkpoint directory there is nothing to resume: the run would
/// restart at round 0 and append a second transcript to `--out`. The
/// combination is refused before the stream is touched.
#[test]
fn resume_without_checkpoint_dir_is_refused() {
    let dir = std::env::temp_dir().join(format!("cia-cli-test-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out_path = dir.join("run.jsonl");
    let out_arg = out_path.to_str().expect("utf8 path");
    let common = ["run", "--only", "baseline-static", "--no-timing", "--out", out_arg];

    let first = scenario(&[&common[..], &["--stop-after", "3"]].concat());
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let before = std::fs::read(&out_path).expect("stream written");
    assert!(!before.is_empty(), "the stopped run wrote no records");

    let resumed = scenario(&[&common[..], &["--resume"]].concat());
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(!resumed.status.success(), "resume without checkpoints succeeded: {stderr}");
    assert!(
        stderr.contains("--resume") && stderr.contains("--checkpoint-dir"),
        "error does not name both flags: {stderr}"
    );
    let after = std::fs::read(&out_path).expect("stream still there");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(before, after, "the refused resume changed the stream");
}

/// Hostile inputs get exit 1 and an error naming what is wrong, never a
/// crash: JSON nested past the parser's cap (200,000 `[` used to overflow
/// the stack), a Share-less τ that is not positive, and a DP budget no noise
/// multiplier reaches (both used to run or panic).
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
    let tau = write("tau.json", &suite(r#"{"kind": "share-less", "tau": -1}"#));
    let eps = write("eps.json", &suite(r#"{"kind": "dp", "epsilon": 0.0001}"#));
    let cases = [
        (vec!["validate", &deep], "line 1: nesting deeper than 128 levels at byte 128"),
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
/// and a Share-less τ so large that the training loss turns NaN (once
/// written as `"mean_loss": null`). K = 46, the largest in range at smoke
/// scale, still lists.
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
        let ckpt = dir.join(tag);
        let common = [
            &["run", "--suite", "builtin", "--scale", "smoke", "--seed", "42", "--no-timing"],
            only,
            &["--checkpoint-dir", ckpt.to_str().unwrap(), "--out", out_path.to_str().unwrap()],
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
    let expected: String = golden
        .lines()
        .filter(|line| line.contains(r#""scenario":"colluding-sybils""#))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(single, expected, "a stitched single scenario changed its byte order");
}

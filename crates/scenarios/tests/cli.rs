//! End-to-end tests of the `scenario` binary's command line: argument
//! refusals and `--stop-after` with `--resume`.

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

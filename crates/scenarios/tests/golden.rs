//! Golden-file schema tests: every built-in suite, run at smoke scale with
//! seed 42 under `--no-timing`, must reproduce its committed transcript
//! byte for byte. Any schema drift — a renamed field, a reordered key, a
//! changed float format, a new record type — fails loudly here instead of
//! silently breaking downstream consumers of the JSONL stream.
//!
//! To regenerate after an *intentional* schema change, rerun every golden:
//! a suite file next to it (`<name>-smoke.suite.json`; only PRME has one,
//! since no built-in suite runs PRME) when there is one, the built-in suite
//! `<name>` otherwise. `scripts/ci.sh` diffs the goldens the same way.
//!
//! ```text
//! for golden in crates/scenarios/tests/golden/*-smoke.jsonl; do
//!   name=$(basename "$golden" -smoke.jsonl)
//!   suite=crates/scenarios/tests/golden/$name-smoke.suite.json
//!   [ -f "$suite" ] || suite=$name
//!   cargo run --release -q -p cia-scenarios --bin scenario -- \
//!     run --suite "$suite" --scale smoke --seed 42 --no-timing --out "$golden"
//! done
//! ```

use cia_data::presets::Scale;
use cia_scenarios::runner::{run_suite, validate_jsonl, RunOptions};
use cia_scenarios::{named_suite, SuiteSpec};

fn assert_matches_golden(suite: SuiteSpec, golden: &str, name: &str) {
    let mut buf = Vec::new();
    run_suite(&suite, &RunOptions::default(), &mut buf).unwrap();
    let actual = String::from_utf8(buf).unwrap();
    // The golden itself must be schema-valid (guards against committing a
    // stale transcript after a validator change).
    validate_jsonl(golden).unwrap_or_else(|e| panic!("{name}: committed golden invalid: {e}"));
    if actual != golden {
        // Byte-level diff output would be unreadable; report the first
        // differing line instead.
        for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                a,
                g,
                "{name}: line {} drifted from the golden transcript \
                 (regenerate if the schema change is intentional — see module docs)",
                i + 1
            );
        }
        panic!(
            "{name}: stream length drifted ({} vs {} golden lines)",
            actual.lines().count(),
            golden.lines().count()
        );
    }
}

macro_rules! golden_test {
    ($test:ident, $suite:literal) => {
        #[test]
        fn $test() {
            assert_matches_golden(
                named_suite($suite, Scale::Smoke, 42).unwrap(),
                include_str!(concat!("golden/", $suite, "-smoke.jsonl")),
                $suite,
            );
        }
    };
}

golden_test!(builtin_suite_matches_golden, "builtin");
golden_test!(participation_sweep_matches_golden, "participation-sweep");
golden_test!(defense_dynamics_grid_matches_golden, "defense-dynamics-grid");
golden_test!(pers_gossip_churn_matches_golden, "pers-gossip-churn");
golden_test!(adaptive_sybils_matches_golden, "adaptive-sybils");

/// GMF and PRME share one client implementation; this transcript pins the
/// PRME half (FL Full, Share-less and DP, Rand-Gossip Full, Pers-Gossip
/// Share-less on Foursquare).
#[test]
fn prme_smoke_suite_matches_golden() {
    let suite = SuiteSpec::parse(include_str!("golden/prme-smoke.suite.json")).unwrap();
    assert_matches_golden(suite, include_str!("golden/prme-smoke.jsonl"), "prme-smoke");
}

//! Edge-case coverage for the dynamics layer driven end to end through the
//! runner: populations that go entirely dark, 100% churn, sybil coalitions
//! outnumbering the honest nodes, and straggler delays beyond the horizon —
//! every case must complete without panicking, produce a schema-valid
//! stream, and report bounds that respect `upper_bound_online ≤
//! upper_bound` (the validator enforces the inequality on every record).

use cia_data::presets::{Preset, Scale};
use cia_scenarios::json::Json;
use cia_scenarios::runner::{run_scenario, validate_jsonl, RunOptions};
use cia_scenarios::spec::{DynamicsSpec, ModelKind, ProtocolKind, ScenarioSpec};

fn run_to_valid_stream(spec: &ScenarioSpec) -> String {
    let mut buf = Vec::new();
    let outcome = run_scenario(spec, "edge", &RunOptions::default(), &mut buf)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    assert!(outcome.completed, "{} did not complete", spec.name);
    let text = String::from_utf8(buf).unwrap();
    validate_jsonl(&text).unwrap_or_else(|e| panic!("{}: invalid stream: {e}", spec.name));
    let out = &outcome.attack;
    assert!((0.0..=1.0).contains(&out.max_aac), "{}: AAC {}", spec.name, out.max_aac);
    assert!(
        out.upper_bound_online <= out.upper_bound + 1e-12,
        "{}: online bound {} above static {}",
        spec.name,
        out.upper_bound_online,
        out.upper_bound
    );
    text
}

fn base(protocol: ProtocolKind) -> ScenarioSpec {
    ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, protocol, Scale::Smoke)
}

#[test]
fn zero_online_participants_for_a_full_round_is_survivable() {
    // Everyone online at round 0 leaves *during* round 0 (leave_prob 1) and
    // barely anyone rejoins: rounds with zero participants are guaranteed,
    // exercising the FedAvg keep-previous-global guard.
    let mut spec = base(ProtocolKind::Fl);
    spec.name = "blackout".to_string();
    spec.dynamics = DynamicsSpec {
        leave_prob: 1.0,
        join_prob: 0.02,
        initial_online: 0.1,
        ..DynamicsSpec::default()
    };
    let text = run_to_valid_stream(&spec);
    let mut saw_empty_round = false;
    for line in text.lines() {
        let v = Json::parse(line).unwrap();
        if v.get("type").unwrap().as_str() == Some("round_eval")
            && v.get("participants").unwrap().as_u64() == Some(0)
        {
            saw_empty_round = true;
            // Nobody acted: the live set is empty, so the online bound
            // collapses to zero even where the static bound does not.
            assert_eq!(v.get("upper_bound_online").unwrap().as_f64(), Some(0.0));
        }
    }
    assert!(saw_empty_round, "blackout never produced an all-offline evaluation round");
}

#[test]
fn hundred_percent_churn_flips_the_population_every_round() {
    // leave = join = 1: every online node leaves, every offline node
    // rejoins — the population alternates in two complementary waves.
    let mut spec = base(ProtocolKind::Fl);
    spec.name = "full-churn".to_string();
    spec.dynamics = DynamicsSpec {
        leave_prob: 1.0,
        join_prob: 1.0,
        initial_online: 0.5,
        ..DynamicsSpec::default()
    };
    run_to_valid_stream(&spec);
}

#[test]
fn sybil_coalition_larger_than_honest_population() {
    // 40 sybils against 8 honest users (smoke scale has 48): the coalition
    // engine must handle a near-total takeover.
    let mut spec = base(ProtocolKind::RandGossip);
    spec.name = "sybil-majority".to_string();
    spec.dynamics = DynamicsSpec { sybils: 40, ..DynamicsSpec::default() };
    run_to_valid_stream(&spec);
}

#[test]
fn straggler_delay_exceeding_the_horizon() {
    // Every node is a straggler with a mean delay far past the 8-round
    // smoke horizon: after their first action almost nobody returns, and
    // late rounds run nearly (or fully) empty.
    let mut spec = base(ProtocolKind::Fl);
    spec.name = "straggler-horizon".to_string();
    spec.dynamics = DynamicsSpec {
        straggler_fraction: 1.0,
        straggler_mean_delay: 1_000.0,
        ..DynamicsSpec::default()
    };
    let text = run_to_valid_stream(&spec);
    // The online count stays full (stragglers are online, just not acting),
    // while participants collapse after round 0 — the distinction the
    // schema's two fields exist to make.
    let mut last_participants = u64::MAX;
    for line in text.lines() {
        let v = Json::parse(line).unwrap();
        if v.get("type").unwrap().as_str() == Some("round_eval") {
            assert_eq!(v.get("online").unwrap().as_u64(), Some(48));
            last_participants = v.get("participants").unwrap().as_u64().unwrap();
        }
    }
    assert!(last_participants < 10, "stragglers kept acting: {last_participants}");
}

#[test]
fn straggler_delay_beyond_the_round_counter_keeps_stragglers_out() {
    // A mean delay of 1e300 rounds saturates the straggler timer at the
    // largest round instead of wrapping it back to the current round: after
    // acting in round 0, the stragglers (half the 48 smoke users) never act
    // again.
    let mut spec = base(ProtocolKind::Fl);
    spec.name = "straggler-saturation".to_string();
    spec.dynamics = DynamicsSpec {
        straggler_fraction: 0.5,
        straggler_mean_delay: 1e300,
        ..DynamicsSpec::default()
    };
    let text = run_to_valid_stream(&spec);
    let participants: Vec<u64> = text
        .lines()
        .map(|line| Json::parse(line).unwrap())
        .filter(|v| v.get("type").unwrap().as_str() == Some("round_eval"))
        .map(|v| v.get("participants").unwrap().as_u64().unwrap())
        .collect();
    // Records come from the odd rounds, all after round 0.
    assert!(!participants.is_empty() && participants.iter().all(|&p| p == 24), "{participants:?}");
}

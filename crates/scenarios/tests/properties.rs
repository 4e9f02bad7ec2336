//! Property tests: arbitrary specs survive the JSON roundtrip, and the
//! report's quantiles follow the recorder histogram's convention.

use cia_data::presets::{Preset, Scale};
use cia_scenarios::spec::{
    DefenseKind, DynamicsSpec, ModelKind, PlacementStrategy, ProtocolKind, ScenarioSpec,
};
use cia_scenarios::{SuiteEntry, SuiteSpec};
use proptest::prelude::*;

/// Deterministically builds a *valid* scenario spec from scalar draws.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    seed: u64,
    preset_pick: u32,
    model_pick: u32,
    proto_pick: u32,
    defense_pick: u32,
    tau: f64,
    beta: f64,
    leave: f64,
    join: f64,
    initial: f64,
    straggler: f64,
    participation: f64,
    coalition_pick: u32,
) -> ScenarioSpec {
    let preset = match preset_pick % 3 {
        0 => Preset::MovieLens,
        1 => Preset::Foursquare,
        _ => Preset::Gowalla,
    };
    let model = if model_pick % 2 == 1 && preset.has_sequences() {
        ModelKind::Prme
    } else {
        ModelKind::Gmf
    };
    let protocol = match proto_pick % 3 {
        0 => ProtocolKind::Fl,
        1 => ProtocolKind::RandGossip,
        _ => ProtocolKind::PersGossip,
    };
    let mut spec = ScenarioSpec::new(preset, model, protocol, Scale::Smoke);
    spec.name = format!("p-{seed:x}");
    spec.seed = seed;
    spec.beta = beta as f32;
    spec.defense = match defense_pick % 4 {
        0 => DefenseKind::None,
        1 => DefenseKind::ShareLess { tau: tau as f32 },
        2 => DefenseKind::Dp { epsilon: Some(tau * 20.0 + 0.1) },
        _ => DefenseKind::Dp { epsilon: None },
    };
    spec.dynamics = DynamicsSpec {
        leave_prob: leave,
        join_prob: join.max(0.01),
        initial_online: initial.clamp(0.05, 1.0),
        straggler_fraction: straggler,
        straggler_mean_delay: 1.0 + tau * 5.0,
        participation: participation.clamp(0.05, 1.0),
        sybils: 0,
        ..DynamicsSpec::default()
    };
    if protocol.is_gossip() {
        match coalition_pick % 3 {
            1 => {
                spec.dynamics.sybils = 2 + (coalition_pick / 3) as usize % 4;
                // Sybil specs may also carry an adaptive placement.
                spec.dynamics.placement = match coalition_pick % 5 {
                    0 => PlacementStrategy::Degree,
                    1 => PlacementStrategy::CoverageGreedy,
                    _ => PlacementStrategy::Static,
                };
                spec.dynamics.placement_warmup = 1 + u64::from(coalition_pick) % 40;
            }
            2 => spec.dynamics.sybils = 2 + (coalition_pick / 3) as usize % 4,
            _ => {}
        }
    }
    spec.validate().expect("construction covers only valid specs");
    spec
}

proptest! {
    #[test]
    fn spec_survives_json_roundtrip(
        seed in 0u64..(1 << 50),
        preset_pick in 0u32..3,
        model_pick in 0u32..2,
        proto_pick in 0u32..3,
        defense_pick in 0u32..4,
        tau in 0.05f64..1.0,
        beta in 0.0f64..1.0,
        leave in 0.0f64..1.0,
        join in 0.01f64..1.0,
        initial in 0.05f64..1.0,
        straggler in 0.0f64..1.0,
        participation in 0.05f64..1.0,
        coalition_pick in 0u32..12,
    ) {
        let spec = build_spec(
            seed, preset_pick, model_pick, proto_pick, defense_pick, tau, beta,
            leave, join, initial, straggler, participation, coalition_pick,
        );
        let suite = SuiteSpec { name: "prop".to_string(), entries: vec![SuiteEntry::One(spec.clone())] };
        let doc = suite.to_json().render();
        let reparsed = SuiteSpec::parse(&doc)
            .map_err(|e| proptest::TestCaseError::fail(format!("reparse: {e}\n{doc}")))?;
        prop_assert_eq!(&reparsed, &suite);
        let respec = reparsed.expanded().expect("parsed suites expand")[0].clone();
        prop_assert_eq!(respec, spec);
    }
}

proptest! {
    /// The report's exact rank quantile and the recorder histogram's bucket
    /// walk index by the *same* shared nearest-rank definition
    /// (`cia_obs::nearest_rank`). Pin the agreement: feed both sides values
    /// that sit exactly on bucket upper edges (where the bucket walk is
    /// lossless) and they must return the same quantile for every q.
    #[test]
    fn report_and_histogram_quantiles_share_one_convention(
        buckets in proptest::collection::vec(0usize..41, 1..60),
        q in 0.0f64..=1.0,
    ) {
        let mut hist = cia_core::Histogram::new();
        let mut values: Vec<u64> =
            buckets.iter().map(|&b| cia_core::Histogram::bucket_upper_edge(b)).collect();
        for &v in &values {
            hist.record(v);
        }
        prop_assert_eq!(hist.quantile(q), cia_scenarios::report::rank_quantile(&mut values, q));
    }
}

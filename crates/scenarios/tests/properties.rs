//! Property tests for the spec JSON codec and the checkpoint binary codec:
//! arbitrary specs survive the JSON roundtrip with stable fingerprints,
//! arbitrary mid-run state round-trips byte-identically through
//! encode/decode, corrupted fingerprints are always rejected, and no
//! mangled input ever panics the decoder.

use cia_core::{CiaAttackState, MomentumTable, PlacementsState, RoundPoint};
use cia_data::presets::{Preset, Scale};
use cia_data::UserId;
use cia_gossip::{GossipSimState, TrafficCounters};
use cia_models::SharedModel;
use cia_scenarios::checkpoint::{AttackState, Checkpoint, ProtocolState};
use cia_scenarios::dynamics::{DynamicsState, ParticipantDynamics};
use cia_scenarios::placement::PlacementState;
use cia_scenarios::spec::{
    DefenseKind, DynamicsSpec, ModelKind, PlacementStrategy, ProtocolKind, ScenarioSpec,
};
use cia_scenarios::{SuiteEntry, SuiteSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn vec_f32(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect()
}

fn round_points(rng: &mut StdRng, n: usize) -> Vec<RoundPoint> {
    (0..n)
        .map(|i| {
            let upper = rng.gen_range(0.0f64..1.0);
            RoundPoint {
                round: i as u64 * 2,
                aac: rng.gen_range(0.0f64..1.0),
                best10: rng.gen_range(0.0f64..1.0),
                upper_bound: upper,
                upper_bound_online: upper * rng.gen_range(0.0f64..1.0),
            }
        })
        .collect()
}

/// Deterministically builds an arbitrary mid-run checkpoint from a seed:
/// both protocol families, both attack families, ragged inboxes, optional
/// embeddings.
fn build_checkpoint(seed: u64) -> Checkpoint {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1usize..8);
    let dim = rng.gen_range(1usize..6);
    let clients: Vec<Vec<f32>> = (0..n).map(|_| vec_f32(&mut rng, dim * 3)).collect();
    let protocol = if rng.gen_bool(0.5) {
        ProtocolState::Fl { global: vec_f32(&mut rng, dim * 2) }
    } else {
        let inboxes: Vec<Vec<SharedModel>> = (0..n)
            .map(|_| {
                (0..rng.gen_range(0usize..3))
                    .map(|_| SharedModel {
                        // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                        owner: UserId::new(rng.gen_range(0u32..n as u32)),
                        round: rng.gen_range(0u64..100),
                        owner_emb: if rng.gen_bool(0.5) {
                            Some(vec_f32(&mut rng, dim))
                        } else {
                            None
                        },
                        agg: vec_f32(&mut rng, dim * 2),
                    })
                    .collect()
            })
            .collect();
        ProtocolState::Gl(GossipSimState {
            refresh_at: (0..n).map(|_| rng.gen_range(0u64..80)).collect(),
            views: (0..n)
                .map(|_| {
                    // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                    (0..rng.gen_range(1usize..4)).map(|_| rng.gen_range(0u32..n as u32)).collect()
                })
                .collect(),
            inboxes,
            heard: (0..n)
                .map(|_| {
                    (0..rng.gen_range(0usize..3))
                        // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                        .map(|_| (rng.gen_range(0u32..n as u32), rng.gen_range(-2.0f32..2.0)))
                        .collect()
                })
                .collect(),
            prev_sent: (0..n).map(|_| rng.gen_bool(0.5).then(|| vec_f32(&mut rng, dim))).collect(),
            traffic: TrafficCounters {
                received: (0..n).map(|_| rng.gen_range(0u64..200)).collect(),
                view_in_degree: (0..n).map(|_| rng.gen_range(0u64..2000)).collect(),
            },
        })
    };
    let history_len = rng.gen_range(0usize..5);
    let attack = if rng.gen_bool(0.5) {
        AttackState::Cia(CiaAttackState {
            momentum: {
                // One layout per table; each seen sender folds 1..20 models.
                let (mut table, with_emb) = (MomentumTable::new(n), rng.gen_bool(0.5));
                for u in 0..n {
                    let folds = if rng.gen_bool(0.6) { rng.gen_range(1usize..20) } else { 0 };
                    for _ in 0..folds {
                        let emb = with_emb.then(|| vec_f32(&mut rng, dim));
                        let beta = rng.gen_range(0.0f32..1.0);
                        table.observe(u, beta, emb.as_deref(), &vec_f32(&mut rng, dim * 2));
                    }
                }
                table
            },
            history: round_points(&mut rng, history_len),
            last_global: rng.gen_bool(0.5).then(|| vec_f32(&mut rng, dim * 2)),
            prepared: rng.gen_bool(0.5),
        })
    } else {
        AttackState::Placements(PlacementsState {
            s_ema: (0..n * n)
                .map(|_| if rng.gen_bool(0.3) { f32::NAN } else { rng.gen_range(-4.0f32..4.0) })
                .collect(),
            history: round_points(&mut rng, history_len),
            prepared: rng.gen_bool(0.5),
        })
    };
    Checkpoint {
        fingerprint: rng.gen::<u64>(),
        round: rng.gen_range(0u64..100),
        clients,
        protocol,
        attack,
        adversary_embs: (0..n).map(|_| rng.gen_bool(0.5).then(|| vec_f32(&mut rng, dim))).collect(),
        dynamics: DynamicsState {
            online: (0..n).map(|_| rng.gen_bool(0.8)).collect(),
            straggler_until: (0..n).map(|_| rng.gen_range(0u64..60)).collect(),
        },
        placement: if rng.gen_bool(0.5) {
            PlacementState::default()
        } else {
            let relocated = rng.gen_bool(0.5);
            // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
            let mut members: Vec<u32> = (0..n as u32).collect();
            for i in (1..members.len()).rev() {
                members.swap(i, rng.gen_range(0usize..=i));
            }
            members.truncate(rng.gen_range(1usize..=n.min(3)));
            members.sort_unstable();
            PlacementState {
                relocated,
                members,
                seen: if relocated {
                    Vec::new()
                } else {
                    (0..n)
                        .map(|_| {
                            let mut log: Vec<u32> = (0..rng.gen_range(0usize..4))
                                // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
                                .map(|_| rng.gen_range(0u32..n as u32))
                                .collect();
                            log.sort_unstable();
                            log.dedup();
                            log
                        })
                        .collect()
                },
            }
        },
    }
}

proptest! {
    #[test]
    fn spec_survives_json_roundtrip_with_stable_fingerprint(
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
        // The fingerprint is a pure function of the canonical JSON.
        let respec = reparsed.expanded().expect("parsed suites expand")[0].clone();
        prop_assert_eq!(respec.fingerprint(), spec.fingerprint());
        // And it tracks content: a different seed is a different spec.
        let mut other = spec.clone();
        other.seed ^= 1;
        prop_assert!(other.fingerprint() != spec.fingerprint());
    }

    #[test]
    fn checkpoint_codec_roundtrips_byte_identically(seed in 0u64..(1 << 60)) {
        let ck = build_checkpoint(seed);
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes, ck.fingerprint)
            .map_err(|e| proptest::TestCaseError::fail(format!("decode: {e}")))?;
        // Re-encoding the decoded checkpoint reproduces the exact bytes —
        // the codec loses nothing (f32/f64 travel as raw bits, so NaN
        // payloads survive too).
        prop_assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn corrupted_fingerprint_is_always_rejected(seed in 0u64..(1 << 60), bit in 0usize..64) {
        let ck = build_checkpoint(seed);
        let mut bytes = ck.encode();
        // The fingerprint field sits at bytes 8..16 (after magic + version).
        bytes[8 + bit / 8] ^= 1 << (bit % 8);
        prop_assert!(Checkpoint::decode(&bytes, ck.fingerprint).is_err());
        // Equivalently: expecting a different fingerprint refuses the load.
        prop_assert!(Checkpoint::decode(&ck.encode(), ck.fingerprint ^ (1u64 << bit)).is_err());
    }

    #[test]
    fn mangled_checkpoints_never_panic_the_decoder(
        seed in 0u64..(1 << 60),
        cut in 0.0f64..1.0,
        flip in 0.0f64..1.0,
        flip_bit in 0usize..8,
    ) {
        let bytes = build_checkpoint(seed).encode();
        let ck = build_checkpoint(seed);
        // Truncation at any point must error, never panic.
        let cut_at = (bytes.len() as f64 * cut) as usize;
        prop_assert!(Checkpoint::decode(&bytes[..cut_at.min(bytes.len() - 1)], ck.fingerprint).is_err());
        // A single flipped bit anywhere must be refused: the checksum
        // trailer covers every byte before it.
        let mut mangled = bytes.clone();
        let at = (mangled.len() as f64 * flip) as usize % mangled.len();
        mangled[at] ^= 1 << flip_bit;
        prop_assert!(Checkpoint::decode(&mangled, ck.fingerprint).is_err());
    }

    #[test]
    fn streaming_topk_equals_full_sort_prefix(
        seed in 0u64..(1 << 60),
        n in 0usize..400,
        k in 0usize..40,
        levels in 1u32..8,       // few score levels → plenty of exact ties
        nan_prob in 0.0f64..0.3, // DP-destroyed models produce NaN scores
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // cia-lint: allow(D05, test/bench populations are tiny; ids fit u32 with orders of magnitude to spare)
        let mut pairs: Vec<(f32, u32)> = (0..n as u32).map(|id| {
            let score = if rng.gen::<f64>() < nan_prob {
                f32::NAN
            } else {
                rng.gen_range(0..levels) as f32 * 0.25 - 0.5
            };
            (score, id)
        }).collect();
        // Arrival order must not matter — shuffle before streaming.
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.gen_range(0..=i));
        }
        let mut full = pairs.clone();
        full.sort_by(cia_core::metrics::rank_desc);
        let expect: Vec<u32> = full.iter().take(k).map(|&(_, id)| id).collect();
        // The bounded streaming selector must return exactly the full-sort
        // prefix: same ids, same order, NaN sunk, ties broken on ascending
        // id — the property that lets the evaluator drop its catalog-length
        // score vector without changing a single metric.
        let mut sel = cia_core::TopK::new(k);
        for &(s, id) in &pairs {
            sel.push(s, id);
        }
        prop_assert_eq!(sel.into_ids(), expect);
    }

    #[test]
    fn dynamics_mid_run_state_resumes_identically(
        seed in 0u64..(1 << 50),
        n in 4usize..48,
        split in 1u64..12,
        leave in 0.0f64..1.0,
        join in 0.05f64..1.0,
        initial in 0.2f64..1.0,
        straggler in 0.0f64..1.0,
        participation in 0.2f64..1.0,
        sybils in 0usize..4,
    ) {
        let spec = DynamicsSpec {
            leave_prob: leave,
            join_prob: join,
            initial_online: initial,
            straggler_fraction: straggler,
            straggler_mean_delay: 2.5,
            participation,
            sybils,
            ..DynamicsSpec::default()
        };
        let total = split + 8;
        let mut straight = ParticipantDynamics::new(&spec, n, seed);
        let mut masks = Vec::new();
        for t in 0..total {
            let mut mask = vec![true; n];
            straight.apply(t, &mut mask);
            masks.push(mask);
        }
        // Run to the split point, snapshot, restore into a fresh instance.
        let mut first = ParticipantDynamics::new(&spec, n, seed);
        for t in 0..split {
            let mut mask = vec![true; n];
            first.apply(t, &mut mask);
        }
        let state = first.export_state();
        let mut resumed = ParticipantDynamics::new(&spec, n, seed);
        resumed.restore_state(state).unwrap();
        for (t, expect) in masks.iter().enumerate().skip(split as usize) {
            let mut mask = vec![true; n];
            resumed.apply(t as u64, &mut mask);
            prop_assert_eq!(&mask, expect, "diverged at round {}", t);
        }
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

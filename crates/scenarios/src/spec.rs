//! The declarative scenario specification: dataset × scale × model ×
//! protocol × defense × attack, plus the `dynamics` block describing how the
//! participant population behaves over time.
//!
//! A [`ScenarioSpec`] is a plain value: build it in code, or parse it from a
//! JSON document (see `crates/scenarios/README.md` for the format). Specs
//! compose into named [`SuiteSpec`]s whose entries are *generators* — a
//! plain scenario, or a [`SuiteEntry::Sweep`] expanding a template over a
//! swept field. Built-ins, all listed in [`BUILTIN_SUITES`]:
//! [`builtin_suite`] (the three canonical workloads),
//! [`participation_sweep_suite`] (Fig. 1 as a suite),
//! [`defense_dynamics_grid_suite`] (every defense × every dynamics),
//! [`pers_gossip_churn_suite`] (view personalization under churn) and
//! [`adaptive_sybils_suite`] (static against adaptive sybil placement).

use crate::json::{fmt_f64, Json, ObjBuilder};
use cia_data::presets::{Preset, Scale};
use cia_models::SharingPolicy;

/// Which recommendation model to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Generalized matrix factorization (evaluated on all three datasets).
    Gmf,
    /// Personalized ranking metric embedding (POI datasets only).
    Prme,
}

impl ModelKind {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Gmf => "GMF",
            ModelKind::Prme => "PRME",
        }
    }

    /// Parses `"gmf" | "prme"` (case-insensitive).
    pub fn parse(s: &str) -> Option<ModelKind> {
        match s.to_ascii_lowercase().as_str() {
            "gmf" => Some(ModelKind::Gmf),
            "prme" => Some(ModelKind::Prme),
            _ => None,
        }
    }
}

/// Which collaborative protocol to train over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// FedAvg federated learning.
    Fl,
    /// Rand-Gossip decentralized learning.
    RandGossip,
    /// Pers-Gossip personalized decentralized learning.
    PersGossip,
}

impl ProtocolKind {
    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Fl => "FL",
            ProtocolKind::RandGossip => "Rand-Gossip",
            ProtocolKind::PersGossip => "Pers-Gossip",
        }
    }

    /// Parses `"fl" | "rand-gossip" | "pers-gossip"` (case-insensitive).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        match s.to_ascii_lowercase().as_str() {
            "fl" => Some(ProtocolKind::Fl),
            "rand-gossip" | "randgossip" => Some(ProtocolKind::RandGossip),
            "pers-gossip" | "persgossip" => Some(ProtocolKind::PersGossip),
            _ => None,
        }
    }

    /// Whether the protocol is decentralized.
    pub fn is_gossip(self) -> bool {
        !matches!(self, ProtocolKind::Fl)
    }
}

/// Which defense the participants deploy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefenseKind {
    /// Full model sharing, no defense.
    None,
    /// The Share-less policy (§III-D) with regularization factor τ.
    ShareLess {
        /// Item-update regularization factor.
        tau: f32,
    },
    /// Local DP-SGD (§III-E) calibrated to a target ε (δ = 1e-6, clip = 2 as
    /// in Figure 5); `None` means noiseless clipping (ε = ∞).
    Dp {
        /// Target privacy budget, or `None` for ε = ∞.
        epsilon: Option<f64>,
    },
}

impl DefenseKind {
    /// The sharing policy implied by the defense.
    pub fn policy(self) -> SharingPolicy {
        match self {
            DefenseKind::ShareLess { tau } => SharingPolicy::ShareLess { tau },
            _ => SharingPolicy::Full,
        }
    }
}

/// Scale-dependent simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleParams {
    /// FL communication rounds.
    pub fl_rounds: u64,
    /// Gossip rounds.
    pub gl_rounds: u64,
    /// FL attack-evaluation cadence.
    pub fl_eval_every: u64,
    /// Gossip attack-evaluation cadence.
    pub gl_eval_every: u64,
    /// Local epochs per FL round.
    pub local_epochs: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Community size `K` (the paper's default is 50).
    pub k: usize,
    /// Negatives sampled for ranking evaluation (the NCF protocol uses 100).
    pub eval_negatives: usize,
    /// Held-out items per user on POI datasets (for F1).
    pub poi_holdout: usize,
}

impl ScaleParams {
    /// The parameters for a given scale.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Smoke => ScaleParams {
                fl_rounds: 8,
                gl_rounds: 40,
                fl_eval_every: 2,
                gl_eval_every: 10,
                local_epochs: 2,
                dim: 8,
                k: 5,
                eval_negatives: 20,
                poi_holdout: 3,
            },
            Scale::Small => ScaleParams {
                fl_rounds: 20,
                gl_rounds: 400,
                fl_eval_every: 2,
                gl_eval_every: 40,
                local_epochs: 2,
                dim: 8,
                k: 20,
                eval_negatives: 50,
                poi_holdout: 5,
            },
            Scale::Paper => ScaleParams {
                fl_rounds: 30,
                gl_rounds: 1500,
                fl_eval_every: 3,
                gl_eval_every: 100,
                local_epochs: 2,
                dim: 8,
                k: 50,
                eval_negatives: 100,
                poi_holdout: 5,
            },
        }
    }

    /// Rounds for a protocol.
    pub fn rounds(&self, protocol: ProtocolKind) -> u64 {
        if protocol.is_gossip() {
            self.gl_rounds
        } else {
            self.fl_rounds
        }
    }

    /// Attack-evaluation cadence for a protocol.
    pub fn eval_every(&self, protocol: ProtocolKind) -> u64 {
        if protocol.is_gossip() {
            self.gl_eval_every
        } else {
            self.fl_eval_every
        }
    }
}

/// How a sybil coalition chooses which node ids it controls.
///
/// The paper's coalition sits on evenly spaced ids for the whole run.
/// Adaptive strategies model a strictly stronger adversary with a network
/// vantage point: the coalition starts from the static placement, passively
/// observes traffic for a warm-up window, then relocates its sybil
/// identities onto the top-scoring positions before the attack proper
/// begins. Momentum state for retained members survives the relocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementStrategy {
    /// Evenly spaced node ids, fixed for the whole run (the paper's rule).
    Static,
    /// Relocate onto the nodes with the highest observed traffic
    /// (accumulated view in-degree, ties broken by delivered-message count,
    /// then by id).
    Degree,
    /// Relocate greedily to maximize the number of distinct senders the
    /// coalition would have observed during the warm-up (max-coverage over
    /// the delivery log, the observation analogue of the per-community
    /// `upper_bound_online` coverage bound).
    CoverageGreedy,
}

impl PlacementStrategy {
    /// The canonical spelling used in spec documents.
    pub fn name(self) -> &'static str {
        match self {
            PlacementStrategy::Static => "static",
            PlacementStrategy::Degree => "degree",
            PlacementStrategy::CoverageGreedy => "coverage-greedy",
        }
    }

    /// Parses `"static" | "degree" | "coverage-greedy"` (case-insensitive).
    pub fn parse(s: &str) -> Option<PlacementStrategy> {
        match s.to_ascii_lowercase().as_str() {
            "static" => Some(PlacementStrategy::Static),
            "degree" => Some(PlacementStrategy::Degree),
            "coverage-greedy" | "greedy" => Some(PlacementStrategy::CoverageGreedy),
            _ => None,
        }
    }

    /// Whether the strategy relocates after a warm-up window.
    pub fn is_adaptive(self) -> bool {
        !matches!(self, PlacementStrategy::Static)
    }
}

/// How the participant population behaves over time. The default block is
/// fully static — every scenario is a dynamics scenario, most with the
/// identity dynamics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsSpec {
    /// Per-round probability that an online participant goes offline
    /// (churn). The stationary offline fraction is
    /// `leave_prob / (leave_prob + join_prob)`.
    pub leave_prob: f64,
    /// Per-round probability that an offline participant rejoins.
    pub join_prob: f64,
    /// Fraction of participants online at round 0.
    pub initial_online: f64,
    /// Fraction of participants that are stragglers: after each round they
    /// act in, they sit out a random number of rounds.
    pub straggler_fraction: f64,
    /// Mean of the straggler delay distribution (rounds; exponential,
    /// rounded up — the same family as the gossip view-refresh interval).
    pub straggler_mean_delay: f64,
    /// Independent per-round participation sampling on top of churn
    /// (1.0 = everyone eligible acts).
    pub participation: f64,
    /// Size of the adversarial sybil coalition: colluding nodes that are
    /// always online, never straggle, and pool their observations
    /// (Algorithm 2 line 14). Gossip protocols only.
    pub sybils: usize,
    /// How the coalition chooses its node placements. Adaptive strategies
    /// spend [`DynamicsSpec::placement_warmup`] rounds observing traffic
    /// from the static positions, then relocate.
    pub placement: PlacementStrategy,
    /// Warm-up rounds of passive traffic observation before an adaptive
    /// relocation. A window at or beyond the horizon never fires, degrading
    /// the run to static placement.
    pub placement_warmup: u64,
}

impl Default for DynamicsSpec {
    fn default() -> Self {
        DynamicsSpec {
            leave_prob: 0.0,
            join_prob: 1.0,
            initial_online: 1.0,
            straggler_fraction: 0.0,
            straggler_mean_delay: 3.0,
            participation: 1.0,
            sybils: 0,
            placement: PlacementStrategy::Static,
            placement_warmup: 10,
        }
    }
}

impl DynamicsSpec {
    /// Whether the block is the identity dynamics (static population).
    pub fn is_static(&self) -> bool {
        self.leave_prob == 0.0
            && self.initial_online >= 1.0
            && self.straggler_fraction == 0.0
            && self.participation >= 1.0
            && self.sybils == 0
    }
}

/// One scenario: everything needed to run a workload end to end.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (JSONL records and checkpoint files key on it).
    pub name: String,
    /// Dataset preset.
    pub preset: Preset,
    /// Recommendation model.
    pub model: ModelKind,
    /// Collaborative protocol.
    pub protocol: ProtocolKind,
    /// Deployed defense.
    pub defense: DefenseKind,
    /// Momentum coefficient β (Eq. 4).
    pub beta: f32,
    /// Community size override (defaults to the scale's `k` when `None`).
    pub k_override: Option<usize>,
    /// Scale profile.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Participant dynamics.
    pub dynamics: DynamicsSpec,
}

impl ScenarioSpec {
    /// A full-sharing, no-defense, single-adversary, static-population
    /// configuration.
    pub fn new(preset: Preset, model: ModelKind, protocol: ProtocolKind, scale: Scale) -> Self {
        ScenarioSpec {
            name: format!(
                "{}-{}-{}",
                preset.name().to_ascii_lowercase(),
                model.name().to_ascii_lowercase(),
                protocol.name().to_ascii_lowercase()
            ),
            preset,
            model,
            protocol,
            defense: DefenseKind::None,
            beta: 0.99,
            k_override: None,
            scale,
            seed: 42,
            dynamics: DynamicsSpec::default(),
        }
    }

    /// Size of the adversarial coalition the gossip runner fields: the
    /// sybil count, where 0 means a single adversary evaluated at every
    /// placement (no coalition engine).
    pub fn coalition_size(&self) -> usize {
        self.dynamics.sybils
    }

    /// Checks the spec for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        let d = &self.dynamics;
        if self.name.is_empty() {
            return Err("scenario name must be non-empty".to_string());
        }
        if !(0.0..=1.0).contains(&f64::from(self.beta)) {
            return Err(format!("{}: beta must be in [0, 1]", self.name));
        }
        if self.model == ModelKind::Prme && !self.preset.has_sequences() {
            return Err(format!(
                "{}: PRME needs check-in sequences; {} has none",
                self.name,
                self.preset.name()
            ));
        }
        for (label, p) in [
            ("leave_prob", d.leave_prob),
            ("join_prob", d.join_prob),
            ("straggler_fraction", d.straggler_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{}: {label} must be in [0, 1]", self.name));
            }
        }
        for (label, p) in [("initial_online", d.initial_online), ("participation", d.participation)]
        {
            if !(p > 0.0 && p <= 1.0) {
                return Err(format!("{}: {label} must be in (0, 1]", self.name));
            }
        }
        if d.leave_prob > 0.0 && d.join_prob == 0.0 {
            return Err(format!(
                "{}: leave_prob > 0 with join_prob = 0 drains the population",
                self.name
            ));
        }
        if !d.straggler_mean_delay.is_finite() {
            return Err(format!("{}: straggler_mean_delay must be finite", self.name));
        }
        if d.straggler_fraction > 0.0 && d.straggler_mean_delay < 1.0 {
            return Err(format!("{}: straggler_mean_delay must be ≥ 1 round", self.name));
        }
        if d.sybils > 0 && !self.protocol.is_gossip() {
            return Err(format!(
                "{}: sybil coalitions need a gossip protocol (the FL adversary is the server)",
                self.name
            ));
        }
        if d.placement.is_adaptive() {
            if d.sybils == 0 {
                return Err(format!(
                    "{}: adaptive sybil placement needs dynamics.sybils > 0",
                    self.name
                ));
            }
            if d.placement_warmup == 0 {
                return Err(format!(
                    "{}: adaptive placement needs a warm-up window of at least one round",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// Serializes into the spec JSON format.
    pub fn to_json(&self) -> Json {
        let defense = match self.defense {
            DefenseKind::None => ObjBuilder::new().str("kind", "none").build(),
            DefenseKind::ShareLess { tau } => {
                ObjBuilder::new().str("kind", "share-less").num("tau", f64::from(tau)).build()
            }
            DefenseKind::Dp { epsilon } => {
                let b = ObjBuilder::new().str("kind", "dp");
                match epsilon {
                    Some(e) => b.num("epsilon", e).build(),
                    None => b.value("epsilon", Json::Null).build(),
                }
            }
        };
        let d = &self.dynamics;
        let dynamics = ObjBuilder::new()
            .num("leave_prob", d.leave_prob)
            .num("join_prob", d.join_prob)
            .num("initial_online", d.initial_online)
            .num("straggler_fraction", d.straggler_fraction)
            .num("straggler_mean_delay", d.straggler_mean_delay)
            .num("participation", d.participation)
            .num("sybils", d.sybils as f64)
            .str("placement", d.placement.name())
            .num("placement_warmup", d.placement_warmup as f64)
            .build();
        let mut b = ObjBuilder::new()
            .str("name", &self.name)
            .str("preset", &self.preset.name().to_ascii_lowercase())
            .str("model", &self.model.name().to_ascii_lowercase())
            .str("protocol", &self.protocol.name().to_ascii_lowercase())
            .value("defense", defense)
            .num("beta", f64::from(self.beta));
        if let Some(k) = self.k_override {
            b = b.num("k", k as f64);
        }
        b.str("scale", &self.scale.to_string())
            .num("seed", self.seed as f64)
            .value("dynamics", dynamics)
            .build()
    }

    /// Parses a scenario object. Missing optional fields take their
    /// defaults; `scale` and `seed` fall back to the suite-level values.
    /// Unknown keys are rejected — a typo that silently fell back to a
    /// default would run a materially different experiment.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or unknown field.
    pub fn from_json(v: &Json, default_scale: Scale, default_seed: u64) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("scenario needs a string `name`")?
            .to_string();
        let fail = |msg: &str| format!("scenario `{name}`: {msg}");
        check_keys(
            v,
            &[
                "name", "preset", "model", "protocol", "defense", "beta", "k", "scale", "seed",
                "dynamics",
            ],
            &format!("scenario `{name}`"),
        )?;
        if let Some(d) = v.get("defense") {
            check_keys(d, &["kind", "tau", "epsilon"], &format!("scenario `{name}` defense"))?;
        }
        if let Some(d) = v.get("dynamics") {
            check_keys(
                d,
                &[
                    "leave_prob",
                    "join_prob",
                    "initial_online",
                    "straggler_fraction",
                    "straggler_mean_delay",
                    "participation",
                    "sybils",
                    "placement",
                    "placement_warmup",
                ],
                &format!("scenario `{name}` dynamics"),
            )?;
        }
        // Every reader distinguishes *absent* (take the default) from
        // *present but mistyped/unrepresentable* (error) — a spec that names
        // a field gets exactly that field or a diagnostic, never a silent
        // default.
        let str_field = |key: &str| -> Result<Option<&str>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(x) => {
                    x.as_str().map(Some).ok_or_else(|| fail(&format!("`{key}` must be a string")))
                }
            }
        };
        let int_field = |obj: &Json, key: &str, label: &str| -> Result<Option<u64>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(x) => x
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| fail(&format!("{label}`{key}` must be an integer below 2^53"))),
            }
        };
        let num_field = |obj: &Json, key: &str, label: &str| -> Result<Option<f64>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(x) => x
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| fail(&format!("{label}`{key}` must be a number"))),
            }
        };
        let preset = match str_field("preset")? {
            Some(s) => parse_preset(s).ok_or_else(|| fail("unknown `preset`"))?,
            None => Preset::MovieLens,
        };
        let model = match str_field("model")? {
            Some(s) => ModelKind::parse(s).ok_or_else(|| fail("unknown `model`"))?,
            None => ModelKind::Gmf,
        };
        let protocol = match str_field("protocol")? {
            Some(s) => ProtocolKind::parse(s).ok_or_else(|| fail("unknown `protocol`"))?,
            None => ProtocolKind::Fl,
        };
        let defense = match v.get("defense") {
            None => DefenseKind::None,
            Some(d) => {
                let kind = match d.get("kind") {
                    None => "none",
                    Some(x) => x.as_str().ok_or_else(|| fail("defense `kind` must be a string"))?,
                };
                match kind {
                    "none" => DefenseKind::None,
                    "share-less" | "shareless" => DefenseKind::ShareLess {
                        tau: d
                            .get("tau")
                            .and_then(Json::as_f64)
                            .ok_or_else(|| fail("share-less defense needs `tau`"))?
                            as f32,
                    },
                    "dp" => DefenseKind::Dp {
                        epsilon: match d.get("epsilon") {
                            None => None,
                            Some(e) if e.is_null() => None,
                            Some(e) => {
                                Some(e.as_f64().ok_or_else(|| fail("`epsilon` must be numeric"))?)
                            }
                        },
                    },
                    _ => return Err(fail("unknown defense `kind`")),
                }
            }
        };
        let scale = match str_field("scale")? {
            Some(s) => Scale::parse(s).ok_or_else(|| fail("unknown `scale`"))?,
            None => default_scale,
        };
        let dynamics = match v.get("dynamics") {
            None => DynamicsSpec::default(),
            Some(d) => {
                let base = DynamicsSpec::default();
                let f = |key: &str, dflt: f64| -> Result<f64, String> {
                    Ok(num_field(d, key, "dynamics ")?.unwrap_or(dflt))
                };
                DynamicsSpec {
                    leave_prob: f("leave_prob", base.leave_prob)?,
                    join_prob: f("join_prob", base.join_prob)?,
                    initial_online: f("initial_online", base.initial_online)?,
                    straggler_fraction: f("straggler_fraction", base.straggler_fraction)?,
                    straggler_mean_delay: f("straggler_mean_delay", base.straggler_mean_delay)?,
                    participation: f("participation", base.participation)?,
                    sybils: int_field(d, "sybils", "dynamics ")?.unwrap_or(0) as usize,
                    placement: match d.get("placement") {
                        None => base.placement,
                        Some(x) => {
                            let s = x
                                .as_str()
                                .ok_or_else(|| fail("dynamics `placement` must be a string"))?;
                            PlacementStrategy::parse(s)
                                .ok_or_else(|| fail("unknown dynamics `placement`"))?
                        }
                    },
                    placement_warmup: int_field(d, "placement_warmup", "dynamics ")?
                        .unwrap_or(base.placement_warmup),
                }
            }
        };
        let spec = ScenarioSpec {
            preset,
            model,
            protocol,
            defense,
            beta: num_field(v, "beta", "")?.unwrap_or(0.99) as f32,
            k_override: int_field(v, "k", "")?.map(|k| k as usize),
            scale,
            seed: int_field(v, "seed", "")?.unwrap_or(default_seed),
            dynamics,
            name,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// A stable fingerprint of the spec (FNV-1a over the canonical JSON),
    /// used to refuse resuming a checkpoint against a different spec.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.to_json().render().bytes())
    }
}

/// FNV-1a over a byte stream — the crate's one hash, shared by spec
/// fingerprints and checkpoint file naming.
pub(crate) fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Rejects keys outside the schema — declarative configs must fail loudly
/// on typos, not silently fall back to defaults.
fn check_keys(v: &Json, allowed: &[&str], ctx: &str) -> Result<(), String> {
    if let Json::Obj(pairs) = v {
        for (k, _) in pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(format!("{ctx}: unknown key `{k}` (allowed: {})", allowed.join(", ")));
            }
        }
    }
    Ok(())
}

fn parse_preset(s: &str) -> Option<Preset> {
    match s.to_ascii_lowercase().as_str() {
        "movielens" => Some(Preset::MovieLens),
        "foursquare" => Some(Preset::Foursquare),
        "gowalla" => Some(Preset::Gowalla),
        _ => None,
    }
}

/// A scenario field a sweep may range over. Numeric values are applied
/// through [`SweepField::apply`]; integer-valued fields reject fractional
/// sweep values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepField {
    /// `dynamics.participation` — the Fig. 1 axis (per-round sample size).
    Participation,
    /// `dynamics.leave_prob`.
    LeaveProb,
    /// `dynamics.join_prob`.
    JoinProb,
    /// `dynamics.initial_online`.
    InitialOnline,
    /// `dynamics.straggler_fraction`.
    StragglerFraction,
    /// `dynamics.straggler_mean_delay`.
    StragglerMeanDelay,
    /// `dynamics.sybils` (integer).
    Sybils,
    /// `dynamics.placement_warmup` (integer) — adaptive-placement bases.
    PlacementWarmup,
    /// Momentum coefficient `beta`.
    Beta,
    /// Community-size override `k` (integer).
    K,
    /// Master `seed` (integer) — repetition sweeps.
    Seed,
    /// `defense.tau` (requires a share-less defense on the base).
    DefenseTau,
    /// `defense.epsilon` (requires a DP defense on the base).
    DefenseEpsilon,
}

impl SweepField {
    /// The canonical spelling used in suite documents.
    pub fn name(self) -> &'static str {
        match self {
            SweepField::Participation => "dynamics.participation",
            SweepField::LeaveProb => "dynamics.leave_prob",
            SweepField::JoinProb => "dynamics.join_prob",
            SweepField::InitialOnline => "dynamics.initial_online",
            SweepField::StragglerFraction => "dynamics.straggler_fraction",
            SweepField::StragglerMeanDelay => "dynamics.straggler_mean_delay",
            SweepField::Sybils => "dynamics.sybils",
            SweepField::PlacementWarmup => "dynamics.placement_warmup",
            SweepField::Beta => "beta",
            SweepField::K => "k",
            SweepField::Seed => "seed",
            SweepField::DefenseTau => "defense.tau",
            SweepField::DefenseEpsilon => "defense.epsilon",
        }
    }

    /// Parses a field path. The `dynamics.` prefix is optional for dynamics
    /// fields but valid *only* for them — `dynamics.seed` must fail loudly,
    /// not silently sweep the global seed.
    pub fn parse(s: &str) -> Option<SweepField> {
        fn dynamics_field(s: &str) -> Option<SweepField> {
            match s {
                "participation" => Some(SweepField::Participation),
                "leave_prob" => Some(SweepField::LeaveProb),
                "join_prob" => Some(SweepField::JoinProb),
                "initial_online" => Some(SweepField::InitialOnline),
                "straggler_fraction" => Some(SweepField::StragglerFraction),
                "straggler_mean_delay" => Some(SweepField::StragglerMeanDelay),
                "sybils" => Some(SweepField::Sybils),
                "placement_warmup" => Some(SweepField::PlacementWarmup),
                _ => None,
            }
        }
        if let Some(rest) = s.strip_prefix("dynamics.") {
            return dynamics_field(rest);
        }
        dynamics_field(s).or(match s {
            "beta" => Some(SweepField::Beta),
            "k" => Some(SweepField::K),
            "seed" => Some(SweepField::Seed),
            "defense.tau" | "tau" => Some(SweepField::DefenseTau),
            "defense.epsilon" | "epsilon" => Some(SweepField::DefenseEpsilon),
            _ => None,
        })
    }

    /// Writes `value` into the field of `spec`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not representable (fractional
    /// integer, negative count) or the base spec lacks the swept defense.
    pub fn apply(self, spec: &mut ScenarioSpec, value: f64) -> Result<(), String> {
        let as_count = |value: f64| -> Result<usize, String> {
            if value >= 0.0 && value.fract() == 0.0 && value < 9_007_199_254_740_992.0 {
                Ok(value as usize)
            } else {
                Err(format!("sweep value {value} is not a non-negative integer"))
            }
        };
        let d = &mut spec.dynamics;
        match self {
            SweepField::Participation => d.participation = value,
            SweepField::LeaveProb => d.leave_prob = value,
            SweepField::JoinProb => d.join_prob = value,
            SweepField::InitialOnline => d.initial_online = value,
            SweepField::StragglerFraction => d.straggler_fraction = value,
            SweepField::StragglerMeanDelay => d.straggler_mean_delay = value,
            SweepField::Sybils => d.sybils = as_count(value)?,
            SweepField::PlacementWarmup => d.placement_warmup = as_count(value)? as u64,
            SweepField::Beta => spec.beta = value as f32,
            SweepField::K => spec.k_override = Some(as_count(value)?),
            SweepField::Seed => spec.seed = as_count(value)? as u64,
            SweepField::DefenseTau => match &mut spec.defense {
                DefenseKind::ShareLess { tau } => *tau = value as f32,
                _ => {
                    return Err(
                        "sweeping defense.tau needs a share-less defense on the base".to_string()
                    )
                }
            },
            SweepField::DefenseEpsilon => match &mut spec.defense {
                DefenseKind::Dp { epsilon } => *epsilon = Some(value),
                _ => {
                    return Err(
                        "sweeping defense.epsilon needs a DP defense on the base".to_string()
                    )
                }
            },
        }
        Ok(())
    }
}

/// One entry of a suite: a single scenario, or a generator that expands into
/// one scenario per sweep value. A suite is a list of *generators*, not a
/// flat scenario list — [`SuiteSpec::expanded`] materializes it.
#[derive(Debug, Clone, PartialEq)]
pub enum SuiteEntry {
    /// A single scenario, run as-is.
    One(ScenarioSpec),
    /// A parameterized sweep over one field.
    Sweep {
        /// The template scenario. Its `name` may contain a `{}` placeholder
        /// replaced by each sweep value; without one, `-<value>` is appended.
        base: ScenarioSpec,
        /// The swept field.
        field: SweepField,
        /// The values, in execution order.
        values: Vec<f64>,
    },
}

/// Instantiates a sweep scenario name from the base template.
fn sweep_name(template: &str, value: f64) -> String {
    let v = fmt_f64(value);
    if template.contains("{}") {
        template.replace("{}", &v)
    } else {
        format!("{template}-{v}")
    }
}

impl SuiteEntry {
    /// Expands the entry into concrete scenarios, validating each.
    ///
    /// # Errors
    ///
    /// Returns the first unrepresentable sweep value or validation failure.
    pub fn expand_into(&self, out: &mut Vec<ScenarioSpec>) -> Result<(), String> {
        match self {
            SuiteEntry::One(spec) => {
                spec.validate()?;
                out.push(spec.clone());
            }
            SuiteEntry::Sweep { base, field, values } => {
                if values.is_empty() {
                    return Err(format!("sweep `{}` has no values", base.name));
                }
                for &v in values {
                    let mut spec = base.clone();
                    field.apply(&mut spec, v).map_err(|e| format!("sweep `{}`: {e}", base.name))?;
                    spec.name = sweep_name(&base.name, v);
                    spec.validate()?;
                    out.push(spec);
                }
            }
        }
        Ok(())
    }

    /// Serializes the entry into its suite-document form.
    pub fn to_json(&self) -> Json {
        match self {
            SuiteEntry::One(spec) => spec.to_json(),
            SuiteEntry::Sweep { base, field, values } => {
                let sweep = ObjBuilder::new()
                    .str("field", field.name())
                    .value("values", Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()))
                    .build();
                match base.to_json() {
                    Json::Obj(mut pairs) => {
                        pairs.push(("sweep".to_string(), sweep));
                        Json::Obj(pairs)
                    }
                    other => other,
                }
            }
        }
    }
}

/// A named collection of scenario generators, run back to back into one
/// JSONL stream after [`SuiteSpec::expanded`] materializes the sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteSpec {
    /// Suite name (stamped on every record).
    pub name: String,
    /// The generators, in execution order.
    pub entries: Vec<SuiteEntry>,
}

impl SuiteSpec {
    /// A suite of plain scenarios (no sweeps).
    pub fn flat(name: impl Into<String>, scenarios: Vec<ScenarioSpec>) -> SuiteSpec {
        SuiteSpec {
            name: name.into(),
            entries: scenarios.into_iter().map(SuiteEntry::One).collect(),
        }
    }

    /// Materializes the suite: every sweep expanded, every scenario
    /// validated, names checked for uniqueness.
    ///
    /// # Errors
    ///
    /// Returns the first expansion or validation failure.
    pub fn expanded(&self) -> Result<Vec<ScenarioSpec>, String> {
        let mut scenarios = Vec::new();
        for entry in &self.entries {
            entry.expand_into(&mut scenarios)?;
        }
        if scenarios.is_empty() {
            return Err("suite has no scenarios".to_string());
        }
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != scenarios.len() {
            return Err("scenario names must be unique within a suite".to_string());
        }
        Ok(scenarios)
    }

    /// Parses a suite document:
    /// `{"suite": "name", "scale": "...", "seed": N, "scenarios": [...]}`.
    /// A scenario object may carry a `"sweep": {"field": ..., "values":
    /// [...]}` block turning it into a generator.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed scenario or field.
    pub fn parse(input: &str) -> Result<SuiteSpec, String> {
        let v = Json::parse(input)?;
        check_keys(&v, &["suite", "scale", "seed", "scenarios"], "suite")?;
        let name = match v.get("suite") {
            None => "unnamed".to_string(),
            Some(x) => x.as_str().ok_or("suite: `suite` must be a string")?.to_string(),
        };
        let default_scale = match v.get("scale") {
            None => Scale::Smoke,
            Some(x) => {
                let s = x.as_str().ok_or("suite: `scale` must be a string")?;
                Scale::parse(s).ok_or("suite: unknown `scale`")?
            }
        };
        let default_seed = match v.get("seed") {
            None => 42,
            Some(x) => x.as_u64().ok_or("suite: `seed` must be an integer below 2^53")?,
        };
        let raw =
            v.get("scenarios").and_then(Json::as_arr).ok_or("suite needs a `scenarios` array")?;
        if raw.is_empty() {
            return Err("suite has no scenarios".to_string());
        }
        let mut entries = Vec::with_capacity(raw.len());
        for s in raw {
            entries.push(parse_entry(s, default_scale, default_seed)?);
        }
        let suite = SuiteSpec { name, entries };
        // Expand eagerly so malformed sweeps and name collisions fail at
        // load time, not mid-run.
        suite.expanded()?;
        Ok(suite)
    }

    /// Serializes the suite into its JSON document form (sweeps stay
    /// sweeps, not expanded lists).
    pub fn to_json(&self) -> Json {
        ObjBuilder::new()
            .str("suite", &self.name)
            .value("scenarios", Json::Arr(self.entries.iter().map(SuiteEntry::to_json).collect()))
            .build()
    }
}

/// Parses one suite entry: a scenario object, optionally carrying a `sweep`
/// generator block.
fn parse_entry(v: &Json, default_scale: Scale, default_seed: u64) -> Result<SuiteEntry, String> {
    let Some(sweep) = v.get("sweep") else {
        return Ok(SuiteEntry::One(ScenarioSpec::from_json(v, default_scale, default_seed)?));
    };
    let ctx = format!("scenario `{}` sweep", v.get("name").and_then(Json::as_str).unwrap_or("?"));
    check_keys(sweep, &["field", "values"], &ctx)?;
    let field = sweep
        .get("field")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{ctx}: needs a string `field`"))?;
    let field =
        SweepField::parse(field).ok_or_else(|| format!("{ctx}: unknown field `{field}`"))?;
    let raw_values = sweep
        .get("values")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{ctx}: needs a `values` array"))?;
    let mut values = Vec::with_capacity(raw_values.len());
    for x in raw_values {
        values.push(x.as_f64().ok_or_else(|| format!("{ctx}: values must be numbers"))?);
    }
    if values.is_empty() {
        return Err(format!("{ctx}: needs at least one value"));
    }
    // The base spec is the object minus the generator block.
    let base_obj = match v {
        Json::Obj(pairs) => {
            Json::Obj(pairs.iter().filter(|(k, _)| k != "sweep").cloned().collect())
        }
        other => other.clone(),
    };
    let base = ScenarioSpec::from_json(&base_obj, default_scale, default_seed)?;
    Ok(SuiteEntry::Sweep { base, field, values })
}

/// The built-in suite: the three canonical deployment questions.
///
/// * `baseline-static` — the paper's own setting: federated GMF on
///   MovieLens, full participation, no dynamics.
/// * `churn-20pct` — the same workload under realistic availability: 20% of
///   the population offline in steady state plus a straggler tail.
/// * `colluding-sybils` — Rand-Gossip with a 4-node always-online sybil
///   coalition pooling observations.
pub fn builtin_suite(scale: Scale, seed: u64) -> SuiteSpec {
    let mut baseline =
        ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, scale);
    baseline.name = "baseline-static".to_string();
    baseline.seed = seed;

    let mut churn = ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, scale);
    churn.name = "churn-20pct".to_string();
    churn.seed = seed;
    churn.dynamics = churn_dynamics();

    let mut sybils =
        ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::RandGossip, scale);
    sybils.name = "colluding-sybils".to_string();
    sybils.seed = seed;
    sybils.dynamics = DynamicsSpec { sybils: 4, ..DynamicsSpec::default() };

    SuiteSpec::flat(format!("builtin-{scale}"), vec![baseline, churn, sybils])
}

/// The churn block shared by the dynamics-heavy built-ins: 20% offline in
/// steady state plus a straggler tail (the `churn-20pct` setting).
fn churn_dynamics() -> DynamicsSpec {
    DynamicsSpec {
        // Stationary offline fraction 0.05 / (0.05 + 0.2) = 20%.
        leave_prob: 0.05,
        join_prob: 0.2,
        initial_online: 0.9,
        straggler_fraction: 0.1,
        straggler_mean_delay: 2.0,
        ..DynamicsSpec::default()
    }
}

/// The participation sweep (Fig. 1 as a suite): federated GMF on MovieLens
/// with the per-round sample fraction swept from 10% to full participation.
/// One sweep generator, five scenarios — `participation-0.1` …
/// `participation-1`.
pub fn participation_sweep_suite(scale: Scale, seed: u64) -> SuiteSpec {
    let mut base = ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, scale);
    base.name = "participation-{}".to_string();
    base.seed = seed;
    SuiteSpec {
        name: format!("participation-sweep-{scale}"),
        entries: vec![SuiteEntry::Sweep {
            base,
            field: SweepField::Participation,
            values: vec![0.1, 0.25, 0.5, 0.75, 1.0],
        }],
    }
}

/// The defense × dynamics grid: every [`DefenseKind`] family crossed with
/// the three canonical dynamics (churn + stragglers, a heavy straggler tail,
/// an always-online sybil coalition). Sybil cells run Rand-Gossip (the FL
/// adversary is the server, so sybils are a gossip concept); the others run
/// FedAvg. Cell names are `<defense>-x-<dynamics>`.
pub fn defense_dynamics_grid_suite(scale: Scale, seed: u64) -> SuiteSpec {
    let defenses: [(&str, DefenseKind); 3] = [
        ("none", DefenseKind::None),
        ("shareless", DefenseKind::ShareLess { tau: 0.5 }),
        ("dp10", DefenseKind::Dp { epsilon: Some(10.0) }),
    ];
    let stragglers = DynamicsSpec {
        straggler_fraction: 0.4,
        straggler_mean_delay: 3.0,
        ..DynamicsSpec::default()
    };
    let sybils = DynamicsSpec { sybils: 4, ..DynamicsSpec::default() };
    let dynamics: [(&str, ProtocolKind, DynamicsSpec); 3] = [
        ("churn", ProtocolKind::Fl, churn_dynamics()),
        ("stragglers", ProtocolKind::Fl, stragglers),
        ("sybils", ProtocolKind::RandGossip, sybils),
    ];
    let mut scenarios = Vec::with_capacity(defenses.len() * dynamics.len());
    for (dyn_name, protocol, d) in &dynamics {
        for (def_name, defense) in &defenses {
            let mut s = ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, *protocol, scale);
            s.name = format!("{def_name}-x-{dyn_name}");
            s.seed = seed;
            s.defense = *defense;
            s.dynamics = *d;
            scenarios.push(s);
        }
    }
    SuiteSpec::flat(format!("defense-dynamics-grid-{scale}"), scenarios)
}

/// Pers-Gossip under churn: does view personalization amplify or dampen the
/// attack when the population moves? Three all-placements runs —
/// personalized views over a static population, the same under churn, and a
/// Rand-Gossip churn control.
pub fn pers_gossip_churn_suite(scale: Scale, seed: u64) -> SuiteSpec {
    let mut pers_static =
        ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::PersGossip, scale);
    pers_static.name = "pers-static".to_string();
    pers_static.seed = seed;

    let mut pers_churn = pers_static.clone();
    pers_churn.name = "pers-churn".to_string();
    pers_churn.dynamics = churn_dynamics();

    let mut rand_churn =
        ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::RandGossip, scale);
    rand_churn.name = "rand-churn".to_string();
    rand_churn.seed = seed;
    rand_churn.dynamics = churn_dynamics();

    SuiteSpec::flat(format!("pers-gossip-churn-{scale}"), vec![pers_static, pers_churn, rand_churn])
}

/// Adaptive sybil placement under churn: the same 4-node always-online
/// Rand-Gossip coalition with static (evenly spaced), degree-ranked and
/// coverage-greedy placement, everything else held equal. The adaptive cells
/// spend the first 10 rounds in passive traffic observation, then relocate —
/// the deliverable comparison is AAC(adaptive) ≥ AAC(static) at equal
/// coalition size.
pub fn adaptive_sybils_suite(scale: Scale, seed: u64) -> SuiteSpec {
    let placements = [
        ("placement-static", PlacementStrategy::Static),
        ("placement-degree", PlacementStrategy::Degree),
        ("placement-greedy", PlacementStrategy::CoverageGreedy),
    ];
    let scenarios = placements
        .into_iter()
        .map(|(name, placement)| {
            let mut s = ScenarioSpec::new(
                Preset::MovieLens,
                ModelKind::Gmf,
                ProtocolKind::RandGossip,
                scale,
            );
            s.name = name.to_string();
            s.seed = seed;
            s.dynamics =
                DynamicsSpec { sybils: 4, placement, placement_warmup: 10, ..churn_dynamics() };
            s
        })
        .collect();
    SuiteSpec::flat(format!("adaptive-sybils-{scale}"), scenarios)
}

/// Builds a built-in suite at a scale and seed.
type SuiteBuilder = fn(Scale, u64) -> SuiteSpec;

/// Every built-in suite, by the name [`named_suite`] (and the CLI's
/// `--suite` flag) accepts.
pub const BUILTIN_SUITES: [(&str, SuiteBuilder); 5] = [
    ("builtin", builtin_suite),
    ("participation-sweep", participation_sweep_suite),
    ("defense-dynamics-grid", defense_dynamics_grid_suite),
    ("pers-gossip-churn", pers_gossip_churn_suite),
    ("adaptive-sybils", adaptive_sybils_suite),
];

/// Looks up a built-in suite by name.
pub fn named_suite(name: &str, scale: Scale, seed: u64) -> Option<SuiteSpec> {
    BUILTIN_SUITES.iter().find(|(n, _)| *n == name).map(|(_, build)| build(scale, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_suite_has_three_valid_scenarios() {
        let suite = builtin_suite(Scale::Smoke, 7);
        let scenarios = suite.expanded().unwrap();
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[0].name, "baseline-static");
        assert!(scenarios[1].dynamics.leave_prob > 0.0);
        assert_eq!(scenarios[2].coalition_size(), 4);
    }

    #[test]
    fn participation_sweep_expands_one_generator_into_five() {
        let suite = participation_sweep_suite(Scale::Smoke, 7);
        assert_eq!(suite.entries.len(), 1, "the sweep is a generator, not a flat list");
        let scenarios = suite.expanded().unwrap();
        assert_eq!(scenarios.len(), 5);
        assert_eq!(scenarios[0].name, "participation-0.1");
        assert_eq!(scenarios[4].name, "participation-1");
        let fracs: Vec<f64> = scenarios.iter().map(|s| s.dynamics.participation).collect();
        assert_eq!(fracs, vec![0.1, 0.25, 0.5, 0.75, 1.0]);
        // Everything but the swept field is shared.
        for s in &scenarios {
            assert_eq!(s.protocol, ProtocolKind::Fl);
            assert_eq!(s.seed, 7);
        }
    }

    #[test]
    fn defense_grid_crosses_every_defense_with_every_dynamics() {
        let suite = defense_dynamics_grid_suite(Scale::Smoke, 3);
        let scenarios = suite.expanded().unwrap();
        assert_eq!(scenarios.len(), 9);
        let sybil_cells: Vec<&ScenarioSpec> =
            scenarios.iter().filter(|s| s.dynamics.sybils > 0).collect();
        assert_eq!(sybil_cells.len(), 3);
        assert!(sybil_cells.iter().all(|s| s.protocol.is_gossip()));
        assert_eq!(
            scenarios.iter().filter(|s| matches!(s.defense, DefenseKind::Dp { .. })).count(),
            3
        );
        assert!(scenarios.iter().any(|s| s.name == "shareless-x-churn"));
    }

    #[test]
    fn pers_gossip_churn_suite_pairs_protocols_under_identical_dynamics() {
        let suite = pers_gossip_churn_suite(Scale::Smoke, 11);
        let scenarios = suite.expanded().unwrap();
        assert_eq!(scenarios.len(), 3);
        let pers_churn = scenarios.iter().find(|s| s.name == "pers-churn").unwrap();
        let rand_churn = scenarios.iter().find(|s| s.name == "rand-churn").unwrap();
        assert_eq!(pers_churn.protocol, ProtocolKind::PersGossip);
        assert_eq!(rand_churn.protocol, ProtocolKind::RandGossip);
        assert_eq!(pers_churn.dynamics, rand_churn.dynamics, "churn control must match");
        assert!(pers_churn.dynamics.leave_prob > 0.0);
    }

    #[test]
    fn every_named_suite_expands_and_validates() {
        for (name, _) in BUILTIN_SUITES {
            let suite = named_suite(name, Scale::Smoke, 42).unwrap();
            let scenarios = suite.expanded().unwrap();
            assert!(!scenarios.is_empty(), "{name} is empty");
        }
        assert!(named_suite("nope", Scale::Smoke, 42).is_none());
    }

    #[test]
    fn sweep_blocks_parse_and_expand() {
        let doc = r#"{"suite": "s", "scale": "smoke", "seed": 5, "scenarios": [
            {"name": "p{}", "sweep": {"field": "dynamics.participation",
                                      "values": [0.5, 1.0]}},
            {"name": "reps", "protocol": "rand-gossip",
             "sweep": {"field": "seed", "values": [1, 2, 3]}}
        ]}"#;
        let suite = SuiteSpec::parse(doc).unwrap();
        assert_eq!(suite.entries.len(), 2);
        let scenarios = suite.expanded().unwrap();
        assert_eq!(scenarios.len(), 5);
        assert_eq!(scenarios[0].name, "p0.5");
        assert_eq!(scenarios[1].name, "p1");
        assert_eq!(scenarios[2].name, "reps-1");
        assert_eq!(scenarios[2].seed, 1);
        assert_eq!(scenarios[4].seed, 3);
        // Sweeps survive the JSON roundtrip as generators.
        let reparsed = SuiteSpec::parse(&suite.to_json().render()).unwrap();
        assert_eq!(reparsed.entries, suite.entries);
    }

    #[test]
    fn non_finite_straggler_delay_is_refused_by_name() {
        // `1e400` parses to infinity; a delay no timer can hold is refused
        // at load time instead of saturating every straggler's timer.
        let doc = r#"{"suite": "s", "scenarios": [{"name": "x", "dynamics":
            {"straggler_fraction": 0.5, "straggler_mean_delay": 1e400}}]}"#;
        let err = SuiteSpec::parse(doc).unwrap_err();
        assert_eq!(err, "x: straggler_mean_delay must be finite");
    }

    #[test]
    fn colluders_key_is_refused() {
        // `dynamics.sybils` is the one coalition knob; the retired
        // `colluders` key must fail by name, not fall back to a default.
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "protocol": "rand-gossip", "colluders": 3}]}"#;
        let err = SuiteSpec::parse(doc).unwrap_err();
        assert!(err.contains("unknown key `colluders`"), "{err}");
        let doc = r#"{"suite": "s", "scenarios": [{"name": "x", "protocol": "rand-gossip",
            "sweep": {"field": "colluders", "values": [2]}}]}"#;
        let err = SuiteSpec::parse(doc).unwrap_err();
        assert!(err.contains("unknown field `colluders`"), "{err}");
    }

    #[test]
    fn malformed_sweeps_fail_at_parse_time() {
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "sweep": {"field": "bogus", "values": [1]}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("unknown field"));
        // A non-dynamics field under the dynamics prefix must not silently
        // resolve to the bare field.
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "sweep": {"field": "dynamics.seed", "values": [1]}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("unknown field"));
        assert!(SweepField::parse("dynamics.beta").is_none());
        assert_eq!(SweepField::parse("participation"), Some(SweepField::Participation));
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "sweep": {"field": "seed", "values": []}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("value"));
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "sweep": {"field": "seed", "values": [1.5]}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("integer"));
        // Duplicate expanded names collide loudly.
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "sweep": {"field": "seed", "values": [1, 1]}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("unique"));
        // Sweeping a defense knob the base doesn't carry.
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "sweep": {"field": "defense.tau", "values": [0.5]}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("share-less"));
        // Expanded specs are validated: participation 0 is out of range.
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "sweep": {"field": "dynamics.participation", "values": [0.0]}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("participation"));
    }

    #[test]
    fn spec_json_roundtrip() {
        let suite = builtin_suite(Scale::Smoke, 9);
        let doc = suite.to_json().render();
        let reparsed = SuiteSpec::parse(&doc).unwrap();
        assert_eq!(reparsed, suite);
    }

    #[test]
    fn suite_parsing_applies_defaults() {
        let doc = r#"{"suite": "mini", "scale": "smoke", "seed": 5,
                      "scenarios": [{"name": "a"}]}"#;
        let suite = SuiteSpec::parse(doc).unwrap();
        let scenarios = suite.expanded().unwrap();
        let s = &scenarios[0];
        assert_eq!(s.seed, 5);
        assert_eq!(s.scale, Scale::Smoke);
        assert_eq!(s.model, ModelKind::Gmf);
        assert!(s.dynamics.is_static());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut s =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Prme, ProtocolKind::Fl, Scale::Smoke);
        assert!(s.validate().unwrap_err().contains("PRME"));
        s.model = ModelKind::Gmf;
        s.dynamics.sybils = 3;
        assert!(s.validate().unwrap_err().contains("gossip"));
        s.protocol = ProtocolKind::RandGossip;
        s.validate().unwrap();
        s.dynamics.leave_prob = 0.5;
        s.dynamics.join_prob = 0.0;
        assert!(s.validate().unwrap_err().contains("drains"));
    }

    #[test]
    fn placement_fields_parse_validate_and_roundtrip() {
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "protocol": "rand-gossip",
            "dynamics": {"sybils": 3, "placement": "coverage-greedy", "placement_warmup": 7}}]}"#;
        let suite = SuiteSpec::parse(doc).unwrap();
        let s = &suite.expanded().unwrap()[0];
        assert_eq!(s.dynamics.placement, PlacementStrategy::CoverageGreedy);
        assert_eq!(s.dynamics.placement_warmup, 7);
        let reparsed = SuiteSpec::parse(&suite.to_json().render()).unwrap();
        assert_eq!(reparsed, suite);
        // Adaptive placement without a sybil coalition is rejected…
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "protocol": "rand-gossip",
            "dynamics": {"placement": "degree"}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("sybils"));
        // …as are a zero-round warm-up, an unknown strategy and a mistyped
        // field.
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "protocol": "rand-gossip",
            "dynamics": {"sybils": 2, "placement": "degree", "placement_warmup": 0}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("warm-up"));
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "protocol": "rand-gossip",
            "dynamics": {"sybils": 2, "placement": "closest"}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("placement"));
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "protocol": "rand-gossip",
            "dynamics": {"sybils": 2, "placement": 3}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("string"));
        // Static placement stays the default and is fingerprint-visible.
        let a = ScenarioSpec::new(
            Preset::MovieLens,
            ModelKind::Gmf,
            ProtocolKind::RandGossip,
            Scale::Smoke,
        );
        let mut b = a.clone();
        b.dynamics.sybils = 2;
        b.dynamics.placement = PlacementStrategy::Degree;
        assert_eq!(a.dynamics.placement, PlacementStrategy::Static);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn placement_warmup_is_sweepable() {
        let doc = r#"{"suite": "t", "scenarios": [{"name": "w{}", "protocol": "rand-gossip",
            "dynamics": {"sybils": 2, "placement": "degree"},
            "sweep": {"field": "dynamics.placement_warmup", "values": [5, 15]}}]}"#;
        let scenarios = SuiteSpec::parse(doc).unwrap().expanded().unwrap();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].dynamics.placement_warmup, 5);
        assert_eq!(scenarios[1].dynamics.placement_warmup, 15);
        assert_eq!(SweepField::parse("placement_warmup"), Some(SweepField::PlacementWarmup));
        assert!(SweepField::parse("dynamics.placement").is_none(), "the strategy is not numeric");
    }

    #[test]
    fn adaptive_sybils_suite_holds_everything_but_placement_equal() {
        let scenarios = adaptive_sybils_suite(Scale::Smoke, 11).expanded().unwrap();
        assert_eq!(scenarios.len(), 3);
        let base = &scenarios[0];
        assert_eq!(base.dynamics.placement, PlacementStrategy::Static);
        for s in &scenarios[1..] {
            assert!(s.dynamics.placement.is_adaptive());
            let mut twin = s.clone();
            twin.name = base.name.clone();
            twin.dynamics.placement = base.dynamics.placement;
            assert_eq!(&twin, base, "{} differs from static beyond the placement", s.name);
        }
    }

    #[test]
    fn fingerprint_tracks_spec_changes() {
        let a =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed = 43;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let doc = r#"{"suite": "dup", "scenarios": [{"name": "x"}, {"name": "x"}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("unique"));
    }

    #[test]
    fn mistyped_fields_fail_loudly() {
        // Present-but-wrong-typed fields must error, not fall back to
        // defaults — a string seed would otherwise silently run seed 42.
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "seed": "43"}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("integer"));
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "seed": 9007199254740993}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("2^53"));
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "model": 5}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("string"));
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "beta": "0.5"}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("number"));
        let doc = r#"{"suite": "t", "scenarios":
            [{"name": "x", "dynamics": {"leave_prob": "lots"}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("number"));
        let doc = r#"{"suite": "t", "seed": "42", "scenarios": [{"name": "x"}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("integer"));
        let doc = r#"{"suite": "t", "scenarios":
            [{"name": "x", "defense": {"kind": 3}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("string"));
    }

    #[test]
    fn unknown_keys_fail_loudly() {
        // A typo in a dynamics field must not silently run a static
        // population.
        let doc = r#"{"suite": "t", "scenarios":
            [{"name": "x", "dynamics": {"straggler_frac": 0.3}}]}"#;
        let err = SuiteSpec::parse(doc).unwrap_err();
        assert!(err.contains("straggler_frac"), "{err}");
        let doc = r#"{"suite": "t", "scenarios": [{"name": "x", "colluderz": 3}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("colluderz"));
        let doc = r#"{"suite": "t", "sede": 1, "scenarios": [{"name": "x"}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("sede"));
    }

    #[test]
    fn million_is_an_unknown_scale() {
        let obj = Json::parse(r#"{"name": "x", "scale": "million"}"#).unwrap();
        let err = ScenarioSpec::from_json(&obj, Scale::Smoke, 1).unwrap_err();
        assert!(err.contains("unknown `scale`"), "{err}");
        let doc = r#"{"suite": "t", "scale": "million", "scenarios": [{"name": "x"}]}"#;
        let err = SuiteSpec::parse(doc).unwrap_err();
        assert!(err.contains("unknown `scale`"), "{err}");
    }
}

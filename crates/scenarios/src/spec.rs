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
use cia_defenses::RdpAccountant;
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
    /// Scenario name (JSONL records, and a resume matching them, key on it).
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
        for f in &FIELDS {
            if let Some(want) = (f.get)(self).and_then(|x| f.range.refuse(x)) {
                return Err(format!("{}: {} must be {want}", self.name, f.split().1));
            }
        }
        match self.defense {
            DefenseKind::ShareLess { tau } if !(tau > 0.0 && tau.is_finite()) => {
                return Err(format!(
                    "{}: defense tau {tau} must be positive and finite",
                    self.name
                ));
            }
            DefenseKind::Dp { epsilon: Some(eps) } => {
                // The runner calibrates the same budget over the same rounds.
                let rounds = ScaleParams::of(self.scale).rounds(self.protocol);
                RdpAccountant::calibrate_noise(eps, 1e-6, rounds, 1.0)
                    .map_err(|e| format!("{}: defense epsilon: {e}", self.name))?;
            }
            _ => {}
        }
        if self.model == ModelKind::Prme && !self.preset.has_sequences() {
            return Err(format!(
                "{}: PRME needs check-in sequences; {} has none",
                self.name,
                self.preset.name()
            ));
        }
        if d.leave_prob > 0.0 && d.join_prob == 0.0 {
            return Err(format!(
                "{}: leave_prob > 0 with join_prob = 0 drains the population",
                self.name
            ));
        }
        if d.straggler_fraction > 0.0 && d.straggler_mean_delay < 1.0 {
            return Err(format!("{}: straggler_mean_delay must be ≥ 1 round", self.name));
        }
        if d.sybils > 0 && !self.protocol.is_gossip() {
            return Err(format!(
                "{}: dynamics.sybils needs a gossip protocol (the FL adversary is the server)",
                self.name
            ));
        }
        // The population the setup generates.
        let n = self.preset.dims(self.scale).0;
        if let Some(k) = self.k_override {
            crate::setup::check_k(k, n).map_err(|e| format!("{}: {e}", self.name))?;
        }
        if d.sybils >= n {
            return Err(format!(
                "{}: dynamics.sybils {} must be smaller than the population ({n} users)",
                self.name, d.sybils
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
                    "{}: adaptive placement needs a warm-up window of at least one round \
                     (dynamics.placement_warmup)",
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
        let name = parse_str(Some(v), "name", "scenario", |s| Some(s.to_string()))?
            .ok_or("scenario needs a string `name`")?;
        let ctx = format!("scenario `{name}`");
        let fail = |msg: &str| format!("{ctx}: {msg}");
        let top = ["name", "preset", "model", "protocol", "defense", "scale", "dynamics"];
        check_keys(v, "", &top, &ctx)?;
        if let Some(d) = v.get("defense") {
            check_keys(d, "defense", &["kind"], &format!("{ctx} defense"))?;
        }
        if let Some(d) = v.get("dynamics") {
            check_keys(d, "dynamics", &["placement"], &format!("{ctx} dynamics"))?;
        }
        let preset = parse_str(Some(v), "preset", &ctx, parse_preset)?.unwrap_or(Preset::MovieLens);
        let model = parse_str(Some(v), "model", &ctx, ModelKind::parse)?.unwrap_or(ModelKind::Gmf);
        let protocol =
            parse_str(Some(v), "protocol", &ctx, ProtocolKind::parse)?.unwrap_or(ProtocolKind::Fl);
        let scale = parse_str(Some(v), "scale", &ctx, Scale::parse)?.unwrap_or(default_scale);
        // A defense's numeric knob is read from the field table below: a
        // share-less τ that is still NaN after the walk was never given.
        let defense = parse_str(v.get("defense"), "kind", &ctx, |kind| match kind {
            "none" => Some(DefenseKind::None),
            "share-less" | "shareless" => Some(DefenseKind::ShareLess { tau: f32::NAN }),
            "dp" => Some(DefenseKind::Dp { epsilon: None }),
            _ => None,
        })?;
        let placement = parse_str(v.get("dynamics"), "placement", &ctx, PlacementStrategy::parse)?
            .unwrap_or(PlacementStrategy::Static);
        let mut spec = ScenarioSpec {
            name: name.clone(),
            defense: defense.unwrap_or(DefenseKind::None),
            seed: default_seed,
            dynamics: DynamicsSpec { placement, ..DynamicsSpec::default() },
            ..ScenarioSpec::new(preset, model, protocol, scale)
        };
        for f in &FIELDS {
            let (block, key) = f.split();
            let obj = if block.is_empty() { Some(v) } else { v.get(block) };
            let Some(x) = obj.and_then(|o| o.get(key)) else { continue };
            // `fmt_f64` renders a non-finite number as `null`: it reads back
            // as +∞ (for `defense.epsilon`, ε = ∞).
            let value = match x {
                Json::Null => f64::INFINITY,
                _ => x.as_f64().ok_or_else(|| fail(&f.type_error()))?,
            };
            f.apply(&mut spec, value).map_err(|e| fail(&e))?;
        }
        if matches!(spec.defense, DefenseKind::ShareLess { tau } if tau.is_nan()) {
            return Err(fail("share-less defense needs `tau`"));
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// Rejects a value that is not an object, and keys outside the schema —
/// declarative configs must fail loudly on typos, not silently fall back to
/// defaults. The schema is `fixed` plus the keys of the [`FIELDS`] under
/// `block`: `""` for a scenario object, `"dynamics"` or `"defense"` for its
/// blocks; no field lives under any other name.
fn check_keys(v: &Json, block: &str, fixed: &[&str], ctx: &str) -> Result<(), String> {
    let table = FIELDS.iter().map(Field::split).filter(|(b, _)| *b == block).map(|(_, key)| key);
    let allowed: Vec<&str> = fixed.iter().copied().chain(table).collect();
    let Json::Obj(pairs) = v else { return Err(format!("{ctx}: must be a JSON object")) };
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("{ctx}: unknown key `{k}` (allowed: {})", allowed.join(", ")));
        }
    }
    Ok(())
}

/// The string at `key` of `obj`, parsed by `parse`: `None` when absent, an
/// error naming the key when it is not a string or does not parse.
fn parse_str<T>(
    obj: Option<&Json>,
    key: &str,
    ctx: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(x) = obj.and_then(|o| o.get(key)) else { return Ok(None) };
    let s = x.as_str().ok_or_else(|| format!("{ctx}: `{key}` must be a string"))?;
    parse(s).map(Some).ok_or_else(|| format!("{ctx}: unknown `{key}`"))
}

fn parse_preset(s: &str) -> Option<Preset> {
    match s.to_ascii_lowercase().as_str() {
        "movielens" => Some(Preset::MovieLens),
        "foursquare" => Some(Preset::Foursquare),
        "gowalla" => Some(Preset::Gowalla),
        _ => None,
    }
}

/// The values a numeric field accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Range {
    /// `[0, 1]`.
    Unit,
    /// `(0, 1]`.
    OpenUnit,
    /// Any finite number.
    Finite,
    /// An integer in `[0, 2^53)`, the range a JSON number holds exactly.
    Count,
    /// Checked by its own rule in [`ScenarioSpec::validate`] (τ, ε).
    Own,
}

impl Range {
    /// What `x` must be when it falls outside a float range; `None` when it
    /// fits, and always for [`Range::Count`] and [`Range::Own`].
    fn refuse(self, x: f64) -> Option<&'static str> {
        match self {
            Range::Unit if !(0.0..=1.0).contains(&x) => Some("in [0, 1]"),
            Range::OpenUnit if !(x > 0.0 && x <= 1.0) => Some("in (0, 1]"),
            Range::Finite if !x.is_finite() => Some("finite"),
            _ => None,
        }
    }
}

/// One numeric scenario field: its document path, the values it accepts and
/// how to read and write it on a [`ScenarioSpec`]. `from_json`, `validate`
/// and [`SweepField`] all walk [`FIELDS`]; `to_json` writes each field by
/// hand, in the document's key order.
struct Field {
    /// `"<key>"` at the scenario's top level, `"<block>.<key>"` inside one.
    path: &'static str,
    range: Range,
    /// The current value; `None` when the spec carries no such value.
    get: fn(&ScenarioSpec) -> Option<f64>,
    /// Writes the value; refuses a knob the spec's defense lacks.
    set: fn(&mut ScenarioSpec, f64) -> Result<(), String>,
}

impl Field {
    /// The path split into its block (`""` at the top level) and key.
    fn split(&self) -> (&'static str, &'static str) {
        self.path.split_once('.').unwrap_or(("", self.path))
    }

    fn type_error(&self) -> String {
        let kind = if self.range == Range::Count { "an integer below 2^53" } else { "a number" };
        format!("`{}` must be {kind}", self.path)
    }

    /// Writes `value`, refusing a count that is not an integer below 2^53
    /// and a knob the spec's defense lacks, by the field's path.
    fn apply(&self, spec: &mut ScenarioSpec, value: f64) -> Result<(), String> {
        if self.range == Range::Count && Json::Num(value).as_u64().is_none() {
            return Err(self.type_error());
        }
        (self.set)(spec, value).map_err(|e| format!("`{}` {e}", self.path))
    }
}

/// Every numeric scenario field, each spelled once.
// A setter assigns its slot inside `Ok(..)`: the assignment is the `()` it
// returns, which `unit_arg` would otherwise flag in every row.
#[allow(clippy::unit_arg)]
const FIELDS: [Field; 13] = [
    Field {
        path: "dynamics.participation",
        range: Range::OpenUnit,
        get: |s| Some(s.dynamics.participation),
        set: |s, v| Ok(s.dynamics.participation = v),
    },
    Field {
        path: "dynamics.leave_prob",
        range: Range::Unit,
        get: |s| Some(s.dynamics.leave_prob),
        set: |s, v| Ok(s.dynamics.leave_prob = v),
    },
    Field {
        path: "dynamics.join_prob",
        range: Range::Unit,
        get: |s| Some(s.dynamics.join_prob),
        set: |s, v| Ok(s.dynamics.join_prob = v),
    },
    Field {
        path: "dynamics.initial_online",
        range: Range::OpenUnit,
        get: |s| Some(s.dynamics.initial_online),
        set: |s, v| Ok(s.dynamics.initial_online = v),
    },
    Field {
        path: "dynamics.straggler_fraction",
        range: Range::Unit,
        get: |s| Some(s.dynamics.straggler_fraction),
        set: |s, v| Ok(s.dynamics.straggler_fraction = v),
    },
    Field {
        path: "dynamics.straggler_mean_delay",
        range: Range::Finite,
        get: |s| Some(s.dynamics.straggler_mean_delay),
        set: |s, v| Ok(s.dynamics.straggler_mean_delay = v),
    },
    Field {
        path: "dynamics.sybils",
        range: Range::Count,
        get: |s| Some(s.dynamics.sybils as f64),
        set: |s, v| Ok(s.dynamics.sybils = v as usize),
    },
    Field {
        path: "dynamics.placement_warmup",
        range: Range::Count,
        get: |s| Some(s.dynamics.placement_warmup as f64),
        set: |s, v| Ok(s.dynamics.placement_warmup = v as u64),
    },
    Field {
        path: "beta",
        range: Range::Unit,
        get: |s| Some(f64::from(s.beta)),
        set: |s, v| Ok(s.beta = v as f32),
    },
    Field {
        path: "k",
        range: Range::Count,
        get: |s| s.k_override.map(|k| k as f64),
        set: |s, v| Ok(s.k_override = Some(v as usize)),
    },
    Field {
        path: "seed",
        range: Range::Count,
        get: |s| Some(s.seed as f64),
        set: |s, v| Ok(s.seed = v as u64),
    },
    Field {
        path: "defense.tau",
        range: Range::Own,
        get: |s| match s.defense {
            DefenseKind::ShareLess { tau } => Some(f64::from(tau)),
            _ => None,
        },
        set: |s, v| match &mut s.defense {
            DefenseKind::ShareLess { tau } => Ok(*tau = v as f32),
            _ => Err("needs a share-less defense".to_string()),
        },
    },
    Field {
        path: "defense.epsilon",
        range: Range::Own,
        get: |s| if let DefenseKind::Dp { epsilon } = s.defense { epsilon } else { None },
        // ε = +∞ is the noiseless `None`.
        set: |s, v| match &mut s.defense {
            DefenseKind::Dp { epsilon } => Ok(*epsilon = (v < f64::INFINITY).then_some(v)),
            _ => Err("needs a DP defense".to_string()),
        },
    },
];

/// A numeric scenario field a sweep may range over: an index into the
/// field table. Integer-valued fields reject fractional sweep values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepField(usize);

impl SweepField {
    /// The field's path, as suite documents spell it.
    pub fn name(self) -> &'static str {
        FIELDS[self.0].path
    }

    /// Parses a field path. A `dynamics.*` or `defense.*` field also answers
    /// to its bare key, but a top-level field takes no prefix:
    /// `dynamics.seed` must fail loudly, not silently sweep the global seed.
    pub fn parse(s: &str) -> Option<SweepField> {
        FIELDS
            .iter()
            .position(|f| f.path == s || f.path.contains('.') && f.split().1 == s)
            .map(SweepField)
    }

    /// Writes `value` into the field of `spec`.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is not representable (fractional
    /// integer, negative count) or the base spec lacks the swept defense.
    pub fn apply(self, spec: &mut ScenarioSpec, value: f64) -> Result<(), String> {
        FIELDS[self.0].apply(spec, value)
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
                let mut json = base.to_json();
                if let Json::Obj(pairs) = &mut json {
                    pairs.push(("sweep".to_string(), sweep));
                }
                json
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
        check_keys(&v, "suite", &["suite", "scale", "seed", "scenarios"], "suite")?;
        let name = parse_str(Some(&v), "suite", "suite", |s| Some(s.to_string()))?;
        let default_scale = parse_str(Some(&v), "scale", "suite", Scale::parse)?;
        let default_seed = match v.get("seed") {
            None => 42,
            Some(x) => x.as_u64().ok_or("suite: `seed` must be an integer below 2^53")?,
        };
        let raw =
            v.get("scenarios").and_then(Json::as_arr).ok_or("suite needs a `scenarios` array")?;
        let default_scale = default_scale.unwrap_or(Scale::Smoke);
        let entries = raw.iter().map(|s| parse_entry(s, default_scale, default_seed));
        let suite = SuiteSpec {
            name: name.unwrap_or_else(|| "unnamed".to_string()),
            entries: entries.collect::<Result<_, _>>()?,
        };
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
    check_keys(sweep, "sweep", &["field", "values"], &ctx)?;
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
    let sybils = DynamicsSpec { sybils: 4, ..DynamicsSpec::default() };
    let scenarios = vec![
        movielens_gmf("baseline-static", ProtocolKind::Fl, DynamicsSpec::default(), scale, seed),
        movielens_gmf("churn-20pct", ProtocolKind::Fl, churn_dynamics(), scale, seed),
        movielens_gmf("colluding-sybils", ProtocolKind::RandGossip, sybils, scale, seed),
    ];
    SuiteSpec::flat(format!("builtin-{scale}"), scenarios)
}

/// A GMF-on-MovieLens scenario, the workload every built-in suite varies.
fn movielens_gmf(
    name: &str,
    protocol: ProtocolKind,
    dynamics: DynamicsSpec,
    scale: Scale,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        seed,
        dynamics,
        ..ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, protocol, scale)
    }
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
    let base =
        movielens_gmf("participation-{}", ProtocolKind::Fl, DynamicsSpec::default(), scale, seed);
    SuiteSpec {
        name: format!("participation-sweep-{scale}"),
        entries: vec![SuiteEntry::Sweep {
            base,
            field: SweepField::parse("dynamics.participation").expect("a table field"),
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
    for (dyn_name, protocol, d) in dynamics {
        for (def_name, defense) in defenses {
            let name = format!("{def_name}-x-{dyn_name}");
            scenarios
                .push(ScenarioSpec { defense, ..movielens_gmf(&name, protocol, d, scale, seed) });
        }
    }
    SuiteSpec::flat(format!("defense-dynamics-grid-{scale}"), scenarios)
}

/// Pers-Gossip under churn: does view personalization amplify or dampen the
/// attack when the population moves? Three all-placements runs —
/// personalized views over a static population, the same under churn, and a
/// Rand-Gossip churn control.
pub fn pers_gossip_churn_suite(scale: Scale, seed: u64) -> SuiteSpec {
    let (pers, static_pop) = (ProtocolKind::PersGossip, DynamicsSpec::default());
    let scenarios = vec![
        movielens_gmf("pers-static", pers, static_pop, scale, seed),
        movielens_gmf("pers-churn", pers, churn_dynamics(), scale, seed),
        movielens_gmf("rand-churn", ProtocolKind::RandGossip, churn_dynamics(), scale, seed),
    ];
    SuiteSpec::flat(format!("pers-gossip-churn-{scale}"), scenarios)
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
            let d = DynamicsSpec { sybils: 4, placement, placement_warmup: 10, ..churn_dynamics() };
            movielens_gmf(name, ProtocolKind::RandGossip, d, scale, seed)
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
        assert_eq!(
            SweepField::parse("participation").map(SweepField::name),
            Some("dynamics.participation")
        );
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
    fn validation_rejects_hostile_defense_knobs() {
        // τ that is not positive or not finite, also when a sweep sets it.
        let mut s =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        for tau in [-1.0, 0.0, f32::NAN, f32::INFINITY] {
            s.defense = DefenseKind::ShareLess { tau };
            assert!(s.validate().unwrap_err().contains("defense tau"), "{tau}");
        }
        let doc = r#"{"suite": "s", "scenarios": [{"name": "x",
            "defense": {"kind": "share-less", "tau": 0.5},
            "sweep": {"field": "defense.tau", "values": [0.5, -1]}}]}"#;
        assert!(SuiteSpec::parse(doc).unwrap_err().contains("defense tau -1"));
        // ε below what any noise multiplier reaches is refused, not a panic.
        s.defense = DefenseKind::Dp { epsilon: Some(1e-4) };
        let err = s.validate().unwrap_err();
        assert!(err.contains("defense epsilon") && err.contains("cannot reach"), "{err}");
        s.defense = DefenseKind::Dp { epsilon: Some(10.0) };
        s.validate().unwrap();
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
        // Static placement stays the default and shows in the document.
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
        assert_ne!(a.to_json().render(), b.to_json().render());
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
        assert_eq!(
            SweepField::parse("placement_warmup").map(SweepField::name),
            Some("dynamics.placement_warmup")
        );
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
    fn every_table_field_survives_to_json() {
        // A field added to `FIELDS` but not to `to_json` reparses as its
        // default: set each one off its default, render, reparse, compare.
        for f in &FIELDS {
            let value = match f.range {
                Range::Unit | Range::OpenUnit => 0.25,
                Range::Count => 7.0,
                Range::Finite | Range::Own => 5.0,
            };
            let mut applied = 0;
            for defense in [DefenseKind::ShareLess { tau: 0.5 }, DefenseKind::Dp { epsilon: None }]
            {
                let mut spec = ScenarioSpec::new(
                    Preset::MovieLens,
                    ModelKind::Gmf,
                    ProtocolKind::RandGossip,
                    Scale::Smoke,
                );
                spec.defense = defense;
                assert_ne!((f.get)(&spec), Some(value), "{}: the value is its default", f.path);
                if f.apply(&mut spec, value).is_err() {
                    continue;
                }
                let doc = SuiteSpec::flat("t", vec![spec]).to_json().render();
                let back = SuiteSpec::parse(&doc).unwrap().expanded().unwrap();
                assert_eq!((f.get)(&back[0]), Some(value), "{} lost in {doc}", f.path);
                applied += 1;
            }
            assert!(applied > 0, "{} applies to no base", f.path);
        }
    }

    #[test]
    fn a_tau_under_a_dp_defense_is_refused_by_name() {
        let doc = r#"{"suite": "s", "scenarios": [{"name": "x",
            "defense": {"kind": "dp", "epsilon": 10, "tau": 0.3}}]}"#;
        let err = SuiteSpec::parse(doc).unwrap_err();
        assert_eq!(err, "scenario `x`: `defense.tau` needs a share-less defense");
    }

    #[test]
    fn an_epsilon_without_a_dp_defense_is_refused_by_name() {
        for defense in [r#"{"kind": "none", "epsilon": 5}"#, r#"{"epsilon": 5}"#] {
            let doc = format!(
                r#"{{"suite": "s", "scenarios": [{{"name": "x", "defense": {defense}}}]}}"#
            );
            let err = SuiteSpec::parse(&doc).unwrap_err();
            assert_eq!(err, "scenario `x`: `defense.epsilon` needs a DP defense");
        }
        // A swept ε needs the same base.
        let doc = r#"{"suite": "s", "scenarios":
            [{"name": "x", "sweep": {"field": "epsilon", "values": [5]}}]}"#;
        let err = SuiteSpec::parse(doc).unwrap_err();
        assert_eq!(err, "sweep `x`: `defense.epsilon` needs a DP defense");
    }

    /// The shipped suite documents: every built-in suite as rendered, and
    /// the committed PRME suite.
    fn shipped_suite_documents() -> Vec<String> {
        let mut docs: Vec<String> = BUILTIN_SUITES
            .iter()
            .map(|(_, build)| build(Scale::Smoke, 42).to_json().render())
            .collect();
        docs.push(include_str!("../tests/golden/prme-smoke.suite.json").to_string());
        docs
    }

    /// Whether `err` names `key` as a word of its own (so `k` is not found
    /// inside `unknown`).
    fn names(err: &str, key: &str) -> bool {
        let word = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        err.match_indices(key).any(|(i, _)| {
            !word(err[..i].chars().next_back()) && !word(err[i + key.len()..].chars().next())
        })
    }

    #[test]
    fn every_field_refuses_hostile_values_by_name() {
        // Each table field, set to each hostile value on bases that carry
        // every knob (gossip with a share-less defense and adaptive sybils
        // under churn; FL with DP; a bare FL scenario), parses or fails with
        // an error that names the field.
        let bases = [
            r#"{"name": "x", "protocol": "rand-gossip", "defense": {"kind": "share-less",
                "tau": 0.5}, "dynamics": {"sybils": 2, "placement": "degree",
                "leave_prob": 0.05, "join_prob": 0.2, "straggler_fraction": 0.1}}"#,
            r#"{"name": "x", "defense": {"kind": "dp", "epsilon": 10}}"#,
            r#"{"name": "x"}"#,
        ];
        let values = [
            Json::Num(-1.0),
            Json::Num(0.0),
            Json::Num(0.5),
            Json::Num(9_007_199_254_740_992.0),
            Json::Num(1e308),
            Json::Str("x".to_string()),
        ];
        for base in bases {
            for f in &FIELDS {
                let (block, key) = f.split();
                for value in &values {
                    let mut scenario = Json::parse(base).unwrap();
                    let Json::Obj(top) = &mut scenario else { unreachable!() };
                    let pairs = if block.is_empty() {
                        top
                    } else {
                        if !top.iter().any(|(k, _)| k == block) {
                            top.push((block.to_string(), Json::Obj(Vec::new())));
                        }
                        match top.iter_mut().find(|(k, _)| k == block) {
                            Some((_, Json::Obj(pairs))) => pairs,
                            _ => unreachable!(),
                        }
                    };
                    pairs.retain(|(k, _)| k != key);
                    pairs.push((key.to_string(), value.clone()));
                    let suite = ObjBuilder::new()
                        .str("suite", "s")
                        .value("scenarios", Json::Arr(vec![scenario]))
                        .build();
                    if let Err(err) = SuiteSpec::parse(&suite.render()) {
                        assert!(names(&err, key), "{} = {value:?}: {err}", f.path);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn mangled_suite_documents_parse_or_fail_without_panic(
            pick in 0usize..6,
            at in 0usize..1 << 20,
            flip in 1u8..=255,
            truncate in 0u32..2,
        ) {
            // A byte flipped, or the document cut, at any offset: the
            // parser answers `Ok` or `Err`, never a panic.
            let docs = shipped_suite_documents();
            let mut doc = docs[pick % docs.len()].clone().into_bytes();
            let at = at % doc.len();
            if truncate == 1 {
                doc.truncate(at);
            } else {
                doc[at] ^= flip;
            }
            let _ = SuiteSpec::parse(&String::from_utf8_lossy(&doc));
        }
    }

    #[test]
    fn a_block_that_is_not_an_object_is_refused() {
        // `"defense": "dp"` once parsed as no defense at all, and a
        // non-object `dynamics` as the static population.
        for (scenario, want) in [
            (r#""defense": "dp""#, "scenario `x` defense: must be a JSON object"),
            (r#""dynamics": [0.5]"#, "scenario `x` dynamics: must be a JSON object"),
            (r#""sweep": 3"#, "scenario `x` sweep: must be a JSON object"),
        ] {
            let doc = format!(r#"{{"suite": "s", "scenarios": [{{"name": "x", {scenario}}}]}}"#);
            assert_eq!(SuiteSpec::parse(&doc).unwrap_err(), want);
        }
        assert_eq!(SuiteSpec::parse("[]").unwrap_err(), "suite: must be a JSON object");
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

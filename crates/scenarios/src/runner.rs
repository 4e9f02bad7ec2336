//! The suite runner: executes [`ScenarioSpec`]s deterministically from their
//! seeds, streams one JSONL record per (scenario, evaluation round), and
//! checkpoints/restores full run state so long paper-scale suites survive
//! interruption.
//!
//! Record schema (all floats finite, one object per line):
//!
//! * `round_eval` — emitted at every attack-evaluation round:
//!   `type suite scenario dataset model protocol scale seed round aac best10
//!   upper_bound upper_bound_online random_bound online participants
//!   [mean_loss] [elapsed_ms]` — `mean_loss` is omitted on all-offline
//!   rounds (no participants, nothing to average) and
//!   `upper_bound_online` is the dynamics-aware
//!   bound (observed ∧ live community members) and never exceeds
//!   `upper_bound`.
//! * `scenario_summary` — emitted once per completed scenario:
//!   `type suite scenario dataset model protocol scale seed max_aac
//!   best10_aac max_round random_bound upper_bound upper_bound_online
//!   advantage utility utility_metric rounds evals completed [elapsed_ms]
//!   [peak_rss_bytes] [setup_us]` — `setup_us` maps each setup stage
//!   (`generate`, `split`, `ground_truth`, `clients`) to its µs.
//!
//! * `trace` — emitted once per protocol round (plus a final record for the
//!   utility evaluation), timing-gated exactly like `elapsed_ms`:
//!   `type <shared keys> round round_us span_us counters [hist]` —
//!   `span_us` maps phase names to µs with the unattributed remainder under
//!   `other`; `counters` holds the round's registry deltas; `hist` holds
//!   per-metric `{count, sum_us, p50_us, p99_us}` latency summaries.
//!
//! `elapsed_ms`, `bytes_materialized`, `peak_rss_bytes`, `setup_us` and every
//! `trace` record are wall-clock-derived and gated behind [`RunOptions::timing`], so
//! `--no-timing` runs are byte-identical given the same spec and seed — the
//! tracing layer stays *active* (every scenario runs with a detail-enabled
//! recorder), it just never writes into the deterministic stream.

use crate::checkpoint::{write_durably, AttackState, Checkpoint, ProtocolState};
use crate::dynamics::{FlDynamics, GlDynamics, ParticipantDynamics};
use crate::json::{Json, ObjBuilder};
use crate::placement::{PlacementEngine, PlacementObserver, PlacementState};
use crate::setup::{try_build_setup_traced, RecsysSetup, SETUP_STAGES};
use crate::spec::{DefenseKind, ModelKind, ProtocolKind, ScenarioSpec, SuiteSpec};
use cia_core::metrics::random_bound;
use cia_core::{
    AttackOutcome, CiaConfig, FlCia, GlCiaAllPlacements, GlCiaCoalition, ItemSetEvaluator,
    Recorder, RoundPoint, TopK, TraceChunk,
};
use cia_data::presets::{Preset, Scale};
use cia_defenses::{DpConfig, DpMechanism};
use cia_federated::{FedAvg, FedAvgConfig};
use cia_gossip::{GossipConfig, GossipObserver, GossipProtocol, GossipSim};
use cia_models::parallel::par_map;
use cia_models::{
    f1_at_k, hit_ratio, GmfClient, GmfHyper, GmfSpec, Participant, PrmeClient, PrmeHyper, PrmeSpec,
    RelevanceScorer,
};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How a suite run behaves around its JSONL stream and checkpoints.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Include wall-clock `elapsed_ms` fields (the only non-deterministic
    /// part of the stream).
    pub timing: bool,
    /// Directory for checkpoint files; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Save a checkpoint every this many rounds (0 = only when stopping).
    pub checkpoint_every: u64,
    /// Resume from an existing checkpoint if one is present.
    pub resume: bool,
    /// Stop (checkpointing first, when enabled) once this many rounds have
    /// completed — simulates a killed run; `None` runs to completion.
    pub stop_after_rounds: Option<u64>,
}

/// Result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Attack summary (Max AAC, Best-10%, bounds, history).
    pub attack: AttackOutcome,
    /// Recommendation utility (`None` when the run stopped early or was
    /// skipped).
    pub utility: Option<f64>,
    /// Name of the utility metric.
    pub utility_metric: &'static str,
    /// Rounds completed.
    pub rounds_done: u64,
    /// Whether the scenario ran to completion.
    pub completed: bool,
    /// Whether a resume skipped the scenario because a completion marker
    /// showed its records are already in the stream.
    pub skipped: bool,
    /// Wall-clock duration of this invocation.
    pub elapsed: Duration,
    /// Per-round trace chunks drained from the scenario's recorder: one
    /// `(round, chunk)` entry per protocol round this *invocation* executed,
    /// plus a final entry (at `round == total`) for the utility evaluation.
    /// Recorder state is not checkpointed (wall-clock measurements cannot be
    /// replayed — see `crate::checkpoint`), so after a resume this covers
    /// only post-resume rounds.
    pub traces: Vec<(u64, TraceChunk)>,
}

/// Compatibility shape for `cia-experiments`: the result of one completed
/// run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Attack summary.
    pub attack: AttackOutcome,
    /// Recommendation utility: HR@20 for GMF, F1@20 for PRME.
    pub utility: f64,
    /// Name of the utility metric.
    pub utility_metric: &'static str,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Runs one scenario to completion with no JSONL stream and no checkpoints —
/// the entry point `cia-experiments` tables use.
///
/// # Panics
///
/// Panics if the spec fails validation (experiment code builds specs
/// programmatically, so a violation is a bug).
pub fn run_quiet(spec: &ScenarioSpec) -> RunResult {
    let mut sink = std::io::sink();
    let outcome =
        run_scenario(spec, "", &RunOptions::default(), &mut sink).expect("valid scenario spec");
    RunResult {
        attack: outcome.attack,
        utility: outcome.utility.expect("uninterrupted run completes"),
        utility_metric: outcome.utility_metric,
        elapsed: outcome.elapsed,
    }
}

/// Runs every scenario of a suite in order — sweeps expanded first —
/// streaming records into `sink`.
///
/// # Errors
///
/// Returns the first expansion, spec validation, I/O or checkpoint error.
pub fn run_suite(
    suite: &SuiteSpec,
    opts: &RunOptions,
    sink: &mut dyn Write,
) -> Result<Vec<ScenarioOutcome>, String> {
    let scenarios = suite.expanded()?;
    run_scenarios(&scenarios, &suite.name, opts, sink, |_| {})
}

/// Runs `scenarios` of suite `suite` in order, streaming records into `sink`
/// and handing each outcome to `done` as it finishes.
///
/// A scenario whose setup key (preset, scale, K override, seed) equals the
/// previous scenario's runs on that scenario's dataset, split and ground
/// truth instead of building them again; its `setup_us` then reads 0 for
/// those stages. Nothing is kept once the call returns.
///
/// # Errors
///
/// Returns the first spec validation, I/O or checkpoint error.
pub fn run_scenarios(
    scenarios: &[ScenarioSpec],
    suite: &str,
    opts: &RunOptions,
    sink: &mut dyn Write,
    mut done: impl FnMut(&ScenarioOutcome),
) -> Result<Vec<ScenarioOutcome>, String> {
    let mut last = None;
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for spec in scenarios {
        let outcome = run_reusing(spec, suite, opts, sink, &mut last)?;
        done(&outcome);
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Runs one scenario, streaming records into `sink`.
///
/// # Errors
///
/// Returns the first spec validation, I/O or checkpoint error.
pub fn run_scenario(
    spec: &ScenarioSpec,
    suite: &str,
    opts: &RunOptions,
    sink: &mut dyn Write,
) -> Result<ScenarioOutcome, String> {
    run_reusing(spec, suite, opts, sink, &mut None)
}

/// What a scenario's setup is a pure function of: preset, scale, K override
/// and seed.
type SetupKey = (Preset, Scale, Option<usize>, u64);

/// [`run_scenario`] on the setup in `last` when its key matches, else on a
/// new one; `last` then holds the setup this scenario ran on.
fn run_reusing(
    spec: &ScenarioSpec,
    suite: &str,
    opts: &RunOptions,
    sink: &mut dyn Write,
    last: &mut Option<(SetupKey, RecsysSetup)>,
) -> Result<ScenarioOutcome, String> {
    spec.validate()?;
    // cia-lint: allow(D02, feeds only the timing-gated elapsed_ms fields and the printed summary; --no-timing never reads it)
    let start = Instant::now();
    // One recorder per scenario, detail always on: `--no-timing` byte
    // identity is a property of the *emission* gate, not of tracing being
    // compiled out or disabled. Never checkpointed — see `crate::checkpoint`.
    let rec = Recorder::new();
    rec.set_detail(true);
    let ctx = Ctx { spec, suite, opts, start, rec };
    // A suite killed in scenario N leaves scenarios 1..N completed with
    // their records already in the stream; the completion marker stops a
    // resume from re-running them and appending duplicates.
    if opts.resume && ctx.completion_marker_matches() {
        let attack = cia_core::AttackTracker::new(1, 0).outcome();
        let outcome = scenario_outcome(spec, attack, None, "", 0, Vec::new());
        return Ok(ScenarioOutcome {
            completed: true,
            skipped: true,
            elapsed: start.elapsed(),
            ..outcome
        });
    }
    let key = (spec.preset, spec.scale, spec.k_override, spec.seed);
    // A setup under another key is dropped here, before the new one is built.
    let setup = match last.take().filter(|(k, _)| *k == key) {
        Some((_, setup)) => setup,
        None => {
            try_build_setup_traced(spec.preset, spec.scale, spec.k_override, spec.seed, &ctx.rec)
                .map_err(|e| format!("{}: {e}", spec.name))?
        }
    };
    let mut outcome = match spec.model {
        ModelKind::Gmf => run_gmf(&ctx, &setup, sink),
        ModelKind::Prme => run_prme(&ctx, &setup, sink),
    }?;
    *last = Some((key, setup));
    outcome.elapsed = start.elapsed();
    Ok(outcome)
}

/// Everything constant across one scenario invocation.
struct Ctx<'a> {
    spec: &'a ScenarioSpec,
    suite: &'a str,
    opts: &'a RunOptions,
    start: Instant,
    /// The scenario's recorder, shared by the protocol, the attack and the
    /// phase spans of [`drive`].
    rec: Recorder,
}

impl Ctx<'_> {
    fn checkpoint_path(&self) -> Option<PathBuf> {
        self.opts.checkpoint_dir.as_ref().map(|dir| Checkpoint::path_for(dir, &self.spec.name))
    }

    fn completion_marker_path(&self) -> Option<PathBuf> {
        self.checkpoint_path().map(|p| p.with_extension("done"))
    }

    /// Whether a matching completion marker exists for this spec.
    fn completion_marker_matches(&self) -> bool {
        self.completion_marker_path().is_some_and(|p| {
            std::fs::read_to_string(p)
                .is_ok_and(|text| text.trim() == format!("{:016x}", self.spec.fingerprint()))
        })
    }
}

/// The GMF scorer every scenario run uses, with the runner's hyper choices —
/// public so the hand-wired experiments and the benchmark tracer
/// (`perfbench/tracer`) train the exact spec a scenario run trains.
#[must_use]
pub fn gmf_scorer(num_items: u32, dim: usize) -> GmfSpec {
    GmfSpec::new(num_items, dim, GmfHyper { lr: 0.1, ..GmfHyper::default() })
}

fn run_gmf(
    ctx: &Ctx,
    setup: &RecsysSetup,
    sink: &mut dyn Write,
) -> Result<ScenarioOutcome, String> {
    let model_spec = gmf_scorer(setup.data.num_items(), setup.params.dim);
    let policy = ctx.spec.defense.policy();
    let clients = {
        let _clients = ctx.rec.span("clients");
        model_spec.build_clients(setup.split.train_sets(), policy, ctx.spec.seed)
    };
    let eval_instances = setup.split.eval_instances().to_vec();
    let utility = move |clients: &[GmfClient], deployed: Option<&[f32]>| -> f64 {
        // Clients evaluate independently in parallel; a hit count is
        // order-insensitive, so the result is identical for every
        // CIA_THREADS setting.
        let n = clients.len().min(eval_instances.len());
        let hits = par_map(n, |u| {
            let (c, inst) = (&clients[u], &eval_instances[u]);
            let agg = deployed.unwrap_or(c.agg());
            let pos = c.score_candidates_with(agg, &[inst.primary()])[0];
            let negs = c.score_candidates_with(agg, &inst.negatives);
            hit_ratio(pos, &negs, 20)
        });
        if n == 0 {
            return 0.0;
        }
        hits.iter().filter(|&&h| h).count() as f64 / n as f64
    };
    run_protocol(ctx, setup, model_spec, clients, utility, "HR@20", sink)
}

fn run_prme(
    ctx: &Ctx,
    setup: &RecsysSetup,
    sink: &mut dyn Write,
) -> Result<ScenarioOutcome, String> {
    let model_spec = PrmeSpec::new(
        setup.data.num_items(),
        setup.params.dim,
        PrmeHyper { lr: 0.05, ..PrmeHyper::default() },
    );
    let policy = ctx.spec.defense.policy();
    let split = &setup.split;
    let clients = {
        let _clients = ctx.rec.span("clients");
        model_spec.build_clients(split.train_sets(), split.train_sequences(), policy, ctx.spec.seed)
    };
    let eval_instances = setup.split.eval_instances().to_vec();
    let train_sets = setup.split.train_sets().to_vec();
    let num_items = setup.data.num_items();
    let utility = move |clients: &[PrmeClient], deployed: Option<&[f32]>| -> f64 {
        // F1@20: rank the full catalog minus train items, compare the top 20
        // against the held-out positives (logit scores; ranking is
        // sigmoid-free by monotonicity). The catalog is scored in cache-sized
        // tiles fed through the bounded [`TopK`] selector, so evaluation
        // never allocates a catalog-length score vector per user — `TopK` is
        // exactly the full-sort prefix under the same total order, so the F1
        // is unchanged. Clients evaluate independently in parallel chunks;
        // the fold over per-client F1 values runs in client index order, so
        // the mean is identical for every CIA_THREADS setting.
        let n = clients.len().min(eval_instances.len()).min(train_sets.len());
        let f1s = par_map(n, |u| {
            let (c, (inst, train)) = (&clients[u], (&eval_instances[u], &train_sets[u]));
            let agg = deployed.unwrap_or(c.agg());
            let mut sel = TopK::new(20);
            let mut tile: Vec<u32> = Vec::with_capacity(EVAL_TILE);
            let mut start = 0u32;
            while start < num_items {
                // cia-lint: allow(D05, EVAL_TILE is the constant 512)
                let end = num_items.min(start + EVAL_TILE as u32);
                tile.clear();
                tile.extend((start..end).filter(|j| train.binary_search(j).is_err()));
                for (s, &j) in c.score_candidates_with(agg, &tile).iter().zip(&tile) {
                    sel.push(*s, j);
                }
                start = end;
            }
            f1_at_k(&sel.into_ids(), &inst.positives)
        });
        // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
        f1s.iter().sum::<f64>() / clients.len() as f64
    };
    run_protocol(ctx, setup, model_spec, clients, utility, "F1@20", sink)
}

/// Items scored per tile during catalog evaluation: small enough that a
/// tile's ids + scores stay cache-resident, large enough to amortize the
/// per-call setup of the vectorized scoring kernels.
const EVAL_TILE: usize = 512;

fn build_dp(spec: &ScenarioSpec, rounds: u64) -> Option<DpMechanism> {
    match spec.defense {
        DefenseKind::Dp { epsilon } => Some(match epsilon {
            Some(eps) => DpMechanism::with_target_epsilon(eps, 1e-6, rounds, 1.0, 2.0),
            None => DpMechanism::new(DpConfig { clip: 2.0, noise_multiplier: 0.0 }),
        }),
        _ => None,
    }
}

fn run_protocol<S, P>(
    ctx: &Ctx,
    setup: &RecsysSetup,
    scorer: S,
    clients: Vec<P>,
    utility: impl Fn(&[P], Option<&[f32]>) -> f64,
    utility_metric: &'static str,
    sink: &mut dyn Write,
) -> Result<ScenarioOutcome, String>
where
    S: RelevanceScorer + Clone + 'static,
    P: Participant,
{
    let spec = ctx.spec;
    let n = setup.data.num_users();
    let share_less = matches!(spec.defense, DefenseKind::ShareLess { .. });
    let targets = setup.split.train_sets().to_vec();
    let cia = CiaConfig {
        k: setup.k,
        beta: spec.beta,
        eval_every: setup.params.eval_every(spec.protocol),
        seed: spec.seed ^ 0xC1A,
    };
    let dynamics = ParticipantDynamics::new(&spec.dynamics, n, spec.seed ^ 0xD11A);
    let evaluator = ItemSetEvaluator::new(scorer, targets, share_less);
    let total = setup.params.rounds(spec.protocol);
    if !spec.protocol.is_gossip() {
        let mut attack = FlCia::new(cia, evaluator, n, setup.truth_table(), setup.owner_table());
        let mut sim = FedAvg::new(
            clients,
            FedAvgConfig {
                rounds: total,
                local_epochs: setup.params.local_epochs,
                seed: spec.seed,
            },
        );
        if let Some(m) = build_dp(spec, total) {
            sim.set_update_transform(Box::new(m));
        }
        sim.set_recorder(ctx.rec.clone());
        attack.set_recorder(ctx.rec.clone());
        return drive(ctx, setup, FlRun { sim, attack }, dynamics, utility, utility_metric, sink);
    }
    let protocol = match spec.protocol {
        ProtocolKind::PersGossip => GossipProtocol::Pers { exploration: 0.4 },
        _ => GossipProtocol::Rand,
    };
    let mut sim =
        GossipSim::new(clients, GossipConfig { rounds: total, protocol, seed: spec.seed });
    if let Some(m) = build_dp(spec, total) {
        sim.set_update_transform(Box::new(m));
    }
    sim.set_recorder(ctx.rec.clone());

    // A sybil coalition (always-online adversary nodes) runs the
    // paper-exact coalition engine; without sybils a lone adversary runs the
    // all-placements sweep.
    let members = dynamics.sybil_members();
    let attack: Box<dyn GlAttack> = if members.is_empty() {
        let mut a = GlCiaAllPlacements::new(cia, evaluator, n, setup.truth_table());
        a.set_recorder(ctx.rec.clone());
        Box::new(a)
    } else {
        let (truths, owners) = (setup.truth_table(), setup.owner_table());
        let mut a = GlCiaCoalition::new(cia, evaluator, n, &members, truths, owners);
        a.set_recorder(ctx.rec.clone());
        Box::new(a)
    };
    // Adaptive sybil placement: passive traffic observation from the static
    // positions during the warm-up window, one relocation at its end. A
    // warm-up at or beyond the horizon can never fire — run the engine as
    // static up front so the whole-run delivery log is never collected (the
    // observable behavior is identical either way).
    let strategy = if spec.dynamics.placement_warmup >= total {
        crate::spec::PlacementStrategy::Static
    } else {
        spec.dynamics.placement
    };
    let placement = PlacementEngine::new(strategy, spec.dynamics.placement_warmup, members, n);
    let run = GlRun { sim, attack, placement };
    drive(ctx, setup, run, dynamics, utility, utility_metric, sink)
}

/// What one protocol round reports into its `round_eval` records.
struct StepReport {
    /// Clients that acted: FL participants, gossip wakers.
    participants: usize,
    mean_loss: Option<f32>,
    bytes_materialized: u64,
}

/// What a protocol contributes to the scenario loop ([`drive`]): one round
/// with its observer stack, plus its checkpoint sections. Resume, emission,
/// checkpoint cadence and assembly, tracing, the stop path, utility and the
/// summary belong to the loop.
trait ProtocolRun {
    /// The participant type the protocol trains.
    type Client: Participant;

    /// The participants (resume restores their state in place).
    fn clients(&mut self) -> &mut [Self::Client];
    /// The attack engine (resume restores it in place).
    fn attack(&mut self) -> &mut dyn Attack;
    /// Runs one round with the dynamics layer and the attack observing.
    fn step(&mut self, dynamics: &mut ParticipantDynamics) -> StepReport;
    /// The protocol and placement checkpoint sections.
    fn export(&self) -> (ProtocolState, PlacementState);
    /// Restores [`ProtocolRun::export`]'s sections, saved after `round`
    /// rounds — after the attack's restore, before the dynamics state's.
    /// Refuses the other protocol family's state, or state that does not
    /// fit the rebuilt simulation, naming the misfit part.
    fn restore(
        &mut self,
        round: u64,
        protocol: ProtocolState,
        placement: PlacementState,
        dynamics: &mut ParticipantDynamics,
    ) -> Result<(), String>;
    /// The participants for the final utility evaluation, and the model
    /// they all deploy if there is one (FedAvg's final global); without
    /// one, each scores with its own aggregate.
    fn deployed(&self) -> (&[Self::Client], Option<&[f32]>);
}

/// The adversary's Share-less fictive embeddings, one slot per user.
type Embeddings = Vec<Option<Vec<f32>>>;

/// The attack-engine surface [`drive`] needs, shared by [`FlCia`] and both
/// gossip engines.
trait Attack {
    fn history(&self) -> &[RoundPoint];
    fn outcome(&self) -> AttackOutcome;
    /// The engine's checkpoint section and the adversary's embeddings.
    fn export(&self) -> (AttackState, Embeddings);
    /// Restores [`Attack::export`]'s sections; refuses another engine's
    /// state, or state that does not fit this engine, naming the misfit part.
    fn restore(&mut self, state: AttackState, embs: Embeddings) -> Result<(), String>;
    /// Moves a gossip coalition onto relocated ids. The FL attack and the
    /// all-placements sweep have no coalition to move.
    fn set_members(&mut self, _members: &[u32]) {}
}

/// Implements [`Attack`] for an engine whose checkpoint section is the
/// `AttackState::$state` variant, forwarding `set_members` when given.
macro_rules! impl_attack {
    ($engine:ident, $state:ident $(, $set_members:ident)?) => {
        impl<S: RelevanceScorer> Attack for $engine<ItemSetEvaluator<S>> {
            fn history(&self) -> &[RoundPoint] {
                $engine::history(self)
            }

            fn outcome(&self) -> AttackOutcome {
                $engine::outcome(self)
            }

            fn export(&self) -> (AttackState, Embeddings) {
                let embs = self.evaluator().adversary_embeddings().to_vec();
                (AttackState::$state(self.export_state()), embs)
            }

            fn restore(&mut self, state: AttackState, embs: Embeddings) -> Result<(), String> {
                let AttackState::$state(state) = state else {
                    return Err("attack family".to_string());
                };
                self.restore_state(state)?;
                self.evaluator_mut().restore_adversary_embeddings(embs)
            }

            $(fn set_members(&mut self, members: &[u32]) {
                $engine::$set_members(self, members);
            })?
        }
    };
}

impl_attack!(FlCia, Cia);
impl_attack!(GlCiaCoalition, Cia, set_members);
impl_attack!(GlCiaAllPlacements, Placements);

/// Either gossip engine behind one trait object: the paper-exact coalition
/// or the all-placements sweep.
trait GlAttack: Attack + GossipObserver {}

impl<T: Attack + GossipObserver> GlAttack for T {}

/// FedAvg with the FL attack observing the server.
struct FlRun<S: RelevanceScorer, P: Participant> {
    sim: FedAvg<P>,
    attack: FlCia<ItemSetEvaluator<S>>,
}

impl<S: RelevanceScorer, P: Participant> ProtocolRun for FlRun<S, P> {
    type Client = P;

    fn clients(&mut self) -> &mut [P] {
        self.sim.clients_mut()
    }

    fn attack(&mut self) -> &mut dyn Attack {
        &mut self.attack
    }

    fn step(&mut self, dynamics: &mut ParticipantDynamics) -> StepReport {
        let stats = self.sim.step(&mut FlDynamics { inner: &mut self.attack, dynamics });
        StepReport {
            participants: stats.participants,
            mean_loss: stats.mean_loss,
            bytes_materialized: stats.bytes_materialized,
        }
    }

    fn export(&self) -> (ProtocolState, PlacementState) {
        (ProtocolState::Fl { global: self.sim.global_agg().to_vec() }, PlacementState::default())
    }

    fn restore(
        &mut self,
        round: u64,
        protocol: ProtocolState,
        _placement: PlacementState,
        _dynamics: &mut ParticipantDynamics,
    ) -> Result<(), String> {
        let ProtocolState::Fl { global } = protocol else {
            return Err("protocol family".to_string());
        };
        self.sim.restore(round, global)
    }

    fn deployed(&self) -> (&[P], Option<&[f32]>) {
        // The deployed model is the final global one, which the clients
        // score with instead of keeping a copy each.
        (self.sim.clients(), Some(self.sim.global_agg()))
    }
}

/// Gossip learning with a gossip attack engine and the sybil placement
/// engine observing the deliveries.
struct GlRun<P: Participant> {
    sim: GossipSim<P>,
    attack: Box<dyn GlAttack>,
    placement: PlacementEngine,
}

impl<P: Participant> ProtocolRun for GlRun<P> {
    type Client = P;

    fn clients(&mut self) -> &mut [P] {
        self.sim.nodes_mut()
    }

    fn attack(&mut self) -> &mut dyn Attack {
        &mut *self.attack
    }

    fn step(&mut self, dynamics: &mut ParticipantDynamics) -> StepReport {
        if let Some(members) = self.placement.maybe_relocate(self.sim.round(), self.sim.traffic()) {
            relocate(&mut *self.attack, dynamics, members);
        }
        let mut obs = PlacementObserver { inner: &mut *self.attack, engine: &mut self.placement };
        let stats = self.sim.step(&mut GlDynamics { inner: &mut obs, dynamics });
        StepReport {
            participants: stats.awake,
            mean_loss: stats.mean_loss,
            bytes_materialized: stats.bytes_materialized,
        }
    }

    fn export(&self) -> (ProtocolState, PlacementState) {
        (ProtocolState::Gl(self.sim.export_state()), self.placement.export_state())
    }

    fn restore(
        &mut self,
        round: u64,
        protocol: ProtocolState,
        placement: PlacementState,
        dynamics: &mut ParticipantDynamics,
    ) -> Result<(), String> {
        let ProtocolState::Gl(state) = protocol else {
            return Err("protocol family".to_string());
        };
        self.sim.restore_state(round, state)?;
        self.placement.restore_state(placement)?;
        if self.placement.relocated() {
            // Re-apply the relocation to the tables rebuilt from the spec —
            // before the dynamics state restore, whose online bitmap already
            // reflects post-relocation churn.
            relocate(&mut *self.attack, dynamics, self.placement.members());
        }
        Ok(())
    }

    fn deployed(&self) -> (&[P], Option<&[f32]>) {
        (self.sim.nodes(), None)
    }
}

/// Applies a coalition relocation: the attack engine's delivery filter and
/// the dynamics layer's always-online sybil table move to the new ids
/// together (sender-keyed momentum state survives untouched).
fn relocate(attack: &mut dyn GlAttack, dynamics: &mut ParticipantDynamics, members: &[u32]) {
    attack.set_members(members);
    dynamics.set_sybil_members(members);
}

/// The scenario loop, shared by both protocols: resumes from a checkpoint,
/// then per round steps the protocol, emits the new `round_eval` records,
/// checkpoints and drains the trace — until the stop limit, or until the
/// horizon, where it evaluates utility and emits the summary.
fn drive<R: ProtocolRun>(
    ctx: &Ctx,
    setup: &RecsysSetup,
    mut proto: R,
    mut dynamics: ParticipantDynamics,
    utility: impl Fn(&[R::Client], Option<&[f32]>) -> f64,
    utility_metric: &'static str,
    sink: &mut dyn Write,
) -> Result<ScenarioOutcome, String> {
    let spec = ctx.spec;
    let n = setup.data.num_users();
    let total = setup.params.rounds(spec.protocol);
    let mut traces: Vec<(u64, TraceChunk)> = Vec::new();
    // Everything recorded so far is setup: the dataset stages and the client
    // build. It is reported once, as the summary's `setup_us`, not as a
    // round.
    let setup_chunk = ctx.rec.drain();
    let setup_us = SETUP_STAGES.map(|stage| (stage, setup_chunk.span_us(stage)));

    let (mut done, mut emitted) = (0u64, 0usize);
    if let Some(path) = ctx.checkpoint_path().filter(|p| ctx.opts.resume && p.exists()) {
        let ck = Checkpoint::load(&path, spec.fingerprint())?;
        let mismatch = |part: &str| format!("{}: checkpoint {part} mismatch", spec.name);
        if ck.clients.len() != n {
            return Err(mismatch("population"));
        }
        proto.attack().restore(ck.attack, ck.adversary_embs).map_err(|part| mismatch(&part))?;
        proto
            .restore(ck.round, ck.protocol, ck.placement, &mut dynamics)
            .map_err(|part| mismatch(&part))?;
        for (i, (c, s)) in proto.clients().iter_mut().zip(&ck.clients).enumerate() {
            c.restore_state(s).map_err(|_| mismatch(&format!("state of client {i}")))?;
        }
        dynamics.restore_state(ck.dynamics).map_err(|part| mismatch(&part))?;
        // Every record of the restored history was emitted before the save.
        (done, emitted) = (ck.round, proto.attack().history().len());
    }

    let rb = random_bound(setup.k, n.saturating_sub(1));
    while done < total {
        let round_span = ctx.rec.span("round");
        let step = proto.step(&mut dynamics);
        done += 1;
        let emitted_before = emitted;
        let emit_span = ctx.rec.span("emit");
        while let Some(p) = proto.attack().history().get(emitted) {
            emit_round_eval(ctx, sink, p, rb, dynamics.online_count(), &step)?;
            emitted += 1;
        }
        drop(emit_span);
        let stopping = ctx.opts.stop_after_rounds.is_some_and(|limit| done >= limit);
        // Rounds that emitted records always checkpoint, keeping the stream's
        // record count in lockstep with the checkpoint's attack history — a
        // kill can then duplicate at most the current round's records on
        // resume.
        let every = ctx.opts.checkpoint_every;
        let due = stopping || emitted > emitted_before || (every > 0 && done.is_multiple_of(every));
        if let Some(path) = ctx.checkpoint_path().filter(|_| due) {
            let checkpoint_span = ctx.rec.span("checkpoint");
            let (protocol, placement) = proto.export();
            let (attack, adversary_embs) = proto.attack().export();
            let ck = Checkpoint {
                fingerprint: spec.fingerprint(),
                round: done,
                clients: proto.clients().iter().map(Participant::state_vec).collect(),
                protocol,
                attack,
                adversary_embs,
                dynamics: dynamics.export_state(),
                placement,
            };
            ck.save(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            drop(checkpoint_span);
        }
        drop(round_span);
        trace_round(ctx, sink, done - 1, &mut traces)?;
        if stopping {
            let attack = proto.attack().outcome();
            return Ok(scenario_outcome(spec, attack, None, utility_metric, done, traces));
        }
    }

    let utility_span = ctx.rec.span("utility");
    let (clients, deployed) = proto.deployed();
    let utility_value = utility(clients, deployed);
    drop(utility_span);
    trace_round(ctx, sink, total, &mut traces)?;
    let outcome = proto.attack().outcome();
    let summary = Summary { outcome: &outcome, utility: utility_value, utility_metric, setup_us };
    emit_summary(ctx, sink, &summary, total, emitted)?;
    clear_checkpoint(ctx)?;
    Ok(scenario_outcome(spec, outcome, Some(utility_value), utility_metric, total, traces))
}

/// The outcome of a run that completed (with its utility) or stopped early
/// (without).
fn scenario_outcome(
    spec: &ScenarioSpec,
    attack: AttackOutcome,
    utility: Option<f64>,
    utility_metric: &'static str,
    rounds_done: u64,
    traces: Vec<(u64, TraceChunk)>,
) -> ScenarioOutcome {
    ScenarioOutcome {
        name: spec.name.clone(),
        attack,
        utility,
        utility_metric,
        rounds_done,
        completed: utility.is_some(),
        skipped: false,
        elapsed: Duration::ZERO,
        traces,
    }
}

/// Marks the scenario complete with a fingerprinted `.done` marker, then
/// removes its checkpoint. A suite resume checks the marker first and skips
/// the scenario (its records are already in the stream) instead of re-running
/// it and appending duplicates. The marker is written durably *before* the
/// checkpoint goes, so a kill in between still leaves one of the two; a
/// marker that cannot be written is an error, and the checkpoint stays.
fn clear_checkpoint(ctx: &Ctx) -> Result<(), String> {
    let (Some(path), Some(marker)) = (ctx.checkpoint_path(), ctx.completion_marker_path()) else {
        return Ok(());
    };
    write_durably(&marker, format!("{:016x}\n", ctx.spec.fingerprint()).as_bytes())
        .map_err(|e| format!("cannot write completion marker {}: {e}", marker.display()))?;
    // The marker wins on resume, so a checkpoint that is left behind (or
    // was never written) is harmless.
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn base_record(ctx: &Ctx, kind: &str) -> ObjBuilder {
    ObjBuilder::new()
        .str("type", kind)
        .str("suite", ctx.suite)
        .str("scenario", &ctx.spec.name)
        .str("dataset", ctx.spec.preset.name())
        .str("model", ctx.spec.model.name())
        .str("protocol", ctx.spec.protocol.name())
        .str("scale", &ctx.spec.scale.to_string())
        .num("seed", ctx.spec.seed as f64)
}

fn write_record(sink: &mut dyn Write, record: &Json) -> Result<(), String> {
    let mut line = record.render();
    line.push('\n');
    sink.write_all(line.as_bytes()).map_err(|e| format!("cannot write record: {e}"))
}

fn emit_round_eval(
    ctx: &Ctx,
    sink: &mut dyn Write,
    p: &RoundPoint,
    random_bound: f64,
    online: usize,
    step: &StepReport,
) -> Result<(), String> {
    let mut b = base_record(ctx, "round_eval")
        .num("round", p.round as f64)
        .num("aac", p.aac)
        .num("best10", p.best10)
        .num("upper_bound", p.upper_bound)
        .num("upper_bound_online", p.upper_bound_online)
        .num("random_bound", random_bound)
        .num("online", online as f64)
        .num("participants", step.participants as f64);
    // An all-offline round has no losses to average; the field is omitted
    // rather than written as a `0.0` sentinel (which would read as perfect
    // convergence and deflate report-level loss means).
    if let Some(loss) = step.mean_loss {
        // `fmt_f64` would write a non-finite loss as `null`, a record
        // `validate_jsonl` refuses: stop the run instead.
        if !loss.is_finite() {
            let (name, round) = (&ctx.spec.name, p.round);
            return Err(format!("{name}: round {round}: training loss {loss} is not finite"));
        }
        b = b.num("mean_loss", f64::from(loss));
    }
    if ctx.opts.timing {
        // Timing-class fields (`--no-timing` golden transcripts never see
        // them): wall clock, the protocol's own materialization meter and
        // the OS-charged peak RSS.
        b = b.num("elapsed_ms", ctx.start.elapsed().as_millis() as f64);
        b = b.num("bytes_materialized", step.bytes_materialized as f64);
        if let Some(rss) = crate::mem::peak_rss_bytes() {
            b = b.num("peak_rss_bytes", rss as f64);
        }
    }
    write_record(sink, &b.build())
}

/// Drains the recorder into `traces` under `round` and, when timing is on,
/// emits the chunk as one `trace` record: phase µs (with the round's
/// unattributed remainder as `other`), counter deltas and histogram
/// summaries.
fn trace_round(
    ctx: &Ctx,
    sink: &mut dyn Write,
    round: u64,
    traces: &mut Vec<(u64, TraceChunk)>,
) -> Result<(), String> {
    let chunk = ctx.rec.drain();
    if ctx.opts.timing {
        write_record(sink, &trace_record(ctx, round, &chunk))?;
    }
    traces.push((round, chunk));
    Ok(())
}

fn trace_record(ctx: &Ctx, round: u64, chunk: &TraceChunk) -> Json {
    // Phases in first-completion order. Depth-0 spans other than the
    // runner's `round` envelope (e.g. the final `utility` pass) count as
    // phases too; deeper nesting rolls up into its depth-1 parent.
    let mut names: Vec<&'static str> = Vec::new();
    let mut sums: Vec<u64> = Vec::new();
    let mut attributed = 0u64;
    let mut round_us: Option<u64> = None;
    for s in &chunk.spans {
        if s.depth == 0 && s.name == "round" {
            round_us = Some(round_us.unwrap_or(0) + s.dur_us);
            continue;
        }
        if s.depth > 1 {
            continue;
        }
        if s.depth == 1 {
            attributed += s.dur_us;
        }
        match names.iter().position(|&n| n == s.name) {
            Some(i) => sums[i] += s.dur_us,
            None => {
                names.push(s.name);
                sums.push(s.dur_us);
            }
        }
    }
    let mut spans_b = ObjBuilder::new();
    for (name, us) in names.iter().zip(&sums) {
        spans_b = spans_b.num(name, *us as f64);
    }
    if let Some(total) = round_us {
        spans_b = spans_b.num("other", total.saturating_sub(attributed) as f64);
    }
    let mut counters_b = ObjBuilder::new();
    for (c, delta) in &chunk.counters {
        counters_b = counters_b.num(c.name(), *delta as f64);
    }
    let mut b = base_record(ctx, "trace").num("round", round as f64);
    if let Some(total) = round_us {
        b = b.num("round_us", total as f64);
    }
    b = b.value("span_us", spans_b.build()).value("counters", counters_b.build());
    if !chunk.hists.is_empty() {
        let mut hists_b = ObjBuilder::new();
        for (m, h) in &chunk.hists {
            let summary = ObjBuilder::new()
                .num("count", h.count() as f64)
                .num("sum_us", h.sum as f64)
                .num("p50_us", h.quantile(0.5) as f64)
                .num("p99_us", h.quantile(0.99) as f64)
                .build();
            hists_b = hists_b.value(m.name(), summary);
        }
        b = b.value("hist", hists_b.build());
    }
    b.build()
}

/// What a completed scenario reports in its `scenario_summary` record.
struct Summary<'a> {
    outcome: &'a AttackOutcome,
    utility: f64,
    utility_metric: &'a str,
    /// µs per setup stage, in [`SETUP_STAGES`] order (timing-class).
    setup_us: [(&'static str, u64); SETUP_STAGES.len()],
}

fn emit_summary(
    ctx: &Ctx,
    sink: &mut dyn Write,
    summary: &Summary,
    rounds: u64,
    evals: usize,
) -> Result<(), String> {
    let Summary { outcome, utility, utility_metric, setup_us } = summary;
    let mut b = base_record(ctx, "scenario_summary")
        .num("max_aac", outcome.max_aac)
        .num("best10_aac", outcome.best10_aac)
        .num("max_round", outcome.max_round as f64)
        .num("random_bound", outcome.random_bound)
        .num("upper_bound", outcome.upper_bound)
        .num("upper_bound_online", outcome.upper_bound_online)
        .num("advantage", outcome.advantage_over_random())
        .num("utility", *utility)
        .str("utility_metric", utility_metric)
        .num("rounds", rounds as f64)
        .num("evals", evals as f64)
        .bool("completed", true);
    if ctx.opts.timing {
        b = b.num("elapsed_ms", ctx.start.elapsed().as_millis() as f64);
        if let Some(rss) = crate::mem::peak_rss_bytes() {
            b = b.num("peak_rss_bytes", rss as f64);
        }
        let stages =
            setup_us.iter().fold(ObjBuilder::new(), |o, &(stage, us)| o.num(stage, us as f64));
        b = b.value("setup_us", stages.build());
    }
    write_record(sink, &b.build())
}

/// Validates a JSONL result stream against the record schema. Returns the
/// number of `(round_eval, scenario_summary)` records.
///
/// # Errors
///
/// Returns the line number and reason of the first invalid record.
pub fn validate_jsonl(input: &str) -> Result<(usize, usize), String> {
    const SHARED: [&str; 7] =
        ["suite", "scenario", "dataset", "model", "protocol", "scale", "seed"];
    let mut evals = 0usize;
    let mut summaries = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        let fail = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(&fail)?;
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| fail("missing `type`".to_string()))?;
        for key in SHARED {
            if v.get(key).is_none() {
                return Err(fail(format!("missing `{key}`")));
            }
        }
        let unit = |key: &str| -> Result<(), String> {
            let x = v
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| fail(format!("missing numeric `{key}`")))?;
            if !(0.0..=1.0).contains(&x) {
                return Err(fail(format!("`{key}` = {x} outside [0, 1]")));
            }
            Ok(())
        };
        let integral = |key: &str| -> Result<(), String> {
            v.get(key)
                .and_then(Json::as_u64)
                .map(drop)
                .ok_or_else(|| fail(format!("missing integral `{key}`")))
        };
        // The online bound counts a subset of the members the static bound
        // counts; a violation means a producer bug.
        let bounds_ordered = || -> Result<(), String> {
            let upper = v.get("upper_bound").and_then(Json::as_f64).expect("checked");
            let online = v.get("upper_bound_online").and_then(Json::as_f64).expect("checked");
            if online > upper + 1e-9 {
                return Err(fail(format!(
                    "`upper_bound_online` {online} exceeds `upper_bound` {upper}"
                )));
            }
            Ok(())
        };
        // Timing-class fields are optional (absent under `--no-timing`) but
        // must be integral counters when present.
        let timing = |key: &str| -> Result<(), String> {
            match v.get(key) {
                None => Ok(()),
                Some(x) => x
                    .as_u64()
                    .map(drop)
                    .ok_or_else(|| fail(format!("`{key}` must be a non-negative integer"))),
            }
        };
        match kind {
            "round_eval" => {
                integral("round")?;
                for key in ["aac", "best10", "upper_bound", "upper_bound_online", "random_bound"] {
                    unit(key)?;
                }
                bounds_ordered()?;
                for key in ["online", "participants"] {
                    integral(key)?;
                }
                // Absent on all-offline rounds (no participants, nothing to
                // average); when present it must be numeric.
                if let Some(x) = v.get("mean_loss") {
                    x.as_f64()
                        .ok_or_else(|| fail("`mean_loss` must be numeric when present".into()))?;
                }
                for key in ["elapsed_ms", "bytes_materialized", "peak_rss_bytes"] {
                    timing(key)?;
                }
                evals += 1;
            }
            "scenario_summary" => {
                for key in
                    ["max_aac", "best10_aac", "random_bound", "upper_bound", "upper_bound_online"]
                {
                    unit(key)?;
                }
                bounds_ordered()?;
                for key in ["max_round", "rounds", "evals"] {
                    integral(key)?;
                }
                v.get("utility")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| fail("missing numeric `utility`".to_string()))?;
                v.get("utility_metric")
                    .and_then(Json::as_str)
                    .ok_or_else(|| fail("missing `utility_metric`".to_string()))?;
                v.get("completed")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| fail("missing boolean `completed`".to_string()))?;
                for key in ["elapsed_ms", "peak_rss_bytes"] {
                    timing(key)?;
                }
                if let Some(setup) = v.get("setup_us") {
                    let obj = setup
                        .as_obj()
                        .ok_or_else(|| fail("`setup_us` must be an object".to_string()))?;
                    let stages: Vec<&str> = obj.iter().map(|(name, _)| name.as_str()).collect();
                    if stages != SETUP_STAGES {
                        return Err(fail(format!(
                            "`setup_us` stages {stages:?}, expected {SETUP_STAGES:?}"
                        )));
                    }
                    for (stage, us) in obj {
                        us.as_u64().ok_or_else(|| {
                            fail(format!("`setup_us.{stage}` must be a non-negative integer"))
                        })?;
                    }
                }
                summaries += 1;
            }
            "trace" => {
                // Trace records only exist in timed streams; everything in
                // them is an integral µs/count value.
                integral("round")?;
                timing("round_us")?;
                for key in ["span_us", "counters"] {
                    let obj = v
                        .get(key)
                        .and_then(Json::as_obj)
                        .ok_or_else(|| fail(format!("missing object `{key}`")))?;
                    for (name, val) in obj {
                        val.as_u64().ok_or_else(|| {
                            fail(format!("`{key}.{name}` must be a non-negative integer"))
                        })?;
                    }
                }
                if let Some(h) = v.get("hist") {
                    let obj =
                        h.as_obj().ok_or_else(|| fail("`hist` must be an object".to_string()))?;
                    for (metric, summary) in obj {
                        for key in ["count", "sum_us", "p50_us", "p99_us"] {
                            summary.get(key).and_then(Json::as_u64).ok_or_else(|| {
                                fail(format!("`hist.{metric}.{key}` must be an integer"))
                            })?;
                        }
                    }
                }
            }
            other => return Err(fail(format!("unknown record type `{other}`"))),
        }
    }
    if evals == 0 && summaries == 0 {
        return Err("stream contains no records".to_string());
    }
    Ok((evals, summaries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{builtin_suite, DynamicsSpec};
    use cia_data::presets::{Preset, Scale};

    #[test]
    fn quiet_fl_gmf_run_matches_legacy_contract() {
        let spec =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        let r = run_quiet(&spec);
        assert!(r.attack.max_aac > r.attack.random_bound, "attack below random");
        assert!(r.utility > 0.0, "HR must be positive");
        assert_eq!(r.utility_metric, "HR@20");
    }

    #[test]
    fn online_bound_matches_static_bound_without_dynamics() {
        // Every paper table is a static-population scenario, so the
        // dynamics-aware bound must coincide with the paper's coverage
        // bound — tables keep reporting one number.
        let spec =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        let r = run_quiet(&spec);
        assert_eq!(r.attack.upper_bound_online, r.attack.upper_bound);
        for p in &r.attack.history {
            assert_eq!(p.upper_bound_online, p.upper_bound);
        }
    }

    #[test]
    fn online_bound_separates_under_churn() {
        let mut spec =
            ScenarioSpec::new(Preset::MovieLens, ModelKind::Gmf, ProtocolKind::Fl, Scale::Smoke);
        spec.dynamics = DynamicsSpec {
            leave_prob: 0.2,
            join_prob: 0.3,
            initial_online: 0.8,
            ..Default::default()
        };
        let r = run_quiet(&spec);
        assert!(
            r.attack.history.iter().all(|p| p.upper_bound_online <= p.upper_bound + 1e-12),
            "online bound exceeded the static bound"
        );
        assert!(
            r.attack.history.iter().any(|p| p.upper_bound_online < p.upper_bound),
            "churn never separated the bounds"
        );
    }

    #[test]
    fn stream_is_schema_valid_and_ordered() {
        let suite = builtin_suite(Scale::Smoke, 11);
        let mut buf = Vec::new();
        let outcomes = run_suite(&suite, &RunOptions::default(), &mut buf).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.completed));
        let text = String::from_utf8(buf).unwrap();
        let (evals, summaries) = validate_jsonl(&text).unwrap();
        assert_eq!(summaries, 3);
        assert!(evals >= 3, "at least one eval per scenario, got {evals}");
        // Rounds are non-decreasing within a scenario.
        let mut last: Option<(String, u64)> = None;
        for line in text.lines() {
            let v = Json::parse(line).unwrap();
            if v.get("type").unwrap().as_str() == Some("round_eval") {
                let name = v.get("scenario").unwrap().as_str().unwrap().to_string();
                let round = v.get("round").unwrap().as_u64().unwrap();
                if let Some((prev_name, prev_round)) = &last {
                    if *prev_name == name {
                        assert!(round > *prev_round);
                    }
                }
                last = Some((name, round));
            }
        }
    }

    #[test]
    fn churn_reduces_observed_participants() {
        let suite = builtin_suite(Scale::Smoke, 3);
        let churn = suite.expanded().unwrap()[1].clone();
        let mut buf = Vec::new();
        run_scenario(&churn, "t", &RunOptions::default(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut saw_partial = false;
        for line in text.lines() {
            let v = Json::parse(line).unwrap();
            if v.get("type").unwrap().as_str() == Some("round_eval") {
                let participants = v.get("participants").unwrap().as_u64().unwrap();
                if participants < 48 {
                    saw_partial = true;
                }
            }
        }
        assert!(saw_partial, "churn never took anyone offline");
    }

    #[test]
    fn validator_rejects_malformed_streams() {
        assert!(validate_jsonl("").is_err());
        assert!(validate_jsonl("{\"type\":\"bogus\"}").unwrap_err().contains("missing"));
        let bad_aac = r#"{"type":"round_eval","suite":"s","scenario":"x","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":1,"round":0,"aac":1.5,"best10":0,"upper_bound":0,"upper_bound_online":0,"random_bound":0,"online":1,"participants":1,"mean_loss":0}"#;
        assert!(validate_jsonl(bad_aac).unwrap_err().contains("outside"));
        // A record missing the online bound is schema drift.
        let missing = r#"{"type":"round_eval","suite":"s","scenario":"x","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":1,"round":0,"aac":0.5,"best10":0,"upper_bound":1,"random_bound":0,"online":1,"participants":1,"mean_loss":0}"#;
        assert!(validate_jsonl(missing).unwrap_err().contains("upper_bound_online"));
        // An online bound above the static bound is a producer bug — in
        // either record type.
        let inverted = r#"{"type":"round_eval","suite":"s","scenario":"x","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":1,"round":0,"aac":0.5,"best10":0,"upper_bound":0.5,"upper_bound_online":0.8,"random_bound":0,"online":1,"participants":1,"mean_loss":0}"#;
        assert!(validate_jsonl(inverted).unwrap_err().contains("exceeds"));
        let inverted_summary = r#"{"type":"scenario_summary","suite":"s","scenario":"x","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":1,"max_aac":0.5,"best10_aac":0,"max_round":0,"random_bound":0,"upper_bound":0.5,"upper_bound_online":0.8,"advantage":0,"utility":0.5,"utility_metric":"HR@20","rounds":8,"evals":4,"completed":true}"#;
        assert!(validate_jsonl(inverted_summary).unwrap_err().contains("exceeds"));
        // `mean_loss` is legitimately absent on an all-offline round, but a
        // present non-numeric value is still schema drift.
        let no_loss = r#"{"type":"round_eval","suite":"s","scenario":"x","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":1,"round":0,"aac":0.5,"best10":0,"upper_bound":1,"upper_bound_online":0.5,"random_bound":0,"online":0,"participants":0}"#;
        assert_eq!(validate_jsonl(no_loss), Ok((1, 0)));
        let bad_loss = r#"{"type":"round_eval","suite":"s","scenario":"x","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":1,"round":0,"aac":0.5,"best10":0,"upper_bound":1,"upper_bound_online":0.5,"random_bound":0,"online":1,"participants":1,"mean_loss":"nan"}"#;
        assert!(validate_jsonl(bad_loss).unwrap_err().contains("mean_loss"));
        // `setup_us` is timing-class: optional, but when present it names
        // every setup stage, in order, with an integral µs each.
        let summary = r#"{"type":"scenario_summary","suite":"s","scenario":"x","dataset":"d","model":"m","protocol":"p","scale":"smoke","seed":1,"max_aac":0.5,"best10_aac":0,"max_round":0,"random_bound":0,"upper_bound":0.5,"upper_bound_online":0.5,"advantage":0,"utility":0.5,"utility_metric":"HR@20","rounds":8,"evals":4,"completed":true}"#;
        assert_eq!(validate_jsonl(summary), Ok((0, 1)));
        let with_setup = |setup: &str| summary.replace('}', &format!(",\"setup_us\":{setup}}}"));
        let good = r#"{"generate":5,"split":3,"ground_truth":7,"clients":2}"#;
        assert_eq!(validate_jsonl(&with_setup(good)), Ok((0, 1)));
        let missing_stage = r#"{"generate":5,"split":3,"ground_truth":7}"#;
        assert!(validate_jsonl(&with_setup(missing_stage)).unwrap_err().contains("stages"));
        let fractional = r#"{"generate":5,"split":3.5,"ground_truth":7,"clients":2}"#;
        assert!(validate_jsonl(&with_setup(fractional)).unwrap_err().contains("setup_us.split"));
        assert!(validate_jsonl(&with_setup("12")).unwrap_err().contains("object"));
    }
}

//! `perfbench-tracer` — a traced replica of one paper-scale scenario run.
//!
//! Rebuilds the scenario the `scenario run` binary would run, from the same
//! public library calls and the same seed formulas as
//! `cia_scenarios::runner`, and times the layer seams reachable from outside
//! through wrapper impls:
//!
//! * `RoundObserver` / `GossipObserver` around the attack engine — model
//!   observation (`on_client_model` / `on_delivery`) and evaluation
//!   (`on_round_end`);
//! * `RelevanceEvaluator` around the attack's evaluator — `prepare` and
//!   per-model scoring (`relevance_all`);
//! * `UpdateTransform` around the DP mechanism — `transform`.
//!
//! ```text
//! perfbench-tracer --suite NAME --only SCENARIO [--stop-after N] [--setup-only]
//! ```
//!
//! Runs the scenario at `--scale paper` with the `scenario` CLI's default seed
//! and default delivery policy (`DeliveryPolicy::Lockstep`). Prints one JSON
//! object with the raw timings. `perfbench/run.py` checks the replica's
//! `max_aac` against the `scenario` transcript: a mismatch means the seed
//! formulas copied here drifted from the runner's.

use cia_core::{
    CiaConfig, Counter, FlCia, GlCiaCoalition, ItemSetEvaluator, Metric, Recorder,
    RelevanceEvaluator,
};
use cia_data::presets::Scale;
use cia_data::UserId;
use cia_defenses::{DpConfig, DpMechanism};
use cia_federated::{DeliveryPolicy, FedAvg, FedAvgConfig, RoundObserver, RoundStats};
use cia_gossip::{GossipConfig, GossipObserver, GossipProtocol, GossipRoundStats, GossipSim};
use cia_models::parallel::par_map;
use cia_models::{hit_ratio, GmfClient, GmfSpec, Participant, SharedModel, UpdateTransform};
use cia_scenarios::runner::gmf_scorer;
use cia_scenarios::{
    named_suite, try_build_setup, DefenseKind, FlDynamics, GlDynamics, ModelKind,
    ParticipantDynamics, PlacementEngine, PlacementObserver, PlacementStrategy, ProtocolKind,
    RecsysSetup, ScenarioSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `scenario` CLI's default `--seed`, which the benchmark runs.
const SCENARIO_SEED: u64 = 42;
/// Set-up repetitions per invocation; the caller takes the median.
const SETUP_REPS: usize = 5;
/// DP transform calls in the probe that ends every traced run, so the DP
/// layer's per-call cost is measured on every workload, not only the one
/// that installs DP.
const DP_PROBE_CALLS: u32 = 64;
/// The probe's privacy target (the `dp10` cells of the defense grid).
const DP_PROBE_EPSILON: f64 = 10.0;

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, adding its wall time to `acc`.
fn timed<R>(acc: &mut Duration, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed();
    r
}

/// Time spent inside the attack's observer callbacks.
#[derive(Default)]
struct AttackTimes {
    observe: Duration,
    observe_calls: u64,
    eval: Duration,
    /// Every other callback (round start, liveness, global broadcast).
    other: Duration,
}

impl AttackTimes {
    fn total(&self) -> Duration {
        self.observe + self.eval + self.other
    }
}

/// Observer wrapper timing the wrapped attack engine.
struct TimedAttack<'a, O> {
    inner: &'a mut O,
    t: &'a mut AttackTimes,
}

impl<O: RoundObserver> RoundObserver for TimedAttack<'_, O> {
    fn on_round_start(&mut self, round: u64) {
        timed(&mut self.t.other, || self.inner.on_round_start(round));
    }

    fn on_liveness(&mut self, event: cia_federated::LivenessEvent<'_>) {
        timed(&mut self.t.other, || self.inner.on_liveness(event));
    }

    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        timed(&mut self.t.other, || self.inner.on_global(round, global_agg));
    }

    fn on_client_model(&mut self, model: &SharedModel) {
        self.t.observe_calls += 1;
        timed(&mut self.t.observe, || self.inner.on_client_model(model));
    }

    fn observes_models(&self) -> bool {
        self.inner.observes_models()
    }

    fn on_round_end(&mut self, stats: &RoundStats) {
        timed(&mut self.t.eval, || self.inner.on_round_end(stats));
    }
}

impl<O: GossipObserver> GossipObserver for TimedAttack<'_, O> {
    fn on_round_start(&mut self, round: u64) {
        timed(&mut self.t.other, || self.inner.on_round_start(round));
    }

    fn on_liveness(&mut self, event: cia_gossip::LivenessEvent<'_>) {
        timed(&mut self.t.other, || self.inner.on_liveness(event));
    }

    fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
        self.t.observe_calls += 1;
        timed(&mut self.t.observe, || self.inner.on_delivery(round, receiver, model));
    }

    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        timed(&mut self.t.eval, || self.inner.on_round_end(stats));
    }
}

/// Evaluator wrapper timing `prepare` and per-model scoring. Scoring runs
/// on the attack's worker threads, so its time is summed across threads.
struct TimedEvaluator<E> {
    inner: E,
    prepare_ns: u64,
    score_ns: AtomicU64,
    score_calls: AtomicU64,
}

impl<E> TimedEvaluator<E> {
    fn new(inner: E) -> Self {
        TimedEvaluator {
            inner,
            prepare_ns: 0,
            score_ns: AtomicU64::new(0),
            score_calls: AtomicU64::new(0),
        }
    }

    fn scored(&self, since: Instant) {
        self.score_ns.fetch_add(nanos(since), Ordering::Relaxed);
        self.score_calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl<E: RelevanceEvaluator> RelevanceEvaluator for TimedEvaluator<E> {
    fn num_targets(&self) -> usize {
        self.inner.num_targets()
    }

    fn prepare(&mut self, agg: &[f32], seed: u64) {
        let t = Instant::now();
        self.inner.prepare(agg, seed);
        self.prepare_ns += nanos(t);
    }

    fn relevance_one(&self, owner_emb: Option<&[f32]>, agg: &[f32], target: usize) -> f32 {
        let t = Instant::now();
        let r = self.inner.relevance_one(owner_emb, agg, target);
        self.scored(t);
        r
    }

    fn relevance_all(&self, owner_emb: Option<&[f32]>, agg: &[f32], out: &mut [f32]) {
        let t = Instant::now();
        self.inner.relevance_all(owner_emb, agg, out);
        self.scored(t);
    }
}

type Evaluator = TimedEvaluator<ItemSetEvaluator<GmfSpec>>;

#[derive(Default)]
struct TransformStats {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl TransformStats {
    /// Seconds spent in the transform and the number of calls.
    fn read(&self) -> (f64, u64) {
        (self.ns.load(Ordering::Relaxed) as f64 * 1e-9, self.calls.load(Ordering::Relaxed))
    }
}

/// Update-transform wrapper timing the DP mechanism.
struct TimedTransform {
    inner: DpMechanism,
    stats: Arc<TransformStats>,
}

impl UpdateTransform for TimedTransform {
    fn transform(&self, update: &mut [f32], rng: &mut StdRng) {
        let t = Instant::now();
        self.inner.transform(update, rng);
        self.stats.ns.fetch_add(nanos(t), Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Everything one traced run measured.
#[derive(Default)]
struct Trace {
    setup_build_s: Vec<f64>,
    client_build_s: Vec<f64>,
    round_s: Vec<f64>,
    attack: AttackTimes,
    prepare_s: f64,
    score_cpu_s: f64,
    score_calls: u64,
    evals: usize,
    dp_run_s: f64,
    dp_run_calls: u64,
    dp_probe_s: f64,
    dp_probe_calls: u64,
    client_trainings: u64,
    client_train_us_sum: u64,
    client_train_count: u64,
    deliveries: u64,
    bytes_materialized: u64,
    max_aac: f64,
    utility: f64,
}

impl Trace {
    fn record_evaluator(&mut self, e: &Evaluator) {
        self.prepare_s = e.prepare_ns as f64 * 1e-9;
        self.score_cpu_s = e.score_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        self.score_calls = e.score_calls.load(Ordering::Relaxed);
    }

    fn record_recorder(&mut self, rec: &Recorder) {
        self.client_trainings = rec.counter(Counter::ClientsTrained);
        let train = rec.histogram(Metric::TrainMicros);
        self.client_train_us_sum = train.sum;
        self.client_train_count = train.count();
    }

    fn to_json(&self) -> String {
        let list = |v: &[f64]| v.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(",");
        let a = &self.attack;
        format!(
            "{{\"setup_build_s\":[{}],\"client_build_s\":[{}],\"round_s\":[{}],\
             \"attack_s\":{:?},\"observe_s\":{:?},\"observe_calls\":{},\"eval_s\":{:?},\
             \"evals\":{},\"prepare_s\":{:?},\"score_cpu_s\":{:?},\"score_calls\":{},\
             \"dp_run_s\":{:?},\"dp_run_calls\":{},\"dp_probe_s\":{:?},\"dp_probe_calls\":{},\
             \"client_trainings\":{},\"client_train_us_sum\":{},\"client_train_count\":{},\
             \"deliveries\":{},\"bytes_materialized\":{},\"max_aac\":{:?},\"utility\":{:?}}}",
            list(&self.setup_build_s),
            list(&self.client_build_s),
            list(&self.round_s),
            a.total().as_secs_f64(),
            a.observe.as_secs_f64(),
            a.observe_calls,
            a.eval.as_secs_f64(),
            self.evals,
            self.prepare_s,
            self.score_cpu_s,
            self.score_calls,
            self.dp_run_s,
            self.dp_run_calls,
            self.dp_probe_s,
            self.dp_probe_calls,
            self.client_trainings,
            self.client_train_us_sum,
            self.client_train_count,
            self.deliveries,
            self.bytes_materialized,
            self.max_aac,
            self.utility,
        )
    }
}

/// The population's GMF clients, seeded exactly as the scenario runner seeds
/// them.
fn build_clients(spec: &ScenarioSpec, setup: &RecsysSetup) -> Vec<GmfClient> {
    let model_spec = gmf_scorer(setup.data.num_items(), setup.params.dim);
    let policy = spec.defense.policy();
    setup
        .split
        .train_sets()
        .iter()
        .enumerate()
        .map(|(u, items)| {
            model_spec.build_client(
                UserId::new(u as u32),
                items.clone(),
                policy,
                spec.seed ^ (u as u64).wrapping_mul(0xD6E8_FEB8),
            )
        })
        .collect()
}

/// The runner's DP mechanism for a spec, if it installs one.
fn build_dp(spec: &ScenarioSpec, rounds: u64) -> Option<DpMechanism> {
    match spec.defense {
        DefenseKind::Dp { epsilon } => Some(match epsilon {
            Some(eps) => DpMechanism::with_target_epsilon(eps, 1e-6, rounds, 1.0, 2.0),
            None => DpMechanism::new(DpConfig { clip: 2.0, noise_multiplier: 0.0 }),
        }),
        _ => None,
    }
}

/// The runner's attack configuration, timed evaluator and dynamics layer.
fn attack_parts(
    spec: &ScenarioSpec,
    setup: &RecsysSetup,
) -> (CiaConfig, Evaluator, ParticipantDynamics) {
    let n = setup.data.num_users();
    let share_less = matches!(spec.defense, DefenseKind::ShareLess { .. });
    let cia = CiaConfig {
        k: setup.k,
        beta: spec.beta,
        eval_every: setup.params.eval_every(spec.protocol),
        seed: spec.seed ^ 0xC1A,
    };
    let scorer = gmf_scorer(setup.data.num_items(), setup.params.dim);
    let evaluator = TimedEvaluator::new(ItemSetEvaluator::new(
        scorer,
        setup.split.train_sets().to_vec(),
        share_less,
    ));
    let dynamics = ParticipantDynamics::new(&spec.dynamics, n, spec.seed ^ 0xD11A);
    (cia, evaluator, dynamics)
}

/// HR@20 over the population, as the runner's GMF utility computes it.
fn gmf_utility(setup: &RecsysSetup, clients: &[GmfClient]) -> f64 {
    let eval_instances = setup.split.eval_instances();
    let n = clients.len().min(eval_instances.len());
    if n == 0 {
        return 0.0;
    }
    let hits = par_map(n, |u| {
        let (c, inst) = (&clients[u], &eval_instances[u]);
        let pos = c.score_candidates(&[inst.primary()])[0];
        let negs = c.score_candidates(&inst.negatives);
        hit_ratio(pos, &negs, 20)
    });
    hits.iter().filter(|&&h| h).count() as f64 / n as f64
}

/// A fresh recorder with detail on, as the runner installs one per scenario.
fn detailed_recorder() -> Recorder {
    let rec = Recorder::new();
    rec.set_detail(true);
    rec
}

fn timed_dp(
    spec: &ScenarioSpec,
    rounds: u64,
    stats: &Arc<TransformStats>,
) -> Option<Box<dyn UpdateTransform>> {
    build_dp(spec, rounds).map(|inner| {
        Box::new(TimedTransform { inner, stats: Arc::clone(stats) }) as Box<dyn UpdateTransform>
    })
}

fn run_fl(
    spec: &ScenarioSpec,
    setup: &RecsysSetup,
    clients: Vec<GmfClient>,
    limit: u64,
    trace: &mut Trace,
    dp: &Arc<TransformStats>,
) -> Vec<f32> {
    let n = setup.data.num_users();
    let total = setup.params.fl_rounds;
    let (cia, evaluator, mut dynamics) = attack_parts(spec, setup);
    let mut attack = FlCia::new(cia, evaluator, n, setup.truth_table(), setup.owner_table());
    let mut sim = FedAvg::new(
        clients,
        FedAvgConfig {
            rounds: total,
            local_epochs: setup.params.local_epochs,
            seed: spec.seed,
            ..Default::default()
        },
    );
    if let Some(t) = timed_dp(spec, total, dp) {
        sim.set_update_transform(t);
    }
    let rec = detailed_recorder();
    sim.set_recorder(rec.clone());
    attack.set_recorder(rec.clone());
    while sim.round() < total.min(limit) {
        let round_span = rec.span("round");
        let t = Instant::now();
        let stats = {
            let mut timed = TimedAttack { inner: &mut attack, t: &mut trace.attack };
            let mut obs = FlDynamics { inner: &mut timed, dynamics: &mut dynamics };
            sim.step_evented(&mut obs, DeliveryPolicy::Lockstep)
        };
        trace.round_s.push(t.elapsed().as_secs_f64());
        trace.deliveries += stats.participants as u64;
        trace.bytes_materialized += stats.bytes_materialized;
        drop(rec.span("emit"));
        drop(round_span);
        rec.drain();
    }
    trace.record_recorder(&rec);
    trace.record_evaluator(attack.evaluator());
    trace.evals = attack.history().len();
    trace.max_aac = attack.outcome().max_aac;
    sim.sync_clients_to_global();
    trace.utility = gmf_utility(setup, sim.clients());
    sim.clients()[0].agg().to_vec()
}

fn run_gl(
    spec: &ScenarioSpec,
    setup: &RecsysSetup,
    clients: Vec<GmfClient>,
    limit: u64,
    trace: &mut Trace,
    dp: &Arc<TransformStats>,
) -> Result<Vec<f32>, String> {
    let n = setup.data.num_users();
    let total = setup.params.gl_rounds;
    let (cia, evaluator, mut dynamics) = attack_parts(spec, setup);
    let protocol = match spec.protocol {
        ProtocolKind::PersGossip => GossipProtocol::Pers { exploration: 0.4 },
        _ => GossipProtocol::Rand,
    };
    let mut sim = GossipSim::new(
        clients,
        GossipConfig { rounds: total, protocol, seed: spec.seed, ..Default::default() },
    );
    if let Some(t) = timed_dp(spec, total, dp) {
        sim.set_update_transform(t);
    }
    let rec = detailed_recorder();
    sim.set_recorder(rec.clone());
    let coalition = spec.coalition_size();
    let members: Vec<u32> = if spec.dynamics.sybils > 0 {
        dynamics.sybil_members()
    } else {
        (0..coalition).map(|i| (i * n / coalition.max(1)) as u32).collect()
    };
    if members.is_empty() {
        return Err(format!("{}: the all-placements gossip attack is not traced", spec.name));
    }
    let mut attack =
        GlCiaCoalition::new(cia, evaluator, n, &members, setup.truth_table(), setup.owner_table());
    attack.set_recorder(rec.clone());
    let strategy = if spec.dynamics.placement_warmup >= total {
        PlacementStrategy::Static
    } else {
        spec.dynamics.placement
    };
    let mut placement = PlacementEngine::new(strategy, spec.dynamics.placement_warmup, members, n);
    while sim.round() < total.min(limit) {
        let round_span = rec.span("round");
        if let Some(new_members) = placement.maybe_relocate(sim.round(), sim.traffic()) {
            let new_members = new_members.to_vec();
            attack.set_members(&new_members);
            dynamics.set_sybil_members(&new_members);
        }
        let t = Instant::now();
        let stats = {
            let mut timed = TimedAttack { inner: &mut attack, t: &mut trace.attack };
            let mut obs = PlacementObserver { inner: &mut timed, engine: &mut placement };
            let mut obs = GlDynamics { inner: &mut obs, dynamics: &mut dynamics };
            sim.step_evented(&mut obs, DeliveryPolicy::Lockstep)
        };
        trace.round_s.push(t.elapsed().as_secs_f64());
        trace.deliveries += stats.deliveries as u64;
        trace.bytes_materialized += stats.bytes_materialized;
        drop(rec.span("emit"));
        drop(round_span);
        rec.drain();
    }
    trace.record_recorder(&rec);
    trace.record_evaluator(attack.evaluator());
    trace.evals = attack.history().len();
    trace.max_aac = attack.outcome().max_aac;
    trace.utility = gmf_utility(setup, sim.nodes());
    Ok(sim.nodes()[0].agg().to_vec())
}

struct Args {
    suite: String,
    only: String,
    stop_after: Option<u64>,
    /// Time set-up only: no rounds, no probe.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut suite = None;
    let mut only = None;
    let mut stop_after = None;
    let mut setup_only = false;
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--setup-only" {
            setup_only = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or(format!("{} expects a value", argv[i]))?;
        match argv[i].as_str() {
            "--suite" => suite = Some(value.clone()),
            "--only" => only = Some(value.clone()),
            "--stop-after" => {
                stop_after = Some(value.parse::<u64>().map_err(|_| "--stop-after expects an integer")?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(Args {
        suite: suite.ok_or("--suite is required")?,
        only: only.ok_or("--only is required")?,
        stop_after,
        setup_only,
    })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let suite = named_suite(&args.suite, Scale::Paper, SCENARIO_SEED)
        .ok_or(format!("unknown built-in suite `{}`", args.suite))?;
    let spec = suite
        .expanded()?
        .into_iter()
        .find(|s| s.name == args.only)
        .ok_or(format!("no scenario named `{}` in suite `{}`", args.only, args.suite))?;
    spec.validate()?;
    if !matches!(spec.model, ModelKind::Gmf) {
        return Err(format!("{}: only GMF scenarios are traced", spec.name));
    }

    // Set-up is repeated so its median is stable; the last repetition's
    // population runs the traced rounds.
    let mut trace = Trace::default();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t = Instant::now();
        let setup = try_build_setup(spec.preset, spec.scale, spec.k_override, spec.seed)
            .map_err(|e| format!("{}: {e}", spec.name))?;
        trace.setup_build_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let clients = build_clients(&spec, &setup);
        trace.client_build_s.push(t.elapsed().as_secs_f64());
        built = Some((setup, clients));
    }
    let (setup, clients) = built.expect("at least one set-up repetition");
    if args.setup_only {
        return Ok(trace.to_json());
    }

    let limit = args.stop_after.unwrap_or(u64::MAX);
    let dp = Arc::new(TransformStats::default());
    let update = match spec.protocol {
        ProtocolKind::Fl => run_fl(&spec, &setup, clients, limit, &mut trace, &dp),
        ProtocolKind::RandGossip | ProtocolKind::PersGossip => {
            run_gl(&spec, &setup, clients, limit, &mut trace, &dp)?
        }
    };
    (trace.dp_run_s, trace.dp_run_calls) = dp.read();

    // The DP probe: a fixed number of clip+noise calls on a trained model's
    // parameters, through the same timed seam.
    let probe_stats = Arc::new(TransformStats::default());
    let probe = TimedTransform {
        inner: DpMechanism::with_target_epsilon(
            DP_PROBE_EPSILON,
            1e-6,
            setup.params.rounds(spec.protocol),
            1.0,
            2.0,
        ),
        stats: Arc::clone(&probe_stats),
    };
    let mut rng = StdRng::seed_from_u64(spec.seed);
    for _ in 0..DP_PROBE_CALLS {
        let mut buf = update.clone();
        probe.transform(&mut buf, &mut rng);
    }
    (trace.dp_probe_s, trace.dp_probe_calls) = probe_stats.read();
    Ok(trace.to_json())
}

fn main() -> ExitCode {
    match run() {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}

//! The round-synchronous gossip learning engine.

use crate::graph::{sample_exp_interval, ViewTable};
use cia_data::UserId;
use cia_models::parallel::par_zip_mut;
use cia_models::{
    Checkpointable, ClientStore, DeliveryPolicy, LivenessEvent, Participant, SharedModel,
    UpdateTransform,
};
use cia_obs::{Counter, Metric, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which gossip protocol to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GossipProtocol {
    /// Rand-Gossip \[12\]: uniform random peer sampling.
    Rand,
    /// Pers-Gossip \[5\]: performance-aware peer retention with uniform
    /// exploration.
    Pers {
        /// Fraction of the view refilled uniformly at random on refresh
        /// (the paper uses 0.4).
        exploration: f64,
    },
}

/// Gossip simulation configuration (paper defaults: `P = 3`, view refresh
/// `~ Exp(0.1)`, exploration 0.4).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Number of rounds.
    pub rounds: u64,
    /// Out-degree `P` of the communication graph.
    pub out_degree: usize,
    /// Rate of the exponential view-refresh interval distribution.
    pub view_refresh_rate: f64,
    /// The protocol variant.
    pub protocol: GossipProtocol,
    /// Probability that a node wakes (sends + aggregates + trains) in a
    /// round.
    pub wake_fraction: f64,
    /// Local training epochs per wake.
    pub local_epochs: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            rounds: 50,
            out_degree: 3,
            view_refresh_rate: 0.1,
            protocol: GossipProtocol::Rand,
            wake_fraction: 1.0,
            local_epochs: 1,
            seed: 0,
        }
    }
}

/// Per-round statistics handed to observers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GossipRoundStats {
    /// The completed round index.
    pub round: u64,
    /// Number of nodes that woke up.
    pub awake: usize,
    /// Number of model deliveries routed this round.
    pub deliveries: usize,
    /// Mean local training loss across awake nodes; `None` when every node
    /// slept (an all-offline round has no losses to average — a `0.0`
    /// sentinel would be indistinguishable from perfect convergence and
    /// silently deflate downstream loss averages).
    pub mean_loss: Option<f32>,
    /// Bytes of model state materialized for this round: the outgoing
    /// snapshot copies routed into inboxes (node state itself is permanently
    /// resident in gossip — every round mixes neighbors in place).
    pub bytes_materialized: u64,
}

/// Observes gossip model deliveries — the vantage point of a gossip
/// adversary, who sees the models delivered to nodes she controls.
pub trait GossipObserver {
    /// Called when a round begins.
    fn on_round_start(&mut self, round: u64) {
        let _ = round;
    }

    /// The protocol-agnostic liveness hook (shared with
    /// `cia_federated::RoundObserver`):
    ///
    /// * [`LivenessEvent::ActingSet`] arrives after the protocol's own wake
    ///   sampling with the round's tentative wake mask. Observers may clear
    ///   entries to model availability — churn, stragglers, node failures —
    ///   without the gossip loop knowing about participant dynamics (the
    ///   `cia-scenarios` dynamics layer plugs in here). Asleep nodes keep
    ///   accumulating their inbox, exactly like a natural sleep round.
    /// * [`LivenessEvent::Probe`] is the availability query consulted before
    ///   a node acts on its scheduled view refresh: an offline device cannot
    ///   re-sample peers, so clearing `available` defers the refresh (and,
    ///   under Pers-Gossip, preserves the `heard` personalization evidence
    ///   the refresh would consume) until the node's next available round.
    ///
    /// The default leaves both events untouched (everyone acts, everyone
    /// available), which reproduces the pre-dynamics behavior exactly.
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        let _ = event;
    }

    /// Called for every routed model delivery.
    fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
        let _ = (round, receiver, model);
    }

    /// Called when a round completes.
    fn on_round_end(&mut self, stats: &GossipRoundStats) {
        let _ = stats;
    }
}

/// A no-op observer for runs without an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullGossipObserver;

impl GossipObserver for NullGossipObserver {}

/// Serializable snapshot of a [`GossipSim`]'s protocol-side state
/// (checkpoint/resume of long runs; node parameters travel separately).
#[derive(Debug, Clone)]
pub struct GossipSimState {
    /// Rounds completed.
    pub round: u64,
    /// Next scheduled view-refresh round per node.
    pub refresh_at: Vec<u64>,
    /// Current out-views.
    pub views: Vec<Vec<u32>>,
    /// Undelivered inbox contents per node (asleep nodes accumulate).
    pub inboxes: Vec<Vec<SharedModel>>,
    /// Pers-Gossip `(sender, score)` candidates heard since the last refresh.
    pub heard: Vec<Vec<(u32, f32)>>,
    /// DP reference vectors (last sent `[emb | agg]` per node).
    pub prev_sent: Vec<Option<Vec<f32>>>,
    /// Accumulated per-node traffic counters.
    pub traffic: TrafficCounters,
}

/// Passive per-node traffic counters the simulation accumulates every round.
/// They never influence the protocol — they exist so observers with a
/// network vantage point (e.g. the adaptive sybil-placement engine in
/// `cia-scenarios`) can rank positions by observed traffic instead of
/// guessing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Models delivered to each node since round 0.
    pub received: Vec<u64>,
    /// Accumulated in-degree of the communication graph: each round, every
    /// out-view containing the node adds one (view-membership frequency).
    pub view_in_degree: Vec<u64>,
}

impl TrafficCounters {
    fn zeroed(n: usize) -> Self {
        TrafficCounters { received: vec![0; n], view_in_degree: vec![0; n] }
    }
}

/// Per-node bookkeeping, paired with the node in the parallel round passes.
struct PeerCtl {
    inbox: Vec<SharedModel>,
    /// Reference shared vector for DP updates (last sent `[emb | agg]`).
    prev_sent: Option<Vec<f32>>,
    /// Pers-Gossip `(sender, score)` candidates heard since the node's last
    /// view refresh, which consumes them.
    heard: Vec<(u32, f32)>,
    awake: bool,
    loss: f32,
}

/// The gossip learning simulation.
pub struct GossipSim<P: Participant> {
    /// Node storage. Gossip requires a dense (fully resident) store: every
    /// round each awake node mixes its neighbors' models into its *own*
    /// persistent parameters, so there is no global aggregate to rebuild a
    /// lazy client from — unlike FedAvg, where untouched clients are exactly
    /// reconstructible from seed + global (see `cia_federated::FedAvg::sharded`).
    store: ClientStore<P>,
    ctl: Vec<PeerCtl>,
    views: ViewTable,
    refresh_at: Vec<u64>,
    cfg: GossipConfig,
    transform: Option<Box<dyn UpdateTransform>>,
    traffic: TrafficCounters,
    round: u64,
    /// Recycled model carcasses: aggregated inbox snapshots return here and
    /// the next round's outgoing snapshots reuse their buffers, so a steady
    /// round allocates no catalog-sized vectors.
    pool: Vec<SharedModel>,
    /// Reused per-round outgoing-slot table.
    outgoing: Vec<Option<SharedModel>>,
    /// The observability sink: phase spans, wire/delivery counters and the
    /// per-node mix/train latency histograms.
    obs: Recorder,
}

impl<P: Participant> GossipSim<P> {
    /// Creates a simulation over `nodes`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `out_degree + 1` nodes are given, configuration
    /// values are out of range, or nodes disagree on parameter sizes.
    pub fn new(nodes: Vec<P>, cfg: GossipConfig) -> Self {
        assert!(nodes.len() > cfg.out_degree, "need more nodes than the out-degree");
        let len = nodes[0].agg_len();
        assert!(nodes.iter().all(|n| n.agg_len() == len), "nodes must share a parameter layout");
        assert!(
            cfg.wake_fraction > 0.0 && cfg.wake_fraction <= 1.0,
            "wake fraction must be in (0, 1]"
        );
        if let GossipProtocol::Pers { exploration } = cfg.protocol {
            assert!((0.0..=1.0).contains(&exploration), "exploration must be in [0, 1]");
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let views = ViewTable::new(nodes.len(), cfg.out_degree, &mut rng);
        let refresh_at = (0..nodes.len())
            .map(|_| sample_exp_interval(cfg.view_refresh_rate, &mut rng))
            .collect();
        let ctl = (0..nodes.len())
            .map(|_| PeerCtl {
                inbox: Vec::new(),
                prev_sent: None,
                heard: Vec::new(),
                awake: false,
                loss: 0.0,
            })
            .collect();
        let traffic = TrafficCounters::zeroed(nodes.len());
        let outgoing = (0..nodes.len()).map(|_| None).collect();
        GossipSim {
            store: ClientStore::dense(nodes),
            ctl,
            views,
            refresh_at,
            cfg,
            transform: None,
            traffic,
            round: 0,
            pool: Vec::new(),
            outgoing,
            obs: Recorder::new(),
        }
    }

    /// Installs the metrics/trace sink this simulation reports into. The
    /// scenario runner installs one recorder per scenario; standalone
    /// simulations keep their own default recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    /// The metrics/trace sink this simulation reports into.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Installs a local update transform (DP-SGD) applied to every outgoing
    /// model.
    pub fn set_update_transform(&mut self, transform: Box<dyn UpdateTransform>) {
        self.transform = Some(transform);
    }

    /// The configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.cfg
    }

    /// Creates a simulation from a [`ClientStore`].
    ///
    /// # Panics
    ///
    /// Panics if the store is sharded — gossip has no global aggregate to
    /// lazily rebuild clients from (see the `store` field docs) — plus
    /// everything [`GossipSim::new`] panics on.
    pub fn from_store(mut store: ClientStore<P>, cfg: GossipConfig) -> Self {
        let nodes = store.as_dense_mut().map(std::mem::take).expect(
            "gossip requires a dense client store: nodes mix neighbors into resident state",
        );
        Self::new(nodes, cfg)
    }

    /// The nodes (evaluation access).
    pub fn nodes(&self) -> &[P] {
        self.store.as_dense().expect("gossip stores are dense")
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The current out-view of node `u` (testing/diagnostics).
    pub fn view_of(&self, u: u32) -> &[u32] {
        self.views.view_of(u)
    }

    /// The accumulated per-node traffic counters (observed-traffic vantage
    /// point for placement decisions; purely passive).
    pub fn traffic(&self) -> &TrafficCounters {
        &self.traffic
    }

    /// Mutable access to the nodes (checkpoint resume restores each
    /// participant's private state in place).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        self.store.as_dense_mut().expect("gossip stores are dense")
    }

    /// Runs one gossip round: refresh views, send, route, aggregate, train.
    pub fn step(&mut self, observer: &mut dyn GossipObserver) -> GossipRoundStats {
        let t = self.round;
        let obs = self.obs.clone();
        let bytes0 = obs.counter(Counter::BytesOnWire);
        let n = self.store.len();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ t.wrapping_mul(0xA076_1D64_78BD_642F));
        observer.on_round_start(t);

        // 1. View refreshes due this round. Offline nodes (per the
        // observer's availability query) defer theirs: `refresh_at` stays in
        // the past and fires on the node's first available round.
        let refresh_span = obs.span("refresh");
        let keep = match self.cfg.protocol {
            GossipProtocol::Rand => 0,
            GossipProtocol::Pers { exploration } => {
                ((1.0 - exploration) * self.cfg.out_degree as f64).ceil() as usize
            }
        };
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        for u in 0..n as u32 {
            if self.refresh_at[u as usize] <= t && probe_available(observer, t, u) {
                match self.cfg.protocol {
                    GossipProtocol::Rand => self.views.refresh_random(u, &mut rng),
                    GossipProtocol::Pers { .. } => {
                        let mut scored = std::mem::take(&mut self.ctl[u as usize].heard);
                        self.views.refresh_personalized(u, &mut scored, keep, &mut rng);
                    }
                }
                self.refresh_at[u as usize] =
                    t + sample_exp_interval(self.cfg.view_refresh_rate, &mut rng);
            }
        }

        // Traffic accounting: the in-degree of the graph the round's sends
        // will be routed over (after refreshes, before sending).
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        for u in 0..n as u32 {
            for &v in self.views.view_of(u) {
                self.traffic.view_in_degree[v as usize] += 1;
            }
        }
        drop(refresh_span);

        // 2. Wake set (drawn first to keep the RNG stream stable, then
        // filtered through the observer's availability hook).
        let sample_span = obs.span("sample");
        let mut wake: Vec<bool> = (0..n)
            .map(|_| self.cfg.wake_fraction >= 1.0 || rng.gen::<f64>() < self.cfg.wake_fraction)
            .collect();
        observer.on_liveness(LivenessEvent::ActingSet { round: t, mask: &mut wake });
        for (c, &w) in self.ctl.iter_mut().zip(&wake) {
            c.awake = w;
        }
        drop(sample_span);

        // 3. Send phase: snapshot (+ DP transform) in parallel. Outgoing
        // slots are seeded with recycled carcasses from the pool so
        // `snapshot_into` reuses their buffers.
        let cfg = self.cfg;
        let transform = self.transform.as_deref();
        let awake: Vec<bool> = self.ctl.iter().map(|c| c.awake).collect();
        let destinations: Vec<u32> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..n).map(|u| self.views.random_neighbor(u as u32, &mut rng)).collect();
        let send_span = obs.span("send");
        for (slot, &w) in self.outgoing.iter_mut().zip(&awake) {
            if w && slot.is_none() {
                *slot = self.pool.pop();
            }
        }
        {
            let nodes = self.store.as_dense().expect("gossip stores are dense");
            let ctl = &mut self.ctl;
            // Parallel over (ctl, outgoing) pairs; nodes are read-only here.
            par_zip_mut(ctl, &mut self.outgoing, |i, c, slot| {
                if !c.awake {
                    *slot = None;
                    return;
                }
                match slot {
                    Some(snap) => nodes[i].snapshot_into(t, snap),
                    None => *slot = Some(nodes[i].snapshot(t)),
                }
                let snap = slot.as_mut().expect("just filled");
                if let Some(tr) = transform {
                    let mut crng = StdRng::seed_from_u64(
                        cfg.seed ^ (t << 22) ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
                    );
                    apply_gossip_transform(tr, snap, &mut c.prev_sent, &mut crng);
                }
            });
        }
        drop(send_span);

        // 4. Routing (serial: observer callbacks + inbox pushes). Each
        // delivered snapshot is a fresh materialization of model state for
        // this round — the pool only recycles allocations, not contents.
        let route_span = obs.span("route");
        let mut deliveries = 0usize;
        for (u, slot) in self.outgoing.iter_mut().enumerate() {
            if let Some(snap) = slot.take() {
                let dest = destinations[u];
                obs.add(Counter::BytesOnWire, 4 * snap.len() as u64);
                obs.inc(Counter::InboxDeliveries);
                observer.on_delivery(t, UserId::new(dest), &snap);
                self.ctl[dest as usize].inbox.push(snap);
                self.traffic.received[dest as usize] += 1;
                deliveries += 1;
            }
        }
        drop(route_span);

        // 5. Neighbor mixing + local training on awake nodes, in one fused
        // parallel pass under the `train` span. The in-place `mix_agg`
        // replaces materializing the neighborhood mean. Mix and train stay
        // fused deliberately: a node's aggregate is catalog-sized (~54 KB
        // at paper scale), so training right after mixing reuses it while
        // cache-hot — separate passes stream the whole population's state
        // through memory twice (~13% slower on the paper-scale round). The
        // per-node mix/train cost split is still observable through the
        // `mix_us` / `train_us` histograms, which bracket the two halves
        // with detail-gated clock reads.
        let is_pers = matches!(self.cfg.protocol, GossipProtocol::Pers { .. });
        let train_span = obs.span("train");
        {
            let nodes = self.store.as_dense_mut().expect("gossip stores are dense");
            par_zip_mut(nodes, &mut self.ctl, |i, node, c| {
                if !c.awake {
                    return;
                }
                if !c.inbox.is_empty() {
                    let t0 = obs.clock();
                    if is_pers {
                        for m in &c.inbox {
                            c.heard.push((m.owner.raw(), node.evaluate_model(m)));
                        }
                    }
                    let rows: Vec<&[f32]> = c.inbox.iter().map(|m| m.agg.as_slice()).collect();
                    node.mix_agg(&rows);
                    obs.observe_since(Metric::MixMicros, t0);
                }
                let t0 = obs.clock();
                let mut crng = StdRng::seed_from_u64(
                    cfg.seed ^ (t << 24) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                let mut loss = 0.0;
                for _ in 0..cfg.local_epochs.max(1) {
                    loss = node.train_local(&mut crng);
                }
                c.loss = loss;
                obs.observe_since(Metric::TrainMicros, t0);
            });
        }
        drop(train_span);

        // Consumed inboxes drain into the pool afterwards (serially — the
        // pool is shared).
        for c in self.ctl.iter_mut().filter(|c| c.awake) {
            self.pool.append(&mut c.inbox);
        }
        self.pool.truncate(n);

        let awake_count = awake.iter().filter(|&&a| a).count();
        obs.add(Counter::ClientsTrained, awake_count as u64);
        let loss_sum: f32 = self.ctl.iter().filter(|c| c.awake).map(|c| c.loss).sum();
        let stats = GossipRoundStats {
            round: t,
            awake: awake_count,
            deliveries,
            mean_loss: (awake_count > 0).then(|| loss_sum / awake_count as f32),
            bytes_materialized: obs.counter(Counter::BytesOnWire) - bytes0,
        };
        let evaluate_span = obs.span("evaluate");
        observer.on_round_end(&stats);
        drop(evaluate_span);
        self.round += 1;
        stats
    }

    /// Runs all configured rounds.
    pub fn run(&mut self, observer: &mut dyn GossipObserver) {
        for _ in 0..self.cfg.rounds {
            self.step(observer);
        }
    }

    /// Forwards to [`GossipSim::step`]. Exists only for the benchmark tracer
    /// (`perfbench/tracer`) and goes away in the next benchmark change.
    #[doc(hidden)]
    pub fn step_evented(
        &mut self,
        observer: &mut dyn GossipObserver,
        _: DeliveryPolicy,
    ) -> GossipRoundStats {
        self.step(observer)
    }
}

impl<P: Participant> Checkpointable for GossipSim<P> {
    type State = GossipSimState;

    /// Snapshot of the protocol-side state — round counter, views, refresh
    /// schedule and per-node mailboxes. Per-round
    /// RNG streams are derived from `(seed, round)`, so no generator state
    /// needs saving; node parameters are captured separately via
    /// [`cia_models::Participant::state_vec`].
    fn export_state(&self) -> GossipSimState {
        GossipSimState {
            round: self.round,
            refresh_at: self.refresh_at.clone(),
            views: self.views.views().to_vec(),
            inboxes: self.ctl.iter().map(|c| c.inbox.clone()).collect(),
            traffic: self.traffic.clone(),
            heard: self.ctl.iter().map(|c| c.heard.clone()).collect(),
            prev_sent: self.ctl.iter().map(|c| c.prev_sent.clone()).collect(),
        }
    }

    /// Restores a state captured by `export_state` on a simulation
    /// constructed with the same nodes and configuration.
    ///
    /// # Panics
    ///
    /// Panics if any table is not aligned with the node count or the views
    /// are malformed.
    fn restore_state(&mut self, state: GossipSimState) {
        let n = self.store.len();
        assert_eq!(state.refresh_at.len(), n, "one refresh time per node");
        assert_eq!(state.inboxes.len(), n, "one inbox per node");
        assert_eq!(state.heard.len(), n, "one heard list per node");
        assert_eq!(state.prev_sent.len(), n, "one DP reference per node");
        self.views.restore_views(state.views);
        self.round = state.round;
        self.refresh_at = state.refresh_at;
        let per_node = state.inboxes.into_iter().zip(state.prev_sent).zip(state.heard);
        for (c, ((inbox, prev), heard)) in self.ctl.iter_mut().zip(per_node) {
            c.inbox = inbox;
            c.prev_sent = prev;
            c.heard = heard;
        }
        assert_eq!(state.traffic.received.len(), n, "one received counter per node");
        assert_eq!(state.traffic.view_in_degree.len(), n, "one in-degree counter per node");
        self.traffic = state.traffic;
    }
}

/// Availability probe through the unified liveness hook.
fn probe_available(observer: &mut dyn GossipObserver, round: u64, node: u32) -> bool {
    let mut available = true;
    observer.on_liveness(LivenessEvent::Probe { round, node, available: &mut available });
    available
}

/// DP in gossip: the outgoing `[emb | agg]` vector is treated as an update
/// relative to the previously sent vector (zero for the first send), clipped
/// and noised, then rewritten. `prev_sent` is updated to the new clean value.
fn apply_gossip_transform(
    transform: &dyn UpdateTransform,
    snap: &mut SharedModel,
    prev_sent: &mut Option<Vec<f32>>,
    rng: &mut StdRng,
) {
    let emb_len = snap.owner_emb.as_ref().map_or(0, Vec::len);
    let mut current = vec![0.0f32; emb_len + snap.agg.len()];
    if let Some(emb) = &snap.owner_emb {
        current[..emb_len].copy_from_slice(emb);
    }
    current[emb_len..].copy_from_slice(&snap.agg);

    let reference = prev_sent.get_or_insert_with(|| current.clone());
    let mut update: Vec<f32> = current.iter().zip(reference.iter()).map(|(c, r)| c - r).collect();
    transform.transform(&mut update, rng);

    if let Some(emb) = &mut snap.owner_emb {
        for k in 0..emb_len {
            emb[k] = reference[k] + update[k];
        }
    }
    for (k, a) in snap.agg.iter_mut().enumerate() {
        *a = reference[emb_len + k] + update[emb_len + k];
    }
    *prev_sent = Some(current);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic toy participant: params drift towards a per-community
    /// fixed point during "training", and `evaluate_model` prefers models
    /// close to the node's own fixed point — enough to exercise the protocol
    /// without real ML.
    struct TestNode {
        user: UserId,
        params: Vec<f32>,
        target: Vec<f32>,
    }

    impl TestNode {
        fn new(user: u32, community: usize) -> Self {
            let mut target = vec![0.0f32; 8];
            target[community % 8] = 1.0;
            TestNode { user: UserId::new(user), params: vec![0.0; 8], target }
        }
    }

    impl Participant for TestNode {
        fn user(&self) -> UserId {
            self.user
        }
        fn agg_len(&self) -> usize {
            8
        }
        fn agg(&self) -> &[f32] {
            &self.params
        }
        fn absorb_agg(&mut self, agg: &[f32]) {
            self.params.copy_from_slice(agg);
        }
        fn train_local(&mut self, _rng: &mut StdRng) -> f32 {
            let mut dist = 0.0f32;
            for (p, t) in self.params.iter_mut().zip(&self.target) {
                *p += 0.5 * (t - *p);
                dist += (t - *p) * (t - *p);
            }
            dist
        }
        fn snapshot(&self, round: u64) -> SharedModel {
            SharedModel { owner: self.user, round, owner_emb: None, agg: self.params.clone() }
        }
        fn num_examples(&self) -> usize {
            1
        }
        fn evaluate_model(&self, model: &SharedModel) -> f32 {
            // cia-lint: allow(D07, sequential left-to-right fold over a slice in index order; the reduction order is fixed)
            -model.agg.iter().zip(&self.target).map(|(a, t)| (a - t) * (a - t)).sum::<f32>()
        }
    }

    fn sim(n: usize, cfg: GossipConfig) -> GossipSim<TestNode> {
        // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
        let nodes = (0..n).map(|u| TestNode::new(u as u32, u % 4)).collect();
        GossipSim::new(nodes, cfg)
    }

    #[derive(Default)]
    struct Recorder {
        deliveries: Vec<(u64, u32, u32)>,
        stats: Vec<GossipRoundStats>,
    }

    impl GossipObserver for Recorder {
        fn on_delivery(&mut self, round: u64, receiver: UserId, model: &SharedModel) {
            self.deliveries.push((round, receiver.raw(), model.owner.raw()));
        }
        fn on_round_end(&mut self, stats: &GossipRoundStats) {
            self.stats.push(stats.clone());
        }
    }

    #[test]
    fn every_awake_node_sends_exactly_one_model() {
        let mut s = sim(20, GossipConfig { rounds: 5, seed: 3, ..Default::default() });
        let mut rec = Recorder::default();
        s.run(&mut rec);
        for st in &rec.stats {
            assert_eq!(st.awake, 20);
            assert_eq!(st.deliveries, 20);
        }
        // Nobody delivers to itself.
        assert!(rec.deliveries.iter().all(|&(_, recv, sender)| recv != sender));
    }

    #[test]
    fn deliveries_follow_views() {
        let mut s = sim(15, GossipConfig { rounds: 1, seed: 7, ..Default::default() });
        // Record views before the round; deliveries of round 0 must respect
        // them (views refresh only at their scheduled time > 0).
        let views: Vec<Vec<u32>> = (0..15).map(|u| s.view_of(u).to_vec()).collect();
        let mut rec = Recorder::default();
        s.run(&mut rec);
        for &(_, recv, sender) in &rec.deliveries {
            assert!(
                views[sender as usize].contains(&recv),
                "delivery {sender}->{recv} not in view {:?}",
                views[sender as usize]
            );
        }
    }

    #[test]
    fn partial_wake_fraction_accumulates_inboxes() {
        let mut s =
            sim(30, GossipConfig { rounds: 10, wake_fraction: 0.5, seed: 1, ..Default::default() });
        let mut rec = Recorder::default();
        s.run(&mut rec);
        for st in &rec.stats {
            assert!(st.awake < 30, "round {}: awake {}", st.round, st.awake);
            assert_eq!(st.deliveries, st.awake);
        }
    }

    #[test]
    fn training_converges_towards_targets() {
        let mut s = sim(16, GossipConfig { rounds: 30, seed: 5, ..Default::default() });
        let mut rec = Recorder::default();
        s.run(&mut rec);
        let first = rec.stats.first().unwrap().mean_loss.expect("nodes awake");
        let last = rec.stats.last().unwrap().mean_loss.expect("nodes awake");
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = sim(12, GossipConfig { rounds: 6, seed: 11, ..Default::default() });
            let mut rec = Recorder::default();
            s.run(&mut rec);
            (rec.deliveries, s.nodes()[3].params.clone())
        };
        let (d1, p1) = run();
        let (d2, p2) = run();
        assert_eq!(d1, d2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn pers_gossip_biases_views_towards_own_community() {
        // 4 communities of 10; after plenty of rounds, Pers-Gossip views
        // should contain more same-community peers than the ~23% a uniform
        // view would give.
        let cfg = GossipConfig {
            rounds: 120,
            protocol: GossipProtocol::Pers { exploration: 0.4 },
            seed: 2,
            ..Default::default()
        };
        let mut s = sim(40, cfg);
        s.run(&mut NullGossipObserver);
        let mut same = 0usize;
        let mut total = 0usize;
        for u in 0..40u32 {
            for &v in s.view_of(u) {
                total += 1;
                if v % 4 == u % 4 {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(frac > 0.35, "same-community view fraction only {frac}");
    }

    #[test]
    fn rand_gossip_views_stay_uniform() {
        let mut s = sim(40, GossipConfig { rounds: 120, seed: 2, ..Default::default() });
        s.run(&mut NullGossipObserver);
        let mut same = 0usize;
        let mut total = 0usize;
        for u in 0..40u32 {
            for &v in s.view_of(u) {
                total += 1;
                if v % 4 == u % 4 {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        assert!(frac < 0.4, "rand-gossip views unexpectedly clustered: {frac}");
    }

    #[test]
    fn dp_transform_perturbs_deliveries() {
        use cia_defenses::{DpConfig, DpMechanism};
        let run = |noisy: bool| {
            let mut s = sim(10, GossipConfig { rounds: 2, seed: 4, ..Default::default() });
            if noisy {
                s.set_update_transform(Box::new(DpMechanism::new(DpConfig {
                    clip: 0.5,
                    noise_multiplier: 1.0,
                })));
            }
            let mut rec = Recorder::default();
            s.run(&mut rec);
            s.nodes()[0].params.clone()
        };
        assert_ne!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "need more nodes")]
    fn rejects_too_few_nodes() {
        let _ = sim(3, GossipConfig::default());
    }

    /// Clears every odd node from the wake set via the availability hook.
    #[derive(Default)]
    struct OddSleeper {
        stats: Vec<GossipRoundStats>,
        deliveries: Vec<u32>,
    }

    impl GossipObserver for OddSleeper {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::ActingSet { mask, .. } = event {
                for (u, m) in mask.iter_mut().enumerate() {
                    if u % 2 == 1 {
                        *m = false;
                    }
                }
            }
        }
        fn on_delivery(&mut self, _round: u64, _receiver: UserId, model: &SharedModel) {
            self.deliveries.push(model.owner.raw());
        }
        fn on_round_end(&mut self, stats: &GossipRoundStats) {
            self.stats.push(stats.clone());
        }
    }

    #[test]
    fn wake_hook_filters_senders() {
        let mut s = sim(20, GossipConfig { rounds: 4, seed: 6, ..Default::default() });
        let mut obs = OddSleeper::default();
        s.run(&mut obs);
        for st in &obs.stats {
            assert_eq!(st.awake, 10, "only even nodes wake");
            assert_eq!(st.deliveries, 10);
        }
        assert!(obs.deliveries.iter().all(|u| u % 2 == 0), "only awake nodes send");
    }

    /// Declares node 5 permanently unavailable (refresh deferral only; the
    /// wake set is left alone so the rest of the round is unchanged).
    struct FiveOffline;

    impl GossipObserver for FiveOffline {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::Probe { node, available, .. } = event {
                if node == 5 {
                    *available = false;
                }
            }
        }
    }

    #[test]
    fn offline_nodes_defer_view_refreshes() {
        // A refresh rate of 1.0 schedules refreshes nearly every round, so
        // over 12 rounds every available node re-samples its view at least
        // once with overwhelming probability — while node 5's view must
        // stay exactly its initial one.
        let cfg =
            GossipConfig { rounds: 12, view_refresh_rate: 1.0, seed: 9, ..Default::default() };
        let mut s = sim(16, cfg);
        let initial: Vec<Vec<u32>> = (0..16).map(|u| s.view_of(u).to_vec()).collect();
        s.run(&mut FiveOffline);
        assert_eq!(s.view_of(5), initial[5].as_slice(), "offline node refreshed its view");
        let changed = (0..16u32)
            .filter(|&u| u != 5 && s.view_of(u) != initial[u as usize].as_slice())
            .count();
        assert!(changed > 10, "only {changed} available nodes refreshed");
    }

    #[test]
    fn traffic_counters_account_for_every_delivery_and_view_slot() {
        let rounds = 6;
        let mut s = sim(20, GossipConfig { rounds, seed: 3, ..Default::default() });
        let mut rec = Recorder::default();
        s.run(&mut rec);
        let traffic = s.traffic();
        // Every routed delivery is counted exactly once.
        let received: u64 = traffic.received.iter().sum();
        assert_eq!(received as usize, rec.deliveries.len());
        for (u, &count) in traffic.received.iter().enumerate() {
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            let delivered = rec.deliveries.iter().filter(|&&(_, recv, _)| recv == u as u32).count();
            assert_eq!(count as usize, delivered, "node {u}");
        }
        // Each round accumulates exactly out_degree view slots per node.
        let in_degree: u64 = traffic.view_in_degree.iter().sum();
        assert_eq!(in_degree, rounds * 20 * s.config().out_degree as u64);
        // And the counters survive a checkpoint roundtrip.
        let state = s.export_state();
        assert_eq!(&state.traffic, traffic);
        let mut fresh = sim(20, GossipConfig { rounds, seed: 3, ..Default::default() });
        let traffic = traffic.clone();
        fresh.restore_state(state);
        assert_eq!(fresh.traffic(), &traffic);
    }

    #[test]
    fn recorder_counts_wire_bytes_and_spans_phases() {
        let rounds = 5u64;
        let mut s = sim(20, GossipConfig { rounds, seed: 3, ..Default::default() });
        let rec = cia_obs::Recorder::new();
        rec.set_detail(true);
        s.set_recorder(rec.clone());
        let mut tape = Recorder::default();
        s.run(&mut tape);
        assert_eq!(rec.counter(Counter::InboxDeliveries) as usize, tape.deliveries.len());
        assert_eq!(rec.counter(Counter::ClientsTrained), rounds * 20);
        // Every delivery carries the 8-float test model: 32 bytes, and the
        // stats field mirrors the counter delta exactly.
        assert_eq!(rec.counter(Counter::BytesOnWire), 32 * rec.counter(Counter::InboxDeliveries));
        let stat_bytes: u64 = tape.stats.iter().map(|s| s.bytes_materialized).sum();
        assert_eq!(stat_bytes, rec.counter(Counter::BytesOnWire));
        assert_eq!(rec.histogram(Metric::TrainMicros).count(), rounds * 20);
        // The fused mix+train pass still splits per-node cost into the two
        // histograms: one mix observation per (round, node-with-mail), so
        // the count is positive and bounded by the delivery count.
        let mixes = rec.histogram(Metric::MixMicros).count();
        assert!(mixes > 0, "mix cost was never observed");
        assert!(mixes <= rec.counter(Counter::InboxDeliveries));
        let chunk = rec.drain();
        for phase in ["refresh", "sample", "send", "route", "train", "evaluate"] {
            assert_eq!(
                chunk.spans.iter().filter(|s| s.name == phase).count(),
                rounds as usize,
                "one {phase} span per round"
            );
        }
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        // A detail-enabled recorder (spans, histograms, per-node mix/train
        // clock reads) must leave the protocol bit-identical to an
        // untraced run.
        let cfg = GossipConfig {
            rounds: 8,
            wake_fraction: 0.6,
            protocol: GossipProtocol::Pers { exploration: 0.4 },
            seed: 17,
            ..Default::default()
        };
        let run = |traced: bool| {
            let mut s = sim(16, cfg);
            if traced {
                let rec = cia_obs::Recorder::new();
                rec.set_detail(true);
                s.set_recorder(rec);
            }
            let mut tape = Recorder::default();
            s.run(&mut tape);
            let params: Vec<Vec<f32>> = s.nodes().iter().map(|n| n.params.clone()).collect();
            (tape.deliveries, params)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn restore_replays_identically() {
        let cfg = GossipConfig { rounds: 8, wake_fraction: 0.7, seed: 21, ..Default::default() };
        let mut straight = sim(14, cfg);
        straight.run(&mut NullGossipObserver);

        let mut first = sim(14, cfg);
        for _ in 0..3 {
            first.step(&mut NullGossipObserver);
        }
        let proto = first.export_state();
        let params: Vec<Vec<f32>> = first.nodes().iter().map(Participant::state_vec).collect();

        let mut resumed = sim(14, cfg);
        resumed.restore_state(proto);
        for (node, p) in resumed.nodes_mut().iter_mut().zip(&params) {
            node.restore_state(p);
        }
        for _ in 3..8 {
            resumed.step(&mut NullGossipObserver);
        }
        for (a, b) in straight.nodes().iter().zip(resumed.nodes()) {
            assert_eq!(a.params, b.params);
        }
        assert_eq!(straight.round(), resumed.round());
    }
}

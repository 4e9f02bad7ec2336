//! The round-synchronous gossip learning engine.

use crate::graph::{sample_exp_interval, ViewTable};
use cia_data::UserId;
use cia_models::parallel::par_zip_mut;
use cia_models::{
    apply_update_transform, Checkpointable, DeliveryPolicy, LivenessEvent, Participant,
    SharedModel, UpdateTransform,
};
use cia_obs::{Counter, Metric, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which gossip protocol to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
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

/// Out-degree `P` of the communication graph (§V-B).
const OUT_DEGREE: usize = 3;

/// Gossip simulation configuration. The paper's graph constants are fixed:
/// out-degree `P = 3`, view refresh every `~ Exp(0.1)` rounds, and one local
/// epoch per wake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Number of rounds.
    pub rounds: u64,
    /// The protocol variant.
    pub protocol: GossipProtocol,
    /// Simulation seed.
    pub seed: u64,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig { rounds: 50, protocol: GossipProtocol::Rand, seed: 0 }
    }
}

/// Per-round statistics handed to observers.
#[derive(Debug, Clone, PartialEq)]
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
    /// Bytes of model state delivered this round: the wire volume of the
    /// routed pushes (the round's `bytes_on_wire` delta). Most pushes lend
    /// the sender's buffer instead of copying it; the copies a round does
    /// make are metered by `Counter::BytesCopied`.
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
    /// * [`LivenessEvent::ActingSet`] arrives once per round with an
    ///   all-`true` wake mask: the observer alone decides who sleeps.
    ///   Observers may clear entries to model availability — churn,
    ///   stragglers, partial participation, node failures — without the
    ///   gossip loop knowing about participant dynamics (the `cia-scenarios`
    ///   dynamics layer plugs in here). Asleep nodes keep accumulating their
    ///   inbox until they wake.
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

/// Per-node receive-side bookkeeping, paired with the node in the merge
/// pass.
struct PeerCtl {
    /// Copies of the models delivered while the node slept, in delivery
    /// order; the node mixes them on its next wake.
    inbox: Vec<SharedModel>,
    /// Senders whose pushes reach the node this round (awake receivers
    /// only), in delivery order. The models stay in the senders' outboxes.
    mail: Vec<u32>,
    /// Pers-Gossip `(sender, score)` candidates heard since the node's last
    /// view refresh, which consumes them.
    heard: Vec<(u32, f32)>,
    awake: bool,
    loss: f32,
}

/// Per-node send-side state, paired with the node in the send pass and
/// read by every receiver in the merge pass.
#[derive(Default)]
struct Outbox {
    /// This round's push (`None` while the node sleeps). When `lent`, its
    /// aggregate is the node's own pre-round buffer until the merge.
    sent: Option<SharedModel>,
    /// Whether the node lent its aggregate to `sent` instead of copying it.
    lent: bool,
    /// Reference shared vector for DP updates (last sent clean
    /// `[emb | agg]`).
    prev_sent: Option<Vec<f32>>,
}

impl Outbox {
    /// The node's clean pre-round aggregate: the pushed one, or under DP,
    /// which rewrote the push, the tail of the reference it just set.
    fn own(&self, dp: bool) -> &[f32] {
        let sent = &self.sent.as_ref().expect("an awake node pushed a model").agg;
        match &self.prev_sent {
            Some(prev) if dp => &prev[prev.len() - sent.len()..],
            _ => sent,
        }
    }
}

/// The gossip learning simulation.
pub struct GossipSim<P: Participant> {
    /// The nodes, indexed by user id. Every round each awake node rebuilds
    /// its persistent parameters from its push and its neighbors' models.
    nodes: Vec<P>,
    ctl: Vec<PeerCtl>,
    outbox: Vec<Outbox>,
    views: ViewTable,
    refresh_at: Vec<u64>,
    cfg: GossipConfig,
    transform: Option<Box<dyn UpdateTransform>>,
    traffic: TrafficCounters,
    round: u64,
    /// Recycled model carcasses: merged pushes and drained held inboxes
    /// return here, and the next round's pushes and held copies reuse their
    /// buffers, so a steady round allocates no catalog-sized vectors.
    pool: Vec<SharedModel>,
    /// The observability sink: phase spans, wire/delivery counters and the
    /// per-node mix/train latency histograms.
    obs: Recorder,
}

impl<P: Participant> GossipSim<P> {
    /// Creates a simulation over `nodes`, drawing each node's aggregate
    /// ([`Participant::draw_agg`]): a gossip node keeps its own for the
    /// whole run.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `P + 1 = 4` nodes are given, the Pers-Gossip
    /// exploration share is outside `[0, 1]`, or nodes disagree on parameter
    /// sizes.
    pub fn new(mut nodes: Vec<P>, cfg: GossipConfig) -> Self {
        assert!(nodes.len() > OUT_DEGREE, "need more nodes than the out-degree");
        let len = nodes[0].agg_len();
        assert!(nodes.iter().all(|n| n.agg_len() == len), "nodes must share a parameter layout");
        for node in &mut nodes {
            node.draw_agg();
        }
        if let GossipProtocol::Pers { exploration } = cfg.protocol {
            assert!((0.0..=1.0).contains(&exploration), "exploration must be in [0, 1]");
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let views = ViewTable::new(nodes.len(), OUT_DEGREE, &mut rng);
        let refresh_at = (0..nodes.len()).map(|_| sample_exp_interval(&mut rng)).collect();
        let ctl = (0..nodes.len())
            .map(|_| PeerCtl {
                inbox: Vec::new(),
                mail: Vec::new(),
                heard: Vec::new(),
                awake: false,
                loss: 0.0,
            })
            .collect();
        let traffic = TrafficCounters::zeroed(nodes.len());
        let outbox = (0..nodes.len()).map(|_| Outbox::default()).collect();
        GossipSim {
            nodes,
            ctl,
            outbox,
            views,
            refresh_at,
            cfg,
            transform: None,
            traffic,
            round: 0,
            pool: Vec::new(),
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

    /// The nodes (evaluation access).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
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
        &mut self.nodes
    }

    /// Runs one gossip round: refresh views, send, route, aggregate, train.
    pub fn step(&mut self, observer: &mut dyn GossipObserver) -> GossipRoundStats {
        let t = self.round;
        let obs = self.obs.clone();
        let bytes0 = obs.counter(Counter::BytesOnWire);
        let n = self.nodes.len();
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ t.wrapping_mul(0xA076_1D64_78BD_642F));
        observer.on_round_start(t);

        // 1. View refreshes due this round. Offline nodes (per the
        // observer's availability query) defer theirs: `refresh_at` stays in
        // the past and fires on the node's first available round.
        let refresh_span = obs.span("refresh");
        let keep = match self.cfg.protocol {
            GossipProtocol::Rand => 0,
            GossipProtocol::Pers { exploration } => {
                ((1.0 - exploration) * OUT_DEGREE as f64).ceil() as usize
            }
        };
        // cia-lint: allow(D05, n is the node count; gossip node ids are u32)
        for u in 0..n as u32 {
            if self.refresh_at[u as usize] <= t && probe_available(observer, t, u) {
                match self.cfg.protocol {
                    GossipProtocol::Rand => self.views.refresh_random(u, &mut rng),
                    GossipProtocol::Pers { .. } => {
                        let mut scored = std::mem::take(&mut self.ctl[u as usize].heard);
                        self.views.refresh_personalized(u, &mut scored, keep, &mut rng);
                    }
                }
                self.refresh_at[u as usize] = t + sample_exp_interval(&mut rng);
            }
        }

        // Traffic accounting: the in-degree of the graph the round's sends
        // will be routed over (after refreshes, before sending).
        // cia-lint: allow(D05, n is the node count; gossip node ids are u32)
        for u in 0..n as u32 {
            for &v in self.views.view_of(u) {
                self.traffic.view_in_degree[v as usize] += 1;
            }
        }
        drop(refresh_span);

        // 2. Wake set: everyone, unless the observer's availability hook
        // clears them.
        let sample_span = obs.span("sample");
        let mut wake = vec![true; n];
        observer.on_liveness(LivenessEvent::ActingSet { round: t, mask: &mut wake });
        for (c, &w) in self.ctl.iter_mut().zip(&wake) {
            c.awake = w;
        }
        drop(sample_span);

        // 3. Send phase, in parallel: each awake node lends its aggregate
        // to its push (a recycled pool carcass) instead of copying it — the
        // push is read only by its receiver and by the sender's own merge,
        // which writes a different buffer. The DP transform then rewrites
        // the push in place.
        let cfg = self.cfg;
        let transform = self.transform.as_deref();
        let destinations: Vec<u32> =
            // cia-lint: allow(D05, u < n, the node count; gossip node ids are u32)
            (0..n).map(|u| self.views.random_neighbor(u as u32, &mut rng)).collect();
        let send_span = obs.span("send");
        for (o, &w) in self.outbox.iter_mut().zip(&wake) {
            if w {
                o.sent = self.pool.pop();
            }
        }
        par_zip_mut(&mut self.nodes, &mut self.outbox, |i, node, o| {
            if !wake[i] {
                return;
            }
            let snap = o.sent.get_or_insert_with(empty_model);
            o.lent = node.lend_snapshot(t, snap);
            // A lender copies only the owner embedding; a copying push, all.
            let mut copied = if o.lent { snap.len() - snap.agg.len() } else { snap.len() };
            if let Some(tr) = transform {
                let mut crng = StdRng::seed_from_u64(
                    cfg.seed ^ (t << 22) ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
                );
                copied += apply_gossip_transform(tr, snap, &mut o.prev_sent, &mut crng);
            }
            obs.add(Counter::BytesCopied, 4 * copied as u64);
        });
        drop(send_span);

        // 4. Routing (serial: observer callbacks in sender order). An awake
        // receiver records the sender and reads the push in place at its
        // merge; an asleep one holds a copy until it wakes.
        let route_span = obs.span("route");
        let mut deliveries = 0usize;
        for ((u, o), &dest) in (0u32..).zip(&self.outbox).zip(&destinations) {
            let Some(snap) = &o.sent else { continue };
            obs.add(Counter::BytesOnWire, 4 * snap.len() as u64);
            obs.inc(Counter::InboxDeliveries);
            observer.on_delivery(t, UserId::new(dest), snap);
            let dest = dest as usize;
            let receiver = &mut self.ctl[dest];
            if receiver.awake {
                receiver.mail.push(u);
            } else {
                let mut held = self.pool.pop().unwrap_or_else(empty_model);
                copy_model(&mut held, snap);
                obs.add(Counter::BytesCopied, 4 * snap.len() as u64);
                receiver.inbox.push(held);
            }
            self.traffic.received[dest] += 1;
            deliveries += 1;
        }
        drop(route_span);

        // 5. Merge + local training on awake nodes, in one fused parallel
        // pass under the `train` span. Each node writes its new aggregate
        // out of place — the uniform mean of its push's clean parameters and
        // its mail (held copies first, then this round's pushes in sender
        // order) — or, with no mail, takes its parameters back. Merge and
        // train stay fused deliberately: a node's aggregate is
        // catalog-sized (~54 KB at paper scale), so training right after
        // the merge reuses it while cache-hot — separate passes stream the
        // whole population's state through memory twice. The per-node
        // merge/train cost split is still observable through the `mix_us` /
        // `train_us` histograms, which bracket the two halves with
        // detail-gated clock reads.
        let is_pers = matches!(self.cfg.protocol, GossipProtocol::Pers { .. });
        let dp = transform.is_some();
        let outbox = &self.outbox;
        let train_span = obs.span("train");
        par_zip_mut(&mut self.nodes, &mut self.ctl, |i, node, c| {
            if !c.awake {
                return;
            }
            let own = outbox[i].own(dp);
            if c.inbox.is_empty() && c.mail.is_empty() {
                node.merge_agg(own, &[]);
                if outbox[i].lent {
                    obs.add(Counter::BytesCopied, 4 * own.len() as u64);
                }
            } else {
                let t0 = obs.clock();
                let pushed = c.mail.iter().map(|&s| {
                    outbox[s as usize].sent.as_ref().expect("a mailed sender pushed a model")
                });
                let mail: Vec<&SharedModel> = c.inbox.iter().chain(pushed).collect();
                if is_pers {
                    for m in &mail {
                        c.heard.push((m.owner.raw(), node.evaluate_model(m)));
                    }
                }
                let rows: Vec<&[f32]> = mail.iter().map(|m| m.agg.as_slice()).collect();
                node.merge_agg(own, &rows);
                c.mail.clear();
                obs.observe_since(Metric::MixMicros, t0);
            }
            let t0 = obs.clock();
            let mut crng = StdRng::seed_from_u64(
                cfg.seed ^ (t << 24) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            c.loss = node.train_local(&mut crng);
            obs.observe_since(Metric::TrainMicros, t0);
        });
        drop(train_span);

        // Merged pushes and consumed held inboxes drain into the pool
        // afterwards (serially — the pool is shared).
        for (c, o) in self.ctl.iter_mut().zip(&mut self.outbox).filter(|(c, _)| c.awake) {
            self.pool.append(&mut c.inbox);
            self.pool.extend(o.sent.take());
        }
        self.pool.truncate(n);

        let awake_count = wake.iter().filter(|&&a| a).count();
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
            prev_sent: self.outbox.iter().map(|o| o.prev_sent.clone()).collect(),
        }
    }

    /// Restores a state captured by `export_state` on a simulation
    /// constructed with the same nodes and configuration.
    ///
    /// # Errors
    ///
    /// Refuses state that does not fit this simulation before taking any of
    /// it, naming the first misfit (`"inbox of node 5"`): one table entry per
    /// node, every view `P` distinct real nodes, every held inbox model from
    /// a real node with that node's embedding length and this layout's
    /// aggregate length, every DP reference `[emb | agg]`-long, and every
    /// Pers-Gossip candidate a real node. A hostile checkpoint is thus
    /// refused up front instead of panicking mid-run or being silently
    /// truncated by the DP update.
    fn restore_state(&mut self, state: GossipSimState) -> Result<(), String> {
        let n = self.nodes.len();
        let tables = [
            ("refresh table", state.refresh_at.len()),
            ("inbox table", state.inboxes.len()),
            ("heard table", state.heard.len()),
            ("DP reference table", state.prev_sent.len()),
            ("received-traffic table", state.traffic.received.len()),
            ("in-degree table", state.traffic.view_in_degree.len()),
        ];
        if let Some((name, _)) = tables.iter().find(|&&(_, len)| len != n) {
            return Err((*name).to_string());
        }
        let agg_len = self.nodes[0].agg_len();
        let emb_len = |u: usize| self.nodes[u].owner_emb().map_or(0, <[f32]>::len);
        for u in 0..n {
            let model_fits = |m: &SharedModel| {
                let owner = m.owner.raw() as usize;
                owner < n
                    && m.agg.len() == agg_len
                    && m.owner_emb.as_ref().map_or(0, Vec::len) == emb_len(owner)
            };
            if !state.inboxes[u].iter().all(model_fits) {
                return Err(format!("inbox of node {u}"));
            }
            if state.prev_sent[u].as_ref().is_some_and(|p| p.len() != emb_len(u) + agg_len) {
                return Err(format!("DP reference of node {u}"));
            }
            if state.heard[u].iter().any(|&(v, _)| v as usize >= n) {
                return Err(format!("heard list of node {u}"));
            }
        }
        self.views.restore_views(state.views)?;
        self.round = state.round;
        self.refresh_at = state.refresh_at;
        let per_node = state.inboxes.into_iter().zip(state.prev_sent).zip(state.heard);
        for ((c, o), ((inbox, prev), heard)) in
            self.ctl.iter_mut().zip(&mut self.outbox).zip(per_node)
        {
            c.inbox = inbox;
            o.prev_sent = prev;
            c.heard = heard;
        }
        self.traffic = state.traffic;
        Ok(())
    }
}

/// Availability probe through the unified liveness hook.
fn probe_available(observer: &mut dyn GossipObserver, round: u64, node: u32) -> bool {
    let mut available = true;
    observer.on_liveness(LivenessEvent::Probe { round, node, available: &mut available });
    available
}

/// An empty model carcass for a push or a held copy when the pool is dry.
fn empty_model() -> SharedModel {
    SharedModel { owner: UserId::new(0), round: 0, owner_emb: None, agg: Vec::new() }
}

/// Copies `src` into `dst`, reusing `dst`'s buffers.
fn copy_model(dst: &mut SharedModel, src: &SharedModel) {
    dst.owner = src.owner;
    dst.round = src.round;
    dst.owner_emb.clone_from(&src.owner_emb);
    dst.agg.clone_from(&src.agg);
}

/// DP in gossip: the outgoing `[emb | agg]` vector is treated as an update
/// relative to the previously sent vector (zero for the first send), clipped
/// and noised, then rewritten. `prev_sent` is updated to the new clean value.
/// Returns how many floats it copied (the clean vector, plus its clone on a
/// node's first send).
fn apply_gossip_transform(
    transform: &dyn UpdateTransform,
    snap: &mut SharedModel,
    prev_sent: &mut Option<Vec<f32>>,
    rng: &mut StdRng,
) -> usize {
    let emb = snap.owner_emb.as_deref().unwrap_or(&[]);
    let clean = [emb, &snap.agg].concat();
    let mut copied = clean.len();
    let reference = prev_sent.get_or_insert_with(|| {
        copied += clean.len();
        clean.clone()
    });
    let (emb_ref, agg_ref) = reference.split_at(emb.len());
    apply_update_transform(transform, snap, Some(emb_ref), agg_ref, rng);
    *prev_sent = Some(clean);
    copied
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A deterministic toy participant: params drift towards a per-community
    /// fixed point during "training", and `evaluate_model` prefers models
    /// close to the node's own fixed point — enough to exercise the protocol
    /// without real ML. It lends its parameters to its pushes like the real
    /// models do (the copying trait defaults are covered by
    /// `tests/props.rs` and `tests/lend_vs_copy.rs`).
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
        fn snapshot_into(&self, round: u64, slot: &mut SharedModel) {
            *slot =
                SharedModel { owner: self.user, round, owner_emb: None, agg: self.params.clone() };
        }
        fn lend_snapshot(&mut self, round: u64, slot: &mut SharedModel) -> bool {
            slot.owner = self.user;
            slot.round = round;
            slot.owner_emb = None;
            slot.agg.resize(self.params.len(), 0.0);
            std::mem::swap(&mut self.params, &mut slot.agg);
            true
        }
        fn merge_agg(&mut self, own: &[f32], others: &[&[f32]]) {
            cia_models::kernel::uniform_mix_into(&mut self.params, own, others);
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
        // cia-lint: allow(D05, test population of a handful of nodes)
        let nodes = (0..n).map(|u| TestNode::new(u as u32, u % 4)).collect();
        GossipSim::new(nodes, cfg)
    }

    /// Whether node `u` sleeps in round `t`: a coin flip with probability
    /// `sleep` that is a pure function of `(seed, t, u)`, so thread counts
    /// and replays see the same mask.
    fn asleep(seed: u64, sleep: f64, t: u64, u: usize) -> bool {
        let salt = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u as u64).wrapping_mul(0x5851_F42D);
        StdRng::seed_from_u64(seed ^ salt).gen_bool(sleep)
    }

    #[derive(Default)]
    struct Recorder {
        /// Share of each wake set that [`asleep`] clears, seeded by `seed`.
        sleep: f64,
        seed: u64,
        /// Wake-mask entries cleared so far.
        slept: usize,
        /// Availability probes answered, one per view refresh that fell due.
        refreshes: usize,
        deliveries: Vec<(u64, u32, u32)>,
        stats: Vec<GossipRoundStats>,
    }

    impl Recorder {
        fn sleeping(sleep: f64, seed: u64) -> Self {
            Recorder { sleep, seed, ..Recorder::default() }
        }
    }

    impl GossipObserver for Recorder {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            match event {
                LivenessEvent::ActingSet { round, mask } => {
                    for (u, m) in mask.iter_mut().enumerate() {
                        if asleep(self.seed, self.sleep, round, u) {
                            *m = false;
                            self.slept += 1;
                        }
                    }
                }
                LivenessEvent::Probe { .. } => self.refreshes += 1,
            }
        }
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
        let mut s = sim(30, GossipConfig { rounds: 10, seed: 1, ..Default::default() });
        let mut rec = Recorder::sleeping(0.5, 1);
        s.run(&mut rec);
        for st in &rec.stats {
            assert!(st.awake < 30, "round {}: awake {}", st.round, st.awake);
            assert_eq!(st.deliveries, st.awake);
        }
        let awake: usize = rec.stats.iter().map(|st| st.awake).sum();
        assert_eq!(awake + rec.slept, 10 * 30);
        // Nodes asleep in the last round hold the models pushed to them.
        assert!(s.export_state().inboxes.iter().any(|inbox| !inbox.is_empty()));
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
    /// wake set is left alone so the rest of the round is unchanged), and
    /// counts how often its refresh was due.
    #[derive(Default)]
    struct FiveOffline {
        deferred: usize,
    }

    impl GossipObserver for FiveOffline {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::Probe { node: 5, available, .. } = event {
                *available = false;
                self.deferred += 1;
            }
        }
    }

    #[test]
    fn offline_nodes_defer_view_refreshes() {
        // Refresh intervals average about 10.5 rounds, so over 60 rounds
        // every available node re-samples its view with overwhelming
        // probability — while node 5's view must stay exactly its initial
        // one.
        let mut s = sim(16, GossipConfig { rounds: 60, seed: 9, ..Default::default() });
        let initial: Vec<Vec<u32>> = (0..16).map(|u| s.view_of(u).to_vec()).collect();
        let mut offline = FiveOffline::default();
        s.run(&mut offline);
        assert!(offline.deferred > 0, "node 5's refresh never fell due");
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
            // cia-lint: allow(D05, test population of a handful of nodes)
            let delivered = rec.deliveries.iter().filter(|&&(_, recv, _)| recv == u as u32).count();
            assert_eq!(count as usize, delivered, "node {u}");
        }
        // Each round accumulates exactly P view slots per node.
        let in_degree: u64 = traffic.view_in_degree.iter().sum();
        assert_eq!(in_degree, rounds * 20 * OUT_DEGREE as u64);
        // And the counters survive a checkpoint roundtrip.
        let state = s.export_state();
        assert_eq!(&state.traffic, traffic);
        let mut fresh = sim(20, GossipConfig { rounds, seed: 3, ..Default::default() });
        let traffic = traffic.clone();
        fresh.restore_state(state).unwrap();
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
    fn lent_pushes_copy_only_for_mail_less_nodes() {
        // Under full wake every push lends its sender's buffer and nobody
        // sleeps, so the only copies a round makes are the take-backs of the
        // nodes nobody pushed to: 4 bytes · agg_len (8) for each.
        let n = 20;
        let rounds = 6u64;
        let mut s = sim(n, GossipConfig { rounds, seed: 3, ..Default::default() });
        let rec = cia_obs::Recorder::new();
        s.set_recorder(rec.clone());
        let mut tape = Recorder::default();
        let mut total_mail_less = 0;
        for t in 0..rounds {
            let before = rec.counter(Counter::BytesCopied);
            s.step(&mut tape);
            let mut has_mail = vec![false; n];
            for &(_, recv, _) in tape.deliveries.iter().filter(|d| d.0 == t) {
                has_mail[recv as usize] = true;
            }
            let mail_less = has_mail.iter().filter(|&&m| !m).count() as u64;
            total_mail_less += mail_less;
            assert_eq!(rec.counter(Counter::BytesCopied) - before, 4 * 8 * mail_less, "round {t}");
        }
        assert!(total_mail_less > 0, "no round had a mail-less node; the test proves nothing");
    }

    #[test]
    fn restore_state_names_the_misfit_node() {
        let mut s = sim(12, GossipConfig { rounds: 4, seed: 1, ..Default::default() });
        s.run(&mut Recorder::sleeping(0.5, 1));
        let good = s.export_state();
        assert!(good.inboxes.iter().any(|inbox| !inbox.is_empty()), "no node held mail");
        assert_eq!(s.restore_state(good.clone()), Ok(()));
        fn model(owner: u32, len: usize) -> SharedModel {
            SharedModel {
                owner: UserId::new(owner),
                round: 0,
                owner_emb: None,
                agg: vec![0.0; len],
            }
        }
        type Corruption = fn(&mut GossipSimState);
        let cases: [(Corruption, &str); 10] = [
            (|st| st.inboxes[5].push(model(1, 7)), "inbox of node 5"),
            (|st| st.inboxes[3].push(model(12, 8)), "inbox of node 3"),
            (|st| st.prev_sent[2] = Some(vec![0.0; 9]), "DP reference of node 2"),
            (|st| st.heard[4].push((40, 0.0)), "heard list of node 4"),
            (|st| st.refresh_at.truncate(11), "refresh table"),
            (|st| st.traffic.received.truncate(11), "received-traffic table"),
            (|st| st.views.truncate(11), "view table"),
            (|st| st.views[6][0] = 12, "view of node 6"),
            (|st| st.views[7][0] = 7, "view of node 7"),
            (|st| st.views[8].truncate(1), "view of node 8"),
        ];
        for (corrupt, part) in cases {
            let mut bad = good.clone();
            corrupt(&mut bad);
            assert_eq!(s.restore_state(bad).unwrap_err(), part);
            // A refused state leaves the simulation as it was.
            assert_eq!(s.export_state().views, good.views);
        }
        // A well-formed held model and DP reference pass.
        let mut fine = good;
        fine.inboxes[5].push(model(1, 8));
        fine.prev_sent[2] = Some(vec![0.0; 8]);
        assert_eq!(s.restore_state(fine), Ok(()));
    }

    #[test]
    fn tracing_does_not_change_the_simulation() {
        // A detail-enabled recorder (spans, histograms, per-node mix/train
        // clock reads) must leave the protocol bit-identical to an
        // untraced run.
        let cfg = GossipConfig {
            rounds: 20,
            protocol: GossipProtocol::Pers { exploration: 0.4 },
            seed: 17,
        };
        let run = |traced: bool| {
            let mut s = sim(16, cfg);
            if traced {
                let rec = cia_obs::Recorder::new();
                rec.set_detail(true);
                s.set_recorder(rec);
            }
            let mut tape = Recorder::sleeping(0.4, 17);
            s.run(&mut tape);
            assert!(tape.slept > 0 && tape.refreshes > 0, "no node slept or refreshed");
            let params: Vec<Vec<f32>> = s.nodes().iter().map(|n| n.params.clone()).collect();
            (tape.deliveries, params)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn restore_replays_identically() {
        let cfg = GossipConfig { rounds: 16, seed: 21, ..Default::default() };
        let mut straight = sim(14, cfg);
        let mut tape = Recorder::sleeping(0.3, 21);
        straight.run(&mut tape);
        assert!(tape.slept > 0 && tape.refreshes > 0, "no node slept or refreshed");

        let mut first = sim(14, cfg);
        let mut sleeper = Recorder::sleeping(0.3, 21);
        for _ in 0..6 {
            first.step(&mut sleeper);
        }
        let proto = first.export_state();
        let params: Vec<Vec<f32>> = first.nodes().iter().map(Participant::state_vec).collect();

        let mut resumed = sim(14, cfg);
        resumed.restore_state(proto).unwrap();
        for (node, p) in resumed.nodes_mut().iter_mut().zip(&params) {
            node.restore_state(p).unwrap();
        }
        for _ in 6..16 {
            resumed.step(&mut sleeper);
        }
        for (a, b) in straight.nodes().iter().zip(resumed.nodes()) {
            assert_eq!(a.params, b.params);
        }
        assert_eq!(straight.round(), resumed.round());
    }
}

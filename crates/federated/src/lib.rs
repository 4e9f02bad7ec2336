//! Federated learning (FedAvg) simulation with adversary observer hooks.
//!
//! Reproduces the paper's federated recommender setting (§III-B): at each
//! round the server broadcasts the global model, the acting clients train
//! locally and send back their models, and the server aggregates them into
//! the next global model. Every client acts unless an observer clears it
//! from the round's [`LivenessEvent::ActingSet`] mask. The [`RoundObserver`]
//! hook exposes exactly what the server receives — the vantage point of the
//! paper's FL adversary, who *is* the server (§IV-A).
//!
//! # Example
//!
//! ```
//! use cia_data::{LeaveOneOut, SyntheticConfig, UserId};
//! use cia_federated::{FedAvg, FedAvgConfig, RoundObserver};
//! use cia_models::{GmfSpec, SharedModel, SharingPolicy};
//!
//! let data = SyntheticConfig::builder()
//!     .users(12).items(60).communities(3).interactions_per_user(8)
//!     .seed(1).build().generate();
//! let split = LeaveOneOut::new(&data, 10, 0).unwrap();
//! let spec = GmfSpec::new(60, 8);
//! let clients: Vec<_> = split
//!     .train_sets()
//!     .iter()
//!     .enumerate()
//!     .map(|(u, items)| {
//!         spec.build_client(UserId::from_index(u), items.clone(), SharingPolicy::Full, u as u64)
//!     })
//!     .collect();
//!
//! struct Counter(usize);
//! impl RoundObserver for Counter {
//!     fn on_client_model(&mut self, _m: &SharedModel) { self.0 += 1; }
//! }
//!
//! let mut sim = FedAvg::new(clients, FedAvgConfig { rounds: 2, ..Default::default() });
//! let mut counter = Counter(0);
//! sim.run(&mut counter);
//! assert_eq!(counter.0, 2 * 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cia_models::kernel::axpy;
use cia_models::parallel::par_zip_fold;
use cia_models::{
    apply_update_transform, MomentumRow, MomentumTable, Participant, SharedModel, UpdateTransform,
};
use cia_obs::{Counter, Metric, Recorder};

// The cross-protocol observer event this crate's API surfaces, and the
// selector the `step_evented` forward takes.
pub use cia_models::{DeliveryPolicy, LivenessEvent};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FedAvg configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FedAvgConfig {
    /// Number of communication rounds `T`.
    pub rounds: u64,
    /// Local training epochs per round.
    pub local_epochs: usize,
    /// Simulation seed (training order, DP noise).
    pub seed: u64,
}

impl Default for FedAvgConfig {
    fn default() -> Self {
        FedAvgConfig { rounds: 20, local_epochs: 1, seed: 0 }
    }
}

/// Per-round statistics handed to observers.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundStats {
    /// The completed round index.
    pub round: u64,
    /// Number of clients that participated.
    pub participants: usize,
    /// Mean local training loss across participants; `None` when no client
    /// participated (an all-offline round has no losses to average — a `0.0`
    /// sentinel would be indistinguishable from perfect convergence).
    pub mean_loss: Option<f32>,
    /// Bytes of client model state materialized for this round: the snapshot
    /// buffers refilled for an observer on the serial path or for the DP
    /// transform. An observer that lends its momentum table
    /// ([`RoundObserver::momentum_table`]) needs no snapshot, so a round
    /// without DP reports `0`.
    pub bytes_materialized: u64,
}

/// Observes what the FL server sees — the adversary's vantage point.
///
/// All methods have empty default bodies so observers implement only what
/// they need.
pub trait RoundObserver {
    /// Called when a round begins.
    fn on_round_start(&mut self, round: u64) {
        let _ = round;
    }

    /// Called with protocol-agnostic liveness events (the same enum gossip
    /// observers consume). FedAvg issues one [`LivenessEvent::ActingSet`]
    /// per round whose mask starts all-`true`: the observer alone decides
    /// who acts. Observers may clear entries to model availability — churn,
    /// stragglers, partial participation, device dropout — without the
    /// training loop knowing about participant dynamics (the `cia-scenarios`
    /// dynamics layer plugs in here).
    fn on_liveness(&mut self, event: LivenessEvent<'_>) {
        let _ = event;
    }

    /// Called at the start of every round with the broadcast global model —
    /// public knowledge for a server-side adversary (reference for update
    /// reconstruction and for training fictive embeddings).
    fn on_global(&mut self, round: u64, global_agg: &[f32]) {
        let _ = (round, global_agg);
    }

    /// Called once per received client model, in user-id order. This is
    /// the serial path: FedAvg skips it for an observer that lends its
    /// momentum table ([`RoundObserver::momentum_table`]), and the user-id
    /// order contract holds only here.
    fn on_client_model(&mut self, model: &SharedModel) {
        let _ = model;
    }

    /// Lends the observer's Eq. 4 coefficient `β` and its per-sender
    /// momentum table, one row per user id, for the round's training phase.
    ///
    /// When the observer lends a table with one row per client and client
    /// `i` is user `i`, FedAvg sets the table's layout from client 0's
    /// shared embedding and the global model's length, splits the table
    /// into rows ([`MomentumTable::rows_mut`]), folds each acting client's
    /// model into row `i` on the worker that just trained it (through
    /// [`MomentumRow::observe`]) and skips
    /// [`RoundObserver::on_client_model`] for the round. Without DP the fold
    /// reads the client's own parameters and no snapshot is materialized;
    /// under DP it reads the transformed snapshot, which has the same
    /// layout. Each fold touches only its sender's row with the same float
    /// operations as the serial path, so the table is bit-identical for any
    /// thread count, and the rows of clients that never act stay untouched.
    ///
    /// The default lends nothing: the observer sees every model through
    /// [`RoundObserver::on_client_model`]. A wrapper that must see each
    /// model itself keeps that default.
    fn momentum_table(&mut self) -> Option<(f32, &mut MomentumTable)> {
        None
    }

    /// Whether this observer consumes [`RoundObserver::on_client_model`].
    /// Observers that don't (e.g. [`NullObserver`] in utility-only runs and
    /// round benchmarks) should return `false`: the protocol then skips
    /// materializing per-client snapshots entirely — aggregation works
    /// directly from client state — which removes a full copy of every
    /// client's model from each round. Aggregation math is identical either
    /// way.
    fn observes_models(&self) -> bool {
        true
    }

    /// Called when a round's aggregation completes.
    fn on_round_end(&mut self, stats: &RoundStats) {
        let _ = stats;
    }
}

/// A no-op observer for runs without an adversary.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {
    fn observes_models(&self) -> bool {
        false
    }
}

/// The FedAvg simulation.
pub struct FedAvg<P: Participant> {
    clients: Vec<P>,
    global_agg: Vec<f32>,
    cfg: FedAvgConfig,
    transform: Option<Box<dyn UpdateTransform>>,
    round: u64,
    /// Per-client round slots, persistent across rounds so snapshots reuse
    /// their buffers instead of re-allocating a full model per client per
    /// round. A snapshot nobody reads after the round leaves its slot when
    /// its client is folded (see `lanes`).
    slots: Vec<RoundSlot>,
    /// One buffer pool per training worker, kept across rounds.
    lanes: Vec<Lane>,
    /// The round's aggregation accumulator, which the workers fold every
    /// acting client into in client index order.
    acc: Vec<f32>,
    /// Whether client `i` is user `i` for every `i`: only then can a lent
    /// momentum table be zipped with the clients.
    ids_are_indices: bool,
    /// The observability sink: phase spans, event counters (clients trained,
    /// bytes materialized) and the per-client training-latency histogram.
    obs: Recorder,
}

/// A training worker's buffer pools. A worker lends each client it trains
/// an aggregate and a reference buffer, and takes them back once the
/// client's update is folded into `acc`; without a serial observer a DP
/// snapshot is likewise dead once folded and returns to its pool. Each
/// buffer then serves the worker's next client, so a round holds a few per
/// worker ([`cia_models::parallel::FOLD_LEAD`] blocks' worth at most)
/// instead of one per client.
#[derive(Default)]
struct Lane {
    /// Aggregate and reference buffers.
    buffers: Vec<(Vec<f32>, Vec<f32>)>,
    /// DP snapshots.
    snapshots: Vec<SharedModel>,
}

/// Per-client per-round bookkeeping; `model` keeps its buffers across rounds.
struct RoundSlot {
    model: SharedModel,
    loss: f32,
    sampled: bool,
}

impl<P: Participant> FedAvg<P> {
    /// Creates a simulation over `clients`. The initial global model is the
    /// first client's public parameters, drawn on demand
    /// ([`Participant::draw_agg`]); all clients sync to it in round 0. No
    /// client keeps an aggregate between rounds: each borrows one for the
    /// round it trains in.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty or clients disagree on parameter sizes.
    pub fn new(mut clients: Vec<P>, cfg: FedAvgConfig) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        let len = clients[0].agg_len();
        assert!(
            clients.iter().all(|c| c.agg_len() == len),
            "clients must share a parameter layout"
        );
        clients[0].draw_agg();
        let global_agg = clients[0].agg().to_vec();
        for client in &mut clients {
            drop(client.take_buffers());
        }
        let ids_are_indices = clients.iter().enumerate().all(|(i, c)| c.user().index() == i);
        let slots = clients
            .iter()
            .map(|c| RoundSlot {
                model: SharedModel { owner: c.user(), round: 0, owner_emb: None, agg: Vec::new() },
                loss: 0.0,
                sampled: false,
            })
            .collect();
        FedAvg {
            clients,
            global_agg,
            cfg,
            transform: None,
            round: 0,
            slots,
            lanes: Vec::new(),
            acc: Vec::new(),
            ids_are_indices,
            obs: Recorder::new(),
        }
    }

    /// Installs the metrics/trace sink this simulation reports into. The
    /// scenario runner installs one recorder per scenario; standalone
    /// simulations keep their own default recorder.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    /// Installs a local update transform (DP-SGD) applied to every outgoing
    /// client update.
    pub fn set_update_transform(&mut self, transform: Box<dyn UpdateTransform>) {
        self.transform = Some(transform);
    }

    /// The clients (evaluation access). Between rounds a client that
    /// borrows its aggregate holds none ([`Participant::take_buffers`]):
    /// read [`FedAvg::global_agg`], or call
    /// [`FedAvg::sync_clients_to_global`] first.
    pub fn clients(&self) -> &[P] {
        &self.clients
    }

    /// The current global public parameters.
    pub fn global_agg(&self) -> &[f32] {
        &self.global_agg
    }

    /// Rounds completed so far.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Loads the current global model into every client, mirroring the
    /// broadcast deployment of the final model, so that each client's own
    /// [`Participant::agg`] can be scored. This rebuilds one aggregate per
    /// client; the scenario runner scores against
    /// [`FedAvg::global_agg`] instead. Kept for the MNIST experiment and the
    /// benchmark tracer (`perfbench/tracer`).
    pub fn sync_clients_to_global(&mut self) {
        for c in &mut self.clients {
            c.absorb_agg(&self.global_agg);
        }
    }

    /// Runs one round: ask the observer who acts, broadcast, local training,
    /// transform, observe, aggregate.
    ///
    /// The `train` phase does all per-client work on the training workers,
    /// including the aggregation fold: each worker folds the clients it
    /// trained into `acc` when their turn in client index order comes
    /// ([`cia_models::parallel::par_zip_fold`]), so the sum is bit-identical
    /// for every thread count. The `aggregate` phase only applies `acc` to
    /// the global model.
    pub fn step(&mut self, observer: &mut dyn RoundObserver) -> RoundStats {
        let t = self.round;
        let obs = self.obs.clone();
        let bytes0 = obs.counter(Counter::BytesMaterialized);
        let FedAvg {
            clients, global_agg, cfg, transform, slots, lanes, acc, ids_are_indices, ..
        } = &mut *self;
        let n = clients.len();
        let cfg = *cfg;

        // Everyone acts unless the observer clears them.
        let sample_span = obs.span("sample");
        let mut sampled = vec![true; n];

        observer.on_round_start(t);
        observer.on_liveness(LivenessEvent::ActingSet { round: t, mask: &mut sampled });
        observer.on_global(t, global_agg);
        drop(sample_span);

        // A momentum observer lends its table when it lines up with the
        // clients; the workers then fold each sender's EMA, and the serial
        // observe loop below is skipped.
        let observes = observer.observes_models();
        let lent = if *ids_are_indices { observer.momentum_table() } else { None };
        let (beta, table) = match lent {
            Some((beta, table)) if table.users() == n => (beta, Some(table)),
            _ => (0.0, None),
        };
        let serial = table.is_none() && observes;

        // Snapshots are materialized only when something consumes them: an
        // observer on the serial path, or the DP transform (which aggregates
        // transformed parameters instead of the clients' own). Only the
        // serial observer reads them after the fold; otherwise each goes
        // back to its worker's lane as soon as it is folded.
        let materialize = transform.is_some() || serial;
        let pooled = transform.is_some() && !serial;

        // FedAvg weighs each update by its client's local example count.
        let weight_of = |client: &P| client.num_examples().max(1) as f32;
        let mut total = 0.0f32;
        for (client, &s) in clients.iter().zip(&sampled) {
            if s {
                total += weight_of(client);
            }
        }
        acc.resize(global_agg.len(), 0.0);
        acc.fill(0.0);

        // Per-client work deposited into aligned, buffer-reusing slots, each
        // paired with its sender's momentum row when a table was lent.
        let global: &[f32] = global_agg;
        let transform = transform.as_deref();
        for (slot, &s) in slots.iter_mut().zip(&sampled) {
            slot.sampled = s;
            slot.loss = 0.0;
        }
        let emb = clients[0].owner_emb().map(<[f32]>::len);
        let mut rows = table.map(|table| table.rows_mut(emb, global.len()).into_iter());
        let mut work: Vec<(&mut RoundSlot, Option<MomentumRow>)> =
            slots.iter_mut().map(|slot| (slot, rows.as_mut().and_then(Iterator::next))).collect();
        let train_span = obs.span("train");
        let fold_wait = par_zip_fold(
            clients,
            &mut work,
            lanes,
            acc,
            |lane, i, client, (slot, row)| {
                if !slot.sampled {
                    return;
                }
                let t0 = obs.clock();
                let mut crng = StdRng::seed_from_u64(
                    cfg.seed ^ (t << 20) ^ (i as u64).wrapping_mul(0x5851_F42D),
                );
                let (agg, reference) = lane.buffers.pop().unwrap_or_default();
                client.lend_buffers(agg, reference);
                client.absorb_agg(global);
                // The DP transform needs the pre-round embedding.
                let emb_before: Option<Vec<f32>> =
                    transform.and_then(|_| client.owner_emb().map(<[f32]>::to_vec));
                for _ in 0..cfg.local_epochs.max(1) {
                    slot.loss = client.train_local(&mut crng);
                }
                if materialize {
                    if pooled {
                        if let Some(model) = lane.snapshots.pop() {
                            slot.model = model;
                        }
                    }
                    client.snapshot_into(t, &mut slot.model);
                    let bytes = 4 * slot.model.len() as u64;
                    obs.add(Counter::BytesMaterialized, bytes);
                    obs.add(Counter::BytesCopied, bytes);
                }
                if let Some(tr) = transform {
                    // DP rewrites the materialized snapshot.
                    apply_update_transform(
                        tr,
                        &mut slot.model,
                        emb_before.as_deref(),
                        global,
                        &mut crng,
                    );
                }
                if let Some(row) = row {
                    // What the server receives: the DP-rewritten snapshot,
                    // or else the client's own shared parameters.
                    let (emb, agg) = if transform.is_some() {
                        (slot.model.owner_emb.as_deref(), slot.model.agg.as_slice())
                    } else {
                        (client.owner_emb(), client.agg())
                    };
                    row.observe(beta, emb, agg);
                }
                obs.observe_since(Metric::TrainMicros, t0);
            },
            |acc, lane, _, client, (slot, _)| {
                if !slot.sampled {
                    return;
                }
                let w = weight_of(client) / total;
                if transform.is_some() {
                    // Transformed parameters live only in the snapshot: the
                    // dense weighted mean `Σ w̃ᵢ·snapᵢ`.
                    axpy(acc, w, &slot.model.agg);
                } else {
                    // Sparse: `w̃ᵢ · (aggᵢ − global)` over only the
                    // parameters local training touched (Σ w̃ᵢ = 1, so
                    // `global + Σ w̃ᵢ·(aggᵢ − global) = Σ w̃ᵢ·aggᵢ`).
                    client.accumulate_update(global, w, acc);
                }
                lane.buffers.push(client.take_buffers());
                if pooled {
                    let owner = slot.model.owner;
                    let empty = SharedModel { owner, round: t, owner_emb: None, agg: Vec::new() };
                    lane.snapshots.push(std::mem::replace(&mut slot.model, empty));
                }
            },
        );
        obs.add(Counter::FoldWaitMicros, fold_wait.as_micros() as u64);
        drop(train_span);

        // Observe in deterministic (user-id) order on the serial path.
        let attack_span = obs.span("attack");
        let mut loss_sum = 0.0f32;
        let mut participants = 0usize;
        for slot in &*slots {
            if slot.sampled {
                if serial {
                    observer.on_client_model(&slot.model);
                }
                loss_sum += slot.loss;
                participants += 1;
            }
        }
        drop(attack_span);
        obs.add(Counter::ClientsTrained, participants as u64);
        // Aggregate: `acc` holds the new global under DP and the update to
        // add otherwise. An all-offline round (dynamics can empty the mask)
        // keeps the previous global — nothing arrived to aggregate.
        let aggregate_span = obs.span("aggregate");
        if participants > 0 {
            if transform.is_some() {
                std::mem::swap(global_agg, acc);
            } else {
                for (g, a) in global_agg.iter_mut().zip(&*acc) {
                    *g += a;
                }
            }
        }
        drop(aggregate_span);

        let stats = RoundStats {
            round: t,
            participants,
            mean_loss: (participants > 0).then(|| loss_sum / participants as f32),
            bytes_materialized: obs.counter(Counter::BytesMaterialized) - bytes0,
        };
        let evaluate_span = obs.span("evaluate");
        observer.on_round_end(&stats);
        drop(evaluate_span);
        self.round += 1;
        stats
    }

    /// Forwards to [`FedAvg::step`]. Exists only for the benchmark tracer
    /// (`perfbench/tracer`) and goes away in the next benchmark change.
    #[doc(hidden)]
    pub fn step_evented(
        &mut self,
        observer: &mut dyn RoundObserver,
        _: DeliveryPolicy,
    ) -> RoundStats {
        self.step(observer)
    }

    /// Runs all configured rounds.
    pub fn run(&mut self, observer: &mut dyn RoundObserver) {
        for _ in 0..self.cfg.rounds {
            self.step(observer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_data::{LeaveOneOut, SyntheticConfig, UserId};
    use cia_models::{GmfSpec, SharingPolicy};
    use rand::Rng;

    fn make_sim(users: usize, rounds: u64, policy: SharingPolicy) -> FedAvg<cia_models::GmfClient> {
        let data = SyntheticConfig::builder()
            .users(users)
            .items(80)
            .communities(4)
            .interactions_per_user(10)
            .seed(3)
            .build()
            .generate();
        let split = LeaveOneOut::new(&data, 10, 1).unwrap();
        let spec = GmfSpec::new(80, 8);
        let clients: Vec<_> = split
            .train_sets()
            .iter()
            .enumerate()
            .map(|(u, items)| {
                spec.build_client(UserId::from_index(u), items.clone(), policy, u as u64)
            })
            .collect();
        FedAvg::new(clients, FedAvgConfig { rounds, seed: 9, ..Default::default() })
    }

    /// Whether client `u` is sampled in round `t`: a coin flip that is a
    /// pure function of `(seed, t, u)`, so replays see the same mask.
    fn sampled(seed: u64, t: u64, u: usize) -> bool {
        let salt = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u as u64).wrapping_mul(0x5851_F42D);
        StdRng::seed_from_u64(seed ^ salt).gen_bool(0.5)
    }

    #[derive(Default)]
    struct Recorder {
        /// When set, clears the clients [`sampled`] under this seed rejects
        /// from every acting set.
        sample_seed: Option<u64>,
        started: Vec<u64>,
        models: Vec<(u64, u32, bool)>,
        stats: Vec<RoundStats>,
    }

    impl RoundObserver for Recorder {
        fn on_round_start(&mut self, round: u64) {
            self.started.push(round);
        }
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let (Some(seed), LivenessEvent::ActingSet { round, mask }) =
                (self.sample_seed, event)
            {
                for (u, m) in mask.iter_mut().enumerate() {
                    *m &= sampled(seed, round, u);
                }
            }
        }
        fn on_client_model(&mut self, model: &SharedModel) {
            self.models.push((model.round, model.owner.raw(), model.owner_emb.is_some()));
        }
        fn on_round_end(&mut self, stats: &RoundStats) {
            self.stats.push(stats.clone());
        }
    }

    #[test]
    fn observer_sees_every_model_every_round() {
        let mut sim = make_sim(10, 3, SharingPolicy::Full);
        let mut rec = Recorder::default();
        sim.run(&mut rec);
        assert_eq!(rec.started, vec![0, 1, 2]);
        assert_eq!(rec.models.len(), 30);
        assert!(rec.models.iter().all(|&(_, _, has_emb)| has_emb));
        // User-id order within each round.
        for r in 0..3 {
            let round_models: Vec<u32> =
                rec.models.iter().filter(|&&(t, _, _)| t == r).map(|&(_, u, _)| u).collect();
            assert_eq!(round_models, (0..10).collect::<Vec<u32>>());
        }
        assert_eq!(sim.round(), 3);
    }

    #[test]
    fn share_less_hides_embeddings_from_server() {
        let mut sim = make_sim(6, 2, SharingPolicy::ShareLess { tau: 0.5 });
        let mut rec = Recorder::default();
        sim.run(&mut rec);
        assert!(rec.models.iter().all(|&(_, _, has_emb)| !has_emb));
    }

    #[test]
    fn training_loss_decreases_over_rounds() {
        let mut sim = make_sim(12, 15, SharingPolicy::Full);
        let mut rec = Recorder::default();
        sim.run(&mut rec);
        let first = rec.stats.first().unwrap().mean_loss.expect("clients participated");
        let last = rec.stats.last().unwrap().mean_loss.expect("clients participated");
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn partial_participation_samples_subset() {
        let mut sim = make_sim(20, 4, SharingPolicy::Full);
        let mut rec = Recorder { sample_seed: Some(2), ..Recorder::default() };
        sim.run(&mut rec);
        for s in &rec.stats {
            let expected = (0..20).filter(|&u| sampled(2, s.round, u)).count();
            assert_eq!(s.participants, expected, "round {}", s.round);
            assert!(s.participants < 20, "round {}: nobody was left out", s.round);
            let arrived = rec.models.iter().filter(|m| m.0 == s.round).count();
            assert_eq!(arrived, expected, "round {}", s.round);
        }
        // Different rounds sample different subsets.
        let r0: Vec<u32> = rec.models.iter().filter(|m| m.0 == 0).map(|m| m.1).collect();
        let r1: Vec<u32> = rec.models.iter().filter(|m| m.0 == 1).map(|m| m.1).collect();
        assert_ne!(r0, r1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = make_sim(8, 3, SharingPolicy::Full);
            let mut rec = Recorder::default();
            sim.run(&mut rec);
            (sim.global_agg().to_vec(), rec.stats.last().unwrap().mean_loss)
        };
        let (g1, l1) = run();
        let (g2, l2) = run();
        assert_eq!(g1, g2);
        assert_eq!(l1, l2);
    }

    #[test]
    fn dp_transform_perturbs_observed_models() {
        use cia_defenses::{DpConfig, DpMechanism};
        // Two runs from identical state: with strong noise the observed agg
        // differs from the noiseless run; global stays finite.
        let mut clean = make_sim(6, 1, SharingPolicy::Full);
        let mut noisy = make_sim(6, 1, SharingPolicy::Full);
        noisy.set_update_transform(Box::new(DpMechanism::new(DpConfig {
            clip: 1.0,
            noise_multiplier: 1.0,
        })));
        let mut rec_clean = Recorder::default();
        let mut rec_noisy = Recorder::default();
        clean.run(&mut rec_clean);
        noisy.run(&mut rec_noisy);
        assert_ne!(clean.global_agg(), noisy.global_agg());
        assert!(noisy.global_agg().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dp_snapshots_return_to_the_worker_pools_unless_observed_serially() {
        use cia_defenses::{DpConfig, DpMechanism};
        let dp = || Box::new(DpMechanism::new(DpConfig { clip: 1.0, noise_multiplier: 1.0 }));
        let kept = |sim: &FedAvg<cia_models::GmfClient>| {
            sim.slots.iter().filter(|s| s.model.agg.capacity() > 0).count()
        };
        // Nobody reads a snapshot after the fold: each one goes back to its
        // worker's pool, which serves the next client.
        let mut pooled = make_sim(20, 2, SharingPolicy::Full);
        pooled.set_update_transform(dp());
        pooled.run(&mut NullObserver);
        assert_eq!(kept(&pooled), 0, "a folded snapshot stayed in its slot");
        assert!(
            pooled.lanes.iter().any(|lane| !lane.snapshots.is_empty()),
            "no snapshot was pooled"
        );
        // A serial observer reads every snapshot after the round.
        let mut observed = make_sim(20, 2, SharingPolicy::Full);
        observed.set_update_transform(dp());
        let mut rec = Recorder::default();
        observed.run(&mut rec);
        assert_eq!(kept(&observed), 20);
        assert_eq!(rec.models.len(), 40);
        assert_eq!(observed.global_agg(), pooled.global_agg());
    }

    #[test]
    fn sync_clients_loads_global() {
        let mut sim = make_sim(5, 2, SharingPolicy::Full);
        sim.run(&mut NullObserver);
        sim.sync_clients_to_global();
        let g = sim.global_agg().to_vec();
        for c in sim.clients() {
            assert_eq!(c.agg(), g.as_slice());
        }
    }

    #[test]
    #[should_panic(expected = "need at least one client")]
    fn rejects_empty_clients() {
        let _: FedAvg<cia_models::GmfClient> = FedAvg::new(vec![], FedAvgConfig::default());
    }

    /// Masks odd users via the availability hook and records what arrives.
    #[derive(Default)]
    struct OddMasker {
        models: Vec<u32>,
    }

    impl RoundObserver for OddMasker {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::ActingSet { mask, .. } = event {
                for (u, m) in mask.iter_mut().enumerate() {
                    if u % 2 == 1 {
                        *m = false;
                    }
                }
            }
        }
        fn on_client_model(&mut self, model: &SharedModel) {
            self.models.push(model.owner.raw());
        }
    }

    #[test]
    fn participants_hook_filters_the_round() {
        let mut sim = make_sim(10, 2, SharingPolicy::Full);
        let mut masker = OddMasker::default();
        sim.run(&mut masker);
        assert_eq!(masker.models.len(), 10, "5 even users over 2 rounds");
        assert!(masker.models.iter().all(|u| u % 2 == 0));
    }

    struct Blackout;

    impl RoundObserver for Blackout {
        fn on_liveness(&mut self, event: LivenessEvent<'_>) {
            if let LivenessEvent::ActingSet { mask, .. } = event {
                mask.fill(false);
            }
        }
    }

    #[test]
    fn all_offline_round_keeps_global_and_reports_no_loss() {
        let mut sim = make_sim(6, 1, SharingPolicy::Full);
        let before = sim.global_agg().to_vec();
        let stats = sim.step(&mut Blackout);
        assert_eq!(stats.participants, 0);
        assert_eq!(stats.mean_loss, None);
        assert_eq!(sim.global_agg(), before.as_slice());
    }

    #[test]
    fn recorder_counts_clients_and_spans_phases() {
        let mut sim = make_sim(10, 2, SharingPolicy::Full);
        let rec = cia_obs::Recorder::new();
        rec.set_detail(true);
        sim.set_recorder(rec.clone());
        sim.run(&mut NullObserver);
        assert_eq!(rec.counter(Counter::ClientsTrained), 20);
        assert_eq!(rec.counter(Counter::BytesMaterialized), 0, "NullObserver skips snapshots");
        assert_eq!(rec.histogram(Metric::TrainMicros).count(), 20);
        let chunk = rec.drain();
        for phase in ["sample", "train", "attack", "aggregate", "evaluate"] {
            assert_eq!(
                chunk.spans.iter().filter(|s| s.name == phase).count(),
                2,
                "one {phase} span per round"
            );
        }
    }
}

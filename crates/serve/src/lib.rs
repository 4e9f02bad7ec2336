//! `cia-serve` — concurrent top-k recommendation serving over
//! snapshot-swapped models.
//!
//! Training (FedAvg or gossip rounds) and query serving have opposite
//! needs: training mutates parameters continuously, serving wants an
//! immutable, *round-consistent* view it can score against without taking
//! any lock the trainer contends on. This crate resolves the tension with a
//! double-buffered read-mostly design:
//!
//! * [`Snapshot`] — an immutable, flat-array copy of everything a query
//!   needs (user embeddings plus the aggregatable item parameters), stamped
//!   with a monotonically increasing *epoch*. Snapshots are built once per
//!   round boundary from a quiesced model (the runner publishes right after
//!   a round's `step` returns); readers can never observe a mid-round
//!   mixture.
//! * [`SnapshotHub`] — the swap point. The trainer
//!   [`publishes`](SnapshotHub::publish) a fresh snapshot at each round
//!   boundary; the hub wraps it in an [`Arc`] and atomically replaces the
//!   previous one.
//!   Readers [`load`](SnapshotHub::load) the current `Arc` (a brief
//!   read-lock on a pointer, never held across scoring) and keep scoring
//!   against it even while the next swap happens — the old snapshot stays
//!   alive until its last reader drops it, so readers never block training
//!   and training never blocks readers.
//! * [`ServeEngine`] — answers top-k queries against whatever snapshot is
//!   current: tiled scoring through the model's vectorized
//!   [`score_item_range`](cia_models::RelevanceScorer::score_item_range)
//!   kernel path into a streaming [`TopK`] selector (O(k) memory — no
//!   catalog-length score vector), fronted by a per-epoch ranking cache
//!   keyed on `(user, k)` that a snapshot swap invalidates wholesale.
//!   Hit/miss counters and a `serve_us` latency histogram report into a
//!   [`cia_obs::Recorder`].
//! * [`QueryWorkload`] — a deterministic synthetic query stream: Zipf-skewed
//!   user popularity (hot users dominate, as in real request logs) from a
//!   seeded RNG, so benchmarks and tests replay exactly.
//!
//! Determinism note: serving is read-only. Publishing a snapshot copies
//! parameters out of the simulation and touches no RNG, so attaching a
//! serving thread to a scenario run leaves its JSONL transcript
//! byte-identical.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use cia_core::TopK;
use cia_data::{DataError, Zipf};
use cia_models::RelevanceScorer;
use cia_obs::{Counter, Metric, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Catalog tile width for streaming top-k scoring. Matches the evaluator's
/// tiling: large enough to amortize the kernel call, small enough to stay in
/// L1/L2 alongside the model rows.
pub const SERVE_TILE: usize = 512;

/// An immutable, round-consistent copy of the model state queries score
/// against.
///
/// User embeddings are stored as one flat row-major `num_users × user_dim`
/// array (plus a presence mask — Share-less participants publish no user
/// embedding). Item-side aggregatable parameters are either one shared
/// vector (federated: the server's global model) or per-user rows (gossip:
/// each node serves from its own local mixture).
pub struct Snapshot {
    epoch: u64,
    user_dim: usize,
    agg_len: usize,
    users: Vec<f32>,
    present: Vec<bool>,
    aggs: Vec<f32>,
    shared_agg: bool,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("epoch", &self.epoch)
            .field("num_users", &self.num_users())
            .field("user_dim", &self.user_dim)
            .field("agg_len", &self.agg_len)
            .field("shared_agg", &self.shared_agg)
            .finish()
    }
}

impl Snapshot {
    /// Builds a snapshot with one shared aggregatable vector (the federated
    /// global model). `users` yields each participant's embedding in user-id
    /// order; `None` marks a participant that shares no embedding.
    ///
    /// # Panics
    ///
    /// Panics if an embedding's length differs from `user_dim`.
    pub fn shared<'a, I>(user_dim: usize, users: I, agg: &[f32]) -> Snapshot
    where
        I: IntoIterator<Item = Option<&'a [f32]>>,
    {
        let (users, present) = pack_users(user_dim, users);
        Snapshot {
            epoch: 0,
            user_dim,
            agg_len: agg.len(),
            users,
            present,
            aggs: agg.to_vec(),
            shared_agg: true,
        }
    }

    /// Builds a snapshot with per-user aggregatable rows (gossip: each node
    /// serves from its own local model). `nodes` yields
    /// `(user_embedding, agg)` in node order.
    ///
    /// # Panics
    ///
    /// Panics if any embedding or agg row has an inconsistent length.
    pub fn per_user<'a, I>(user_dim: usize, agg_len: usize, nodes: I) -> Snapshot
    where
        I: IntoIterator<Item = (Option<&'a [f32]>, &'a [f32])>,
    {
        let mut users = Vec::new();
        let mut present = Vec::new();
        let mut aggs = Vec::new();
        for (emb, agg) in nodes {
            assert_eq!(agg.len(), agg_len, "agg row length mismatch");
            aggs.extend_from_slice(agg);
            push_user(user_dim, emb, &mut users, &mut present);
        }
        Snapshot { epoch: 0, user_dim, agg_len, users, present, aggs, shared_agg: false }
    }

    /// The swap epoch stamped by [`SnapshotHub::publish`] (0 before
    /// publication).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of users the snapshot covers.
    #[must_use]
    pub fn num_users(&self) -> usize {
        self.present.len()
    }

    /// The user's embedding, or `None` if the user published none
    /// (Share-less) or the model has no user factors.
    #[must_use]
    pub fn user_emb(&self, user: u32) -> Option<&[f32]> {
        let u = user as usize;
        (self.user_dim > 0 && *self.present.get(u)?)
            .then(|| &self.users[u * self.user_dim..(u + 1) * self.user_dim])
    }

    /// The aggregatable parameters queries for `user` score against: the
    /// shared global vector, or the user's own row under per-user mode.
    ///
    /// # Panics
    ///
    /// Panics if `user` is out of range in per-user mode.
    #[must_use]
    pub fn agg_of(&self, user: u32) -> &[f32] {
        if self.shared_agg {
            &self.aggs
        } else {
            let u = user as usize;
            assert!(u < self.num_users(), "user {user} out of snapshot range");
            &self.aggs[u * self.agg_len..(u + 1) * self.agg_len]
        }
    }
}

fn pack_users<'a, I>(user_dim: usize, users: I) -> (Vec<f32>, Vec<bool>)
where
    I: IntoIterator<Item = Option<&'a [f32]>>,
{
    let mut flat = Vec::new();
    let mut present = Vec::new();
    for emb in users {
        push_user(user_dim, emb, &mut flat, &mut present);
    }
    (flat, present)
}

fn push_user(user_dim: usize, emb: Option<&[f32]>, flat: &mut Vec<f32>, present: &mut Vec<bool>) {
    match emb {
        Some(e) => {
            assert_eq!(e.len(), user_dim, "user embedding length mismatch");
            flat.extend_from_slice(e);
            present.push(true);
        }
        None => {
            flat.extend(std::iter::repeat_n(0.0, user_dim));
            present.push(false);
        }
    }
}

/// The swap point between one writer (the training loop) and any number of
/// readers (serving threads).
///
/// `publish` stamps the snapshot with the next epoch and swaps it in behind
/// an [`Arc`]; `load` hands a reader the current `Arc`. The lock guards only
/// the pointer swap — scoring always happens against an owned `Arc`, outside
/// any lock — so readers never block the trainer for longer than a pointer
/// copy, and a reader mid-query keeps a consistent (possibly one-epoch-old)
/// view until it finishes.
#[derive(Debug, Default)]
pub struct SnapshotHub {
    current: RwLock<Option<Arc<Snapshot>>>,
    epoch: AtomicU64,
}

impl SnapshotHub {
    /// An empty hub: `load` returns `None` until the first `publish`.
    #[must_use]
    pub fn new() -> Self {
        SnapshotHub::default()
    }

    /// Stamps `snap` with the next epoch and makes it the current snapshot.
    /// Returns the epoch assigned.
    pub fn publish(&self, mut snap: Snapshot) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        snap.epoch = epoch;
        *self.current.write().expect("snapshot lock poisoned") = Some(Arc::new(snap));
        epoch
    }

    /// The current snapshot, or `None` before the first `publish`.
    #[must_use]
    pub fn load(&self) -> Option<Arc<Snapshot>> {
        self.current.read().expect("snapshot lock poisoned").clone()
    }

    /// Epoch of the most recently published snapshot (0 if none yet).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }
}

/// One answered query: the ranked `(score, item)` list and the snapshot
/// epoch it was computed against.
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// Epoch of the snapshot the ranking was computed against.
    pub epoch: u64,
    ranked: Arc<Vec<(f32, u32)>>,
}

impl ServeReply {
    /// Ranked `(score, item)` pairs, best first.
    #[must_use]
    pub fn ranked(&self) -> &[(f32, u32)] {
        &self.ranked
    }

    /// Ranked item ids, best first.
    #[must_use]
    pub fn ids(&self) -> Vec<u32> {
        self.ranked.iter().map(|&(_, id)| id).collect()
    }
}

/// Cache key: `(user, k)` — one entry per distinct query shape.
type QueryKey = (u32, usize);

struct RankingCache {
    epoch: u64,
    // cia-lint: allow(D01, lookup-only ranking cache: keyed gets and inserts, never iterated, flushed wholesale on epoch swap)
    map: HashMap<QueryKey, Arc<Vec<(f32, u32)>>>,
}

/// Answers top-k queries against whatever snapshot the hub currently holds.
///
/// Scoring streams the catalog in [`SERVE_TILE`]-item tiles through the
/// scorer's [`score_item_range`](RelevanceScorer::score_item_range) kernel
/// path into a [`TopK`] selector, so a query allocates O(tile + k), never
/// O(catalog). Results are cached per `(user, k)` until the next snapshot
/// swap; the cache is capacity-bounded (new entries are dropped when full —
/// the bound is a memory guarantee, not an eviction policy) and flushed
/// wholesale when the observed epoch changes.
pub struct ServeEngine<S> {
    scorer: S,
    hub: Arc<SnapshotHub>,
    rec: Recorder,
    cache: Mutex<RankingCache>,
    cache_capacity: usize,
}

impl<S: std::fmt::Debug> std::fmt::Debug for ServeEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("scorer", &self.scorer)
            .field("cache_capacity", &self.cache_capacity)
            .finish_non_exhaustive()
    }
}

impl<S: RelevanceScorer> ServeEngine<S> {
    /// An engine over `hub` scoring with `scorer`, caching at most
    /// `cache_capacity` rankings per snapshot epoch.
    #[must_use]
    pub fn new(scorer: S, hub: Arc<SnapshotHub>, cache_capacity: usize) -> Self {
        ServeEngine {
            scorer,
            hub,
            rec: Recorder::new(),
            // cia-lint: allow(D01, constructed empty; the RankingCache order-safety invariant is documented on the field above)
            cache: Mutex::new(RankingCache { epoch: 0, map: HashMap::new() }),
            cache_capacity,
        }
    }

    /// Installs the recorder serve counters and the `serve_us` histogram
    /// report into. Serving keeps its own recorder (distinct from the
    /// training scenario's) so attaching a server never perturbs the
    /// training transcript.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// The recorder serve metrics report into.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// The hub this engine reads snapshots from.
    #[must_use]
    pub fn hub(&self) -> &Arc<SnapshotHub> {
        &self.hub
    }

    /// Answers a top-`k` query for `user` against the current snapshot.
    ///
    /// Returns `None` when no snapshot has been published yet, when `user`
    /// is outside the snapshot, or when the model needs a user embedding the
    /// snapshot doesn't hold for this user (Share-less participants).
    ///
    /// Ranking order matches the offline evaluator exactly: descending
    /// score with ascending item id breaking ties (the [`TopK`] total
    /// order), so a served ranking equals the full-sort prefix bit for bit.
    pub fn top_k(&self, user: u32, k: usize) -> Option<ServeReply> {
        let snap = self.hub.load()?;
        if user as usize >= snap.num_users() {
            return None;
        }
        let user_emb = snap.user_emb(user);
        if self.scorer.user_emb_len() > 0 && user_emb.is_none() {
            return None;
        }
        let t0 = self.rec.clock();

        if let Some(ranked) = self.cache_lookup(snap.epoch, user, k) {
            self.rec.inc(Counter::ServeCacheHits);
            self.rec.observe_since(Metric::ServeMicros, t0);
            return Some(ServeReply { epoch: snap.epoch, ranked });
        }
        self.rec.inc(Counter::ServeCacheMisses);

        let agg = snap.agg_of(user);
        let n = self.scorer.num_items() as usize;
        let mut sel = TopK::new(k);
        let mut tile = vec![0.0f32; SERVE_TILE.min(n.max(1))];
        let mut start = 0usize;
        while start < n {
            let len = SERVE_TILE.min(n - start);
            let out = &mut tile[..len];
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            self.scorer.score_item_range(user_emb, agg, start as u32, out);
            for (i, &score) in out.iter().enumerate() {
                // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                sel.push(score, (start + i) as u32);
            }
            start += len;
        }
        let ranked = Arc::new(sel.into_sorted());

        self.cache_insert(snap.epoch, user, k, Arc::clone(&ranked));
        self.rec.observe_since(Metric::ServeMicros, t0);
        Some(ServeReply { epoch: snap.epoch, ranked })
    }

    fn cache_lookup(&self, epoch: u64, user: u32, k: usize) -> Option<Arc<Vec<(f32, u32)>>> {
        let mut cache = self.cache.lock().expect("ranking cache poisoned");
        if cache.epoch != epoch {
            // A swap happened since this cache was filled: every cached
            // ranking is stale at once, so flush rather than compare epochs
            // per entry.
            cache.map.clear();
            cache.epoch = epoch;
            return None;
        }
        cache.map.get(&(user, k)).cloned()
    }

    fn cache_insert(&self, epoch: u64, user: u32, k: usize, ranked: Arc<Vec<(f32, u32)>>) {
        let mut cache = self.cache.lock().expect("ranking cache poisoned");
        if cache.epoch == epoch && cache.map.len() < self.cache_capacity {
            cache.map.insert((user, k), ranked);
        }
    }
}

/// A deterministic synthetic query stream: Zipf-skewed user popularity from
/// a seeded RNG. Rank 0 (the hottest user) is user 0 — the skew is over
/// user *ids*, which is all a cache-hit-rate benchmark needs.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    zipf: Zipf,
    rng: StdRng,
}

impl QueryWorkload {
    /// A workload over `num_users` users with Zipf exponent `s`, seeded for
    /// exact replay.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_users == 0` or `s` is negative or
    /// non-finite.
    pub fn new(num_users: usize, s: f64, seed: u64) -> Result<Self, DataError> {
        Ok(QueryWorkload { zipf: Zipf::new(num_users, s)?, rng: StdRng::seed_from_u64(seed) })
    }

    /// The next querying user.
    pub fn next_user(&mut self) -> u32 {
        // cia-lint: allow(D05, Zipf support is 1..=num_users and num_users is validated to fit u32)
        self.zipf.sample(&mut self.rng) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cia_models::{GmfHyper, GmfSpec};

    fn scorer(items: u32, dim: usize) -> GmfSpec {
        GmfSpec::new(items, dim, GmfHyper { lr: 0.1, ..GmfHyper::default() })
    }

    /// A snapshot whose every parameter equals its (intended) epoch, so a
    /// reader can detect any torn or mid-publish view.
    fn stamped_snapshot(epoch: u64, users: usize, dim: usize, agg_len: usize) -> Snapshot {
        let v = epoch as f32;
        let emb = vec![v; dim];
        let rows: Vec<Option<&[f32]>> = (0..users).map(|_| Some(emb.as_slice())).collect();
        let agg = vec![v; agg_len];
        Snapshot::shared(dim, rows, &agg)
    }

    #[test]
    fn racing_reader_only_sees_fully_published_snapshots() {
        let hub = Arc::new(SnapshotHub::new());
        let reader = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                let mut seen = 0u64;
                let mut last_epoch = 0u64;
                while last_epoch < 200 {
                    let Some(snap) = hub.load() else { continue };
                    let want = snap.epoch() as f32;
                    // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
                    for u in 0..snap.num_users() as u32 {
                        let emb = snap.user_emb(u).expect("published embedding");
                        assert!(emb.iter().all(|&x| x == want), "torn user row");
                    }
                    assert!(snap.agg_of(0).iter().all(|&x| x == want), "torn agg");
                    assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                    last_epoch = snap.epoch();
                    seen += 1;
                }
                seen
            })
        };
        for e in 1..=200 {
            let published = hub.publish(stamped_snapshot(e, 8, 4, 16));
            assert_eq!(published, e);
        }
        let seen = reader.join().expect("reader panicked");
        assert!(seen > 0);
        assert_eq!(hub.epoch(), 200);
    }

    #[test]
    fn cache_hits_within_epoch_and_invalidates_on_swap() {
        let s = scorer(40, 4);
        let hub = Arc::new(SnapshotHub::new());
        let engine = ServeEngine::new(s, Arc::clone(&hub), 64);

        assert!(engine.top_k(0, 5).is_none(), "no snapshot yet");

        hub.publish(stamped_snapshot(1, 6, 4, 40 * 4 + 4));
        let a = engine.top_k(3, 5).expect("served");
        let b = engine.top_k(3, 5).expect("served");
        assert_eq!(a.epoch, 1);
        assert_eq!(a.ids(), b.ids());
        let rec = engine.recorder();
        assert_eq!(rec.counter(Counter::ServeCacheMisses), 1);
        assert_eq!(rec.counter(Counter::ServeCacheHits), 1);

        // Swap: the cached ranking must not be reused.
        hub.publish(stamped_snapshot(2, 6, 4, 40 * 4 + 4));
        let c = engine.top_k(3, 5).expect("served");
        assert_eq!(c.epoch, 2);
        assert_eq!(rec.counter(Counter::ServeCacheMisses), 2);
        assert_eq!(rec.counter(Counter::ServeCacheHits), 1);
    }

    #[test]
    fn cache_capacity_bounds_entries() {
        let s = scorer(16, 4);
        let hub = Arc::new(SnapshotHub::new());
        let engine = ServeEngine::new(s, Arc::clone(&hub), 2);
        hub.publish(stamped_snapshot(1, 8, 4, 16 * 4 + 4));
        for u in 0..6 {
            engine.top_k(u, 3).expect("served");
        }
        // Re-query: only the first two rankings were retained.
        for u in 0..6 {
            engine.top_k(u, 3).expect("served");
        }
        let rec = engine.recorder();
        assert_eq!(rec.counter(Counter::ServeCacheMisses), 10);
        assert_eq!(rec.counter(Counter::ServeCacheHits), 2);
    }

    #[test]
    fn absent_user_embedding_yields_none() {
        let s = scorer(16, 4);
        let hub = Arc::new(SnapshotHub::new());
        let engine = ServeEngine::new(s, Arc::clone(&hub), 8);
        let emb = vec![0.5f32; 4];
        let users: Vec<Option<&[f32]>> = vec![Some(&emb), None];
        let agg = vec![0.1f32; 16 * 4 + 4];
        hub.publish(Snapshot::shared(4, users, &agg));
        assert!(engine.top_k(0, 3).is_some());
        assert!(engine.top_k(1, 3).is_none(), "Share-less user has no embedding");
        assert!(engine.top_k(7, 3).is_none(), "user outside snapshot");
    }

    #[test]
    fn per_user_snapshot_routes_each_user_to_own_agg() {
        let dim = 4;
        let agg_len = 16 * dim + dim;
        let emb = vec![0.3f32; dim];
        let a0 = vec![1.0f32; agg_len];
        let a1 = vec![2.0f32; agg_len];
        let snap = Snapshot::per_user(
            dim,
            agg_len,
            vec![(Some(emb.as_slice()), a0.as_slice()), (Some(emb.as_slice()), a1.as_slice())],
        );
        assert!(snap.agg_of(0).iter().all(|&x| x == 1.0));
        assert!(snap.agg_of(1).iter().all(|&x| x == 2.0));
    }

    #[test]
    fn workload_is_deterministic_and_zipf_skewed() {
        let mut w1 = QueryWorkload::new(100, 1.1, 7).expect("workload");
        let mut w2 = QueryWorkload::new(100, 1.1, 7).expect("workload");
        let draws: Vec<u32> = (0..500).map(|_| w1.next_user()).collect();
        assert!(draws.iter().all(|&u| u < 100));
        assert!((0..500).all(|i| w2.next_user() == draws[i]), "same seed, same stream");
        let hot = draws.iter().filter(|&&u| u < 10).count();
        assert!(hot > 250, "Zipf skew should concentrate on hot users, got {hot}/500");
    }
}

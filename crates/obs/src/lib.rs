//! `cia-obs` — dependency-free observability for the simulation stack.
//!
//! The paper's experiments live or die on knowing *where* round time and
//! memory go. This crate is the one sink every layer reports into:
//!
//! * **Spans** — a scoped-timer API ([`Recorder::span`]) producing
//!   hierarchical phase timings (`round` → `sample` →
//!   `train` → …) on a monotonic clock, with the recording thread and
//!   nesting depth attached to every span.
//! * **Counters** — a typed registry ([`Counter`]) of monotone event
//!   counters (clients trained, bytes on the wire, bytes materialized, …).
//!   Counters are plain atomics: always on, safe to bump from parallel
//!   training workers, and deterministic for deterministic workloads —
//!   all but `fold_wait_us` and `merge_wait_us`, which count waited
//!   microseconds.
//! * **Histograms** — fixed log₂-bucket latency histograms ([`Metric`],
//!   [`Histogram`]): bucket edges are powers of two, so bucket assignment is
//!   deterministic, and parallel workers record into the recorder's shared
//!   buckets with atomic adds.
//!
//! A [`Recorder`] is an explicit, cheaply clonable handle (an `Arc` around
//! the registry), **not** a process-global: simulations each own a default
//! recorder, and an orchestrator (the `cia-scenarios` runner) installs one
//! shared recorder per scenario so concurrent simulations — e.g. parallel
//! `cargo test` threads — can never cross-contaminate each other's streams.
//!
//! Span and histogram collection sits behind a *detail* flag
//! ([`Recorder::set_detail`]) so undrained long runs cannot grow an
//! unbounded span log and untraced hot loops pay no clock reads; counters
//! are always live (protocol statistics are derived from their per-round
//! deltas). Wall-clock measurements are inherently non-deterministic, which
//! is why everything drained from a recorder is *timing-class* data: the
//! scenario runner never lets it near a `--no-timing` transcript.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The typed counter registry: one slot per cross-layer event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Clients (FL) or nodes (GL) that ran local training.
    ClientsTrained = 0,
    /// Bytes of model snapshots routed between gossip nodes.
    BytesOnWire = 1,
    /// Bytes of FedAvg client snapshots refilled for the observer or the DP
    /// transform.
    BytesMaterialized = 2,
    /// Model deliveries pushed into gossip inboxes.
    InboxDeliveries = 3,
    /// Bytes of model state memcpy'd by a protocol round: FedAvg snapshot
    /// refills; in gossip, pushes that copy instead of lending, held copies
    /// for asleep receivers, one copied push per cycle of the round's send
    /// graph, the DP transform's clean-vector copies, and DP lenders with no
    /// mail copying their clean parameters back.
    BytesCopied = 4,
    /// Microseconds FedAvg's training workers spent waiting for their turn
    /// to fold a finished block into the round's aggregate. Unlike the
    /// others this is a wall-clock reading: timing-class, like spans.
    FoldWaitMicros = 5,
    /// Microseconds gossip nodes spent waiting for their push's receiver to
    /// merge before taking the pushed buffer back. A wall-clock reading,
    /// timing-class like `fold_wait_us`.
    MergeWaitMicros = 6,
}

impl Counter {
    /// Every counter, in registry order.
    pub const ALL: [Counter; 7] = [
        Counter::ClientsTrained,
        Counter::BytesOnWire,
        Counter::BytesMaterialized,
        Counter::InboxDeliveries,
        Counter::BytesCopied,
        Counter::FoldWaitMicros,
        Counter::MergeWaitMicros,
    ];

    /// The counter's stable snake_case name (JSONL / trace-file key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::ClientsTrained => "clients_trained",
            Counter::BytesOnWire => "bytes_on_wire",
            Counter::BytesMaterialized => "bytes_materialized",
            Counter::InboxDeliveries => "inbox_deliveries",
            Counter::BytesCopied => "bytes_copied",
            Counter::FoldWaitMicros => "fold_wait_us",
            Counter::MergeWaitMicros => "merge_wait_us",
        }
    }
}

/// The histogram registry: one latency distribution per instrumented
/// per-item operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Per-client local-training wall time, in microseconds.
    TrainMicros = 0,
    /// Per-node neighbor-mix wall time (gossip `merge_agg` with mail), in
    /// microseconds.
    MixMicros = 1,
}

impl Metric {
    /// Every metric, in registry order.
    pub const ALL: [Metric; 2] = [Metric::TrainMicros, Metric::MixMicros];

    /// The metric's stable snake_case name (JSONL / trace-file key).
    pub fn name(self) -> &'static str {
        match self {
            Metric::TrainMicros => "train_us",
            Metric::MixMicros => "mix_us",
        }
    }
}

/// Number of log₂ buckets: bucket 0 holds exactly the value 0, bucket `b ≥ 1`
/// holds `[2^(b-1), 2^b)`, and the last bucket absorbs everything from
/// `2^(HIST_BUCKETS-2)` up (≈ 12.7 days in microseconds — no round phase
/// plausibly escapes it).
pub const HIST_BUCKETS: usize = 41;

/// The nearest-rank quantile convention shared by every quantile site in the
/// workspace: the 1-based rank of quantile `q` over `n` observations is
/// `⌈q·n⌉` clamped to `[1, n]`. [`Histogram::quantile`] walks its buckets to
/// this rank and `cia-scenarios`' report tables index sorted per-round
/// values with it, so the two views can never drift by an off-by-one — the
/// ⌈q·n⌉ boundary cases (small `n`, `q` near a multiple of `1/n`) are pinned
/// in one place.
#[must_use]
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// A fixed log₂-bucket histogram. Bucket edges are powers of two and never
/// depend on the data, so bucket assignment is a pure function of the value
/// ([`Histogram::bucket_of`]). It is the plain snapshot of the recorder's
/// atomic buckets, which parallel workers add into without coordination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket observation counts.
    pub counts: [u64; HIST_BUCKETS],
    /// Sum of every recorded value (exact, not bucket-approximated).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: [0; HIST_BUCKETS], sum: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index a value lands in: 0 for 0, otherwise
    /// `floor(log2(v)) + 1`, capped at the last bucket.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// The inclusive upper edge of a bucket (the value reported for
    /// quantiles landing in it).
    ///
    /// # Panics
    ///
    /// Panics if `bucket >= HIST_BUCKETS`.
    #[must_use]
    pub fn bucket_upper_edge(bucket: usize) -> u64 {
        assert!(bucket < HIST_BUCKETS, "bucket out of range");
        if bucket == 0 {
            0
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.sum += value;
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether no observations were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The bucket-upper-edge estimate of quantile `q ∈ [0, 1]` (0 on an
    /// empty histogram). Deterministic: the rank is `ceil(q·count)` clamped
    /// to `[1, count]` and the answer is the inclusive upper edge of the
    /// bucket holding that rank.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = nearest_rank(q, total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_edge(b);
            }
        }
        Self::bucket_upper_edge(HIST_BUCKETS - 1)
    }
}

/// One recorded span: a named phase with its thread, nesting depth and
/// monotonic-clock window (microseconds since the process trace epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Phase name.
    pub name: &'static str,
    /// Small dense id of the recording thread (Chrome-trace `tid`).
    pub tid: u32,
    /// Nesting depth at recording time (0 = top level).
    pub depth: u16,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

/// Everything a recorder accumulated since the previous [`Recorder::drain`]:
/// the completed spans plus per-counter and per-histogram *deltas*.
#[derive(Debug, Clone, Default)]
pub struct TraceChunk {
    /// Spans completed in this window, in completion order.
    pub spans: Vec<SpanRec>,
    /// Non-zero counter increments, in [`Counter::ALL`] order.
    pub counters: Vec<(Counter, u64)>,
    /// Non-empty histogram increments, in [`Metric::ALL`] order.
    pub hists: Vec<(Metric, Histogram)>,
}

impl TraceChunk {
    /// Sum of `dur_us` over spans named `name`.
    #[must_use]
    pub fn span_us(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).sum()
    }

    /// The delta recorded for `counter` in this window (0 if absent).
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.iter().find(|(c, _)| *c == counter).map_or(0, |(_, v)| *v)
    }
}

/// The process trace epoch: every span's `start_us` is relative to the first
/// clock read any recorder performed, so spans from different recorders (and
/// scenarios) share one Chrome-trace timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Dense per-thread ids for Chrome-trace `tid` fields.
fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static TID: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    /// Span nesting depth on this thread (across recorders — spans nest
    /// lexically, not per-handle).
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

struct AtomicHist {
    counts: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl AtomicHist {
    const fn new() -> Self {
        AtomicHist { counts: [const { AtomicU64::new(0) }; HIST_BUCKETS], sum: AtomicU64::new(0) }
    }

    fn snapshot(&self) -> Histogram {
        let mut h = Histogram::new();
        for (dst, src) in h.counts.iter_mut().zip(&self.counts) {
            *dst = src.load(Ordering::Relaxed);
        }
        h.sum = self.sum.load(Ordering::Relaxed);
        h
    }
}

/// The drained-so-far watermarks behind delta computation.
#[derive(Default)]
struct Drained {
    counters: [u64; Counter::ALL.len()],
    hists: Vec<Histogram>,
}

struct Inner {
    counters: [AtomicU64; Counter::ALL.len()],
    hists: [AtomicHist; Metric::ALL.len()],
    detail: AtomicBool,
    spans: Mutex<Vec<SpanRec>>,
    drained: Mutex<Drained>,
}

/// A metrics/trace sink handle. Cloning is cheap (`Arc`); all clones share
/// one registry. See the crate docs for the ownership model.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").field("detail", &self.detail()).finish_non_exhaustive()
    }
}

impl Recorder {
    /// A fresh recorder with detail (spans + histograms) disabled.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Inner {
                counters: [const { AtomicU64::new(0) }; Counter::ALL.len()],
                hists: [const { AtomicHist::new() }; Metric::ALL.len()],
                detail: AtomicBool::new(false),
                spans: Mutex::new(Vec::new()),
                drained: Mutex::new(Drained {
                    counters: [0; Counter::ALL.len()],
                    hists: vec![Histogram::new(); Metric::ALL.len()],
                }),
            }),
        }
    }

    /// Enables or disables detail collection (spans and histograms).
    /// Counters are unaffected — they are always live.
    pub fn set_detail(&self, on: bool) {
        self.inner.detail.store(on, Ordering::Relaxed);
    }

    /// Whether detail collection is enabled.
    #[must_use]
    pub fn detail(&self) -> bool {
        self.inner.detail.load(Ordering::Relaxed)
    }

    /// Adds to a counter.
    pub fn add(&self, counter: Counter, value: u64) {
        self.inner.counters[counter as usize].fetch_add(value, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// The counter's lifetime total.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.inner.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Records one histogram observation (no-op unless detail is enabled —
    /// but see [`Recorder::clock`], which avoids the clock read too).
    pub fn observe(&self, metric: Metric, value: u64) {
        if !self.detail() {
            return;
        }
        let h = &self.inner.hists[metric as usize];
        h.counts[Histogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A clock read for latency measurement: `Some(now)` when detail is
    /// enabled, `None` otherwise — so untraced hot loops skip the clock
    /// entirely. Pair with [`Recorder::observe_since`].
    #[must_use]
    pub fn clock(&self) -> Option<Instant> {
        self.detail().then(Instant::now)
    }

    /// Records the microseconds elapsed since a [`Recorder::clock`] read
    /// (no-op on `None`).
    pub fn observe_since(&self, metric: Metric, start: Option<Instant>) {
        if let Some(t0) = start {
            self.observe(metric, t0.elapsed().as_micros() as u64);
        }
    }

    /// The histogram's lifetime snapshot.
    #[must_use]
    pub fn histogram(&self, metric: Metric) -> Histogram {
        self.inner.hists[metric as usize].snapshot()
    }

    /// Opens a scoped phase span: the returned guard records the span when
    /// dropped. A no-op (and allocation-free) guard when detail is off.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.detail() {
            return SpanGuard { rec: None, name, depth: 0, start: None };
        }
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        // Materialize the epoch before the first span starts so start_us
        // subtraction never underflows.
        let _ = epoch();
        SpanGuard { rec: Some(self), name, depth, start: Some(Instant::now()) }
    }

    /// Takes everything accumulated since the last drain: completed spans,
    /// counter deltas and histogram deltas. Typically called once per round
    /// by whoever owns the recorder.
    pub fn drain(&self) -> TraceChunk {
        let spans = std::mem::take(&mut *self.inner.spans.lock().expect("span log poisoned"));
        let mut watermark = self.inner.drained.lock().expect("drain watermark poisoned");
        let mut counters = Vec::new();
        for c in Counter::ALL {
            let now = self.counter(c);
            let delta = now - watermark.counters[c as usize];
            watermark.counters[c as usize] = now;
            if delta > 0 {
                counters.push((c, delta));
            }
        }
        let mut hists = Vec::new();
        for m in Metric::ALL {
            let now = self.histogram(m);
            let prev = &watermark.hists[m as usize];
            let mut delta = Histogram::new();
            for (d, (a, b)) in delta.counts.iter_mut().zip(now.counts.iter().zip(&prev.counts)) {
                *d = a - b;
            }
            delta.sum = now.sum - prev.sum;
            watermark.hists[m as usize] = now;
            if !delta.is_empty() {
                hists.push((m, delta));
            }
        }
        TraceChunk { spans, counters, hists }
    }
}

/// A scoped-span guard; records the span into its recorder on drop.
pub struct SpanGuard<'a> {
    rec: Option<&'a Recorder>,
    name: &'static str,
    depth: u16,
    start: Option<Instant>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(rec), Some(start)) = (self.rec, self.start) else { return };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let start_us = start.duration_since(epoch()).as_micros() as u64;
        let dur_us = start.elapsed().as_micros() as u64;
        rec.inner.spans.lock().expect("span log poisoned").push(SpanRec {
            name: self.name,
            tid: thread_id(),
            depth: self.depth,
            start_us,
            dur_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_accumulate_and_drain_as_deltas() {
        let rec = Recorder::new();
        rec.add(Counter::BytesOnWire, 10);
        rec.inc(Counter::InboxDeliveries);
        assert_eq!(rec.counter(Counter::BytesOnWire), 10);
        let chunk = rec.drain();
        assert_eq!(chunk.counter(Counter::BytesOnWire), 10);
        assert_eq!(chunk.counter(Counter::InboxDeliveries), 1);
        assert_eq!(chunk.counter(Counter::ClientsTrained), 0);
        // A second drain sees only new increments.
        rec.add(Counter::BytesOnWire, 5);
        let chunk = rec.drain();
        assert_eq!(chunk.counter(Counter::BytesOnWire), 5);
        assert_eq!(rec.counter(Counter::BytesOnWire), 15);
    }

    #[test]
    fn clones_share_one_registry() {
        let rec = Recorder::new();
        let other = rec.clone();
        other.add(Counter::ClientsTrained, 7);
        assert_eq!(rec.counter(Counter::ClientsTrained), 7);
    }

    #[test]
    fn spans_respect_the_detail_flag() {
        let rec = Recorder::new();
        {
            let _g = rec.span("off");
        }
        assert!(rec.drain().spans.is_empty(), "detail off must record nothing");
        rec.set_detail(true);
        {
            let _outer = rec.span("outer");
            let _inner = rec.span("inner");
        }
        let spans = rec.drain().spans;
        assert_eq!(spans.len(), 2);
        // Completion order: inner drops first.
        assert_eq!((spans[0].name, spans[0].depth), ("inner", 1));
        assert_eq!((spans[1].name, spans[1].depth), ("outer", 0));
        assert!(spans[1].dur_us >= spans[0].dur_us);
        assert!(spans[0].start_us >= spans[1].start_us);
    }

    #[test]
    fn histograms_record_only_with_detail_and_drain_as_deltas() {
        let rec = Recorder::new();
        rec.observe(Metric::TrainMicros, 100);
        assert!(rec.histogram(Metric::TrainMicros).is_empty());
        assert!(rec.clock().is_none(), "no clock reads while detail is off");
        rec.set_detail(true);
        rec.observe(Metric::TrainMicros, 100);
        rec.observe(Metric::TrainMicros, 3);
        let chunk = rec.drain();
        assert_eq!(chunk.hists.len(), 1);
        let (m, h) = &chunk.hists[0];
        assert_eq!(*m, Metric::TrainMicros);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum, 103);
        rec.observe(Metric::MixMicros, 1);
        let chunk = rec.drain();
        assert_eq!(chunk.hists.len(), 1);
        assert_eq!(chunk.hists[0].0, Metric::MixMicros);
    }

    #[test]
    fn bucket_edges_partition_the_domain() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(Histogram::bucket_upper_edge(0), 0);
        assert_eq!(Histogram::bucket_upper_edge(2), 3);
    }

    #[test]
    fn quantiles_walk_bucket_edges_deterministically() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(0.99), Histogram::bucket_upper_edge(Histogram::bucket_of(1000)));
        assert_eq!(h.quantile(0.0), 1, "rank clamps to the first observation");
    }

    #[test]
    fn span_us_sums_repeated_phases() {
        let chunk = TraceChunk {
            spans: vec![
                SpanRec { name: "train", tid: 0, depth: 1, start_us: 0, dur_us: 5 },
                SpanRec { name: "train", tid: 0, depth: 1, start_us: 9, dur_us: 7 },
                SpanRec { name: "mix", tid: 0, depth: 1, start_us: 5, dur_us: 4 },
            ],
            counters: vec![],
            hists: vec![],
        };
        assert_eq!(chunk.span_us("train"), 12);
        assert_eq!(chunk.span_us("mix"), 4);
        assert_eq!(chunk.span_us("absent"), 0);
    }

    fn hist_of(values: &[u64]) -> Histogram {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    proptest! {
        #[test]
        fn bucket_assignment_is_deterministic_and_edge_consistent(v in any::<u64>()) {
            let b = Histogram::bucket_of(v);
            prop_assert_eq!(b, Histogram::bucket_of(v));
            prop_assert!(b < HIST_BUCKETS);
            // The value sits at or below its bucket's inclusive upper edge
            // and above the previous bucket's.
            prop_assert!(v <= Histogram::bucket_upper_edge(b) || b == HIST_BUCKETS - 1);
            if b > 0 {
                prop_assert!(v > Histogram::bucket_upper_edge(b - 1));
            }
        }

        #[test]
        fn quantile_matches_rank_walk(values in proptest::collection::vec(0u64..100_000, 1..200)) {
            let h = hist_of(&values);
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for &q in &[0.5, 0.9, 0.99, 1.0] {
                let rank = nearest_rank(q, sorted.len() as u64) as usize;
                let expect = Histogram::bucket_upper_edge(Histogram::bucket_of(sorted[rank - 1]));
                prop_assert_eq!(h.quantile(q), expect);
            }
        }

        #[test]
        fn nearest_rank_is_monotone_and_bounded(n in 1u64..64, qa in 0.0f64..1.0, qb in 0.0f64..1.0) {
            let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
            let (ra, rb) = (nearest_rank(lo, n), nearest_rank(hi, n));
            prop_assert!((1..=n).contains(&ra));
            prop_assert!((1..=n).contains(&rb));
            prop_assert!(ra <= rb);
        }
    }

    #[test]
    fn nearest_rank_pins_boundary_cases() {
        // The ⌈q·n⌉ off-by-one traps: q = 0 still selects rank 1, q = 1
        // selects rank n, and exact multiples of 1/n do not round up.
        assert_eq!(nearest_rank(0.0, 5), 1);
        assert_eq!(nearest_rank(1.0, 5), 5);
        assert_eq!(nearest_rank(0.5, 1), 1);
        assert_eq!(nearest_rank(0.5, 2), 1); // ⌈1.0⌉ = 1, not 2
        assert_eq!(nearest_rank(0.5, 3), 2); // ⌈1.5⌉ = 2
        assert_eq!(nearest_rank(0.99, 100), 99);
        assert_eq!(nearest_rank(0.99, 101), 100);
        assert_eq!(nearest_rank(0.5, 0), 0); // empty: caller returns 0
    }
}

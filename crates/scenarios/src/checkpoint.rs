//! Checkpoint encoding for resumable suite runs.
//!
//! A checkpoint captures everything a scenario run needs to continue after
//! the process is killed: the round counter, every participant's private
//! state, the protocol-side state (global model in FL; views, refresh
//! schedule and mailboxes in gossip), the attack's momentum/tracker state,
//! the adversary's fictive embeddings, and the dynamics layer's
//! online/straggler state. Per-round RNG streams are derived from
//! `(seed, round)` throughout the workspace, so no generator state is saved
//! — resuming replays the exact rounds an uninterrupted run would have run.
//!
//! The format is a private little-endian binary encoding (`f32`/`f64` as raw
//! bits, so restores are bit-exact), guarded by a magic, a version, the
//! scenario spec's fingerprint and a trailing FNV-1a-64 checksum.
//!
//! **Recorder state is deliberately *not* checkpointed.** The observability
//! layer (`cia_obs::Recorder`) holds wall-clock span logs, latency
//! histograms and event counters — measurements of *this process's*
//! execution, not of the simulated protocol. A resumed process cannot
//! meaningfully continue another process's clock readings, and counters
//! replayed from a checkpoint would double-count the pre-kill rounds'
//! events against the post-resume rounds' wall time. A resume therefore
//! starts a fresh recorder: `trace` records and Chrome trace output after a
//! resume cover only post-resume rounds (the deterministic `round_eval`
//! stream is unaffected — per-round stats are derived from within-round
//! counter deltas, which do not depend on the counter's absolute value).

use cia_core::{CiaAttackState, MomentumState, PlacementsState, RoundPoint};
use cia_data::UserId;
use cia_gossip::{GossipSimState, TrafficCounters};
use cia_models::SharedModel;
use std::io::Write;
use std::path::{Path, PathBuf};

// The magic spells "CIAS".
const MAGIC: u32 = 0x4349_4153;
// v7: an 8-byte trailer holds the FNV-1a-64 of every byte before it, so a
// flipped bit anywhere is refused instead of resuming from a silently
// different state.
// v6: gossip state dropped v5's pending event-queue section — view refreshes
// are scheduled by the per-node `refresh_at` rounds alone, which the gossip
// section already carries.
// v4: undelivered gossip inbox models are delta-encoded against the sender's
// `prev_sent` reference (its momentum of clean outgoing state) — sparse
// training touches a handful of item rows per round, so the last undelivered
// snapshot from a sender differs from the reference in only those slots; the
// sender's reference section now precedes the inboxes so decoding can expand
// deltas in one pass. Models without a usable reference (no DP/clip
// transform installed, length mismatch, or a dense diff) fall back to the
// dense encoding, so the roundtrip is bit-exact either way. v3: gossip state
// gained per-node traffic counters and the checkpoint an adaptive
// sybil-placement section (relocation phase, membership, warm-up delivery
// log). v2 added `upper_bound_online` to `RoundPoint`. Checkpoints from
// older versions are refused with a version error rather than silently
// misread.
const VERSION: u32 = 7;

/// Protocol-side state, by protocol family.
#[derive(Debug, Clone)]
pub enum ProtocolState {
    /// FedAvg: the current global model.
    Fl {
        /// Aggregated global parameters.
        global: Vec<f32>,
    },
    /// Gossip: views, refresh schedule, mailboxes.
    Gl(GossipSimState),
}

/// Attack-side state, by engine.
#[derive(Debug, Clone)]
pub enum AttackState {
    /// [`cia_core::FlCia`] / [`cia_core::GlCiaCoalition`] momentum state.
    Cia(CiaAttackState),
    /// [`cia_core::GlCiaAllPlacements`] score-EMA state.
    Placements(PlacementsState),
}

/// A full mid-run snapshot of one scenario.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Fingerprint of the owning [`crate::spec::ScenarioSpec`]; loading
    /// refuses a mismatch.
    pub fingerprint: u64,
    /// Rounds completed when the snapshot was taken.
    pub round: u64,
    /// Evaluation records already emitted to the JSONL stream.
    pub emitted: u64,
    /// Per-participant private state ([`cia_models::Participant::state_vec`]).
    pub clients: Vec<Vec<f32>>,
    /// Protocol-side state.
    pub protocol: ProtocolState,
    /// Attack-side state.
    pub attack: AttackState,
    /// Fictive adversary embeddings (Share-less; empty slots otherwise).
    pub adversary_embs: Vec<Option<Vec<f32>>>,
    /// Dynamics-layer state.
    pub dynamics: crate::dynamics::DynamicsState,
    /// Adaptive sybil-placement state (inert/default for FL runs and static
    /// placements).
    pub placement: crate::placement::PlacementState,
}

impl Checkpoint {
    /// The checkpoint file path for a scenario inside `dir`. The sanitized
    /// name is suffixed with the full 64-bit hash of the *exact* name so two
    /// scenarios whose names sanitize identically (`a.b` vs `a_b`) never
    /// share a file. (An earlier format truncated the hash to 32 bits, which
    /// let two suite cells collide in one checkpoint directory and silently
    /// resume from the wrong state.)
    pub fn path_for(dir: &Path, scenario: &str) -> PathBuf {
        // Names come from specs; keep the file name tame.
        let safe: String = scenario
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        let h = crate::spec::fnv1a64(scenario.bytes());
        dir.join(format!("{safe}-{h:016x}.ckpt"))
    }

    /// Serializes the checkpoint.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.u32(MAGIC);
        w.u32(VERSION);
        w.u64(self.fingerprint);
        w.u64(self.round);
        w.u64(self.emitted);
        w.u64(self.clients.len() as u64);
        for c in &self.clients {
            w.f32s(c);
        }
        match &self.protocol {
            ProtocolState::Fl { global } => {
                w.u8(0);
                w.f32s(global);
            }
            ProtocolState::Gl(state) => {
                w.u8(1);
                w.u64(state.round);
                w.u64(state.refresh_at.len() as u64);
                for &r in &state.refresh_at {
                    w.u64(r);
                }
                w.u64(state.views.len() as u64);
                for view in &state.views {
                    w.u32s(view);
                }
                // v4: sender references first, then the inboxes that delta
                // against them.
                w.u64(state.prev_sent.len() as u64);
                for prev in &state.prev_sent {
                    w.opt_f32s(prev.as_deref());
                }
                w.u64(state.inboxes.len() as u64);
                for inbox in &state.inboxes {
                    w.u64(inbox.len() as u64);
                    for m in inbox {
                        let reference =
                            state.prev_sent.get(m.owner.raw() as usize).and_then(|p| p.as_deref());
                        w.delta_model(m, reference);
                    }
                }
                w.u64(state.heard.len() as u64);
                for heard in &state.heard {
                    w.u64(heard.len() as u64);
                    for &(peer, score) in heard {
                        w.u32(peer);
                        w.f32(score);
                    }
                }
                w.u64s(&state.traffic.received);
                w.u64s(&state.traffic.view_in_degree);
            }
        }
        match &self.attack {
            AttackState::Cia(state) => {
                w.u8(0);
                w.u64(state.momentum.len() as u64);
                for m in &state.momentum {
                    match m {
                        None => w.u8(0),
                        Some(m) => {
                            w.u8(1);
                            w.opt_f32s(m.emb());
                            w.f32s(m.agg());
                            w.u64(m.updates());
                        }
                    }
                }
                w.round_points(&state.history);
                w.opt_f32s(state.last_global.as_deref());
                w.u8(u8::from(state.prepared));
            }
            AttackState::Placements(state) => {
                w.u8(1);
                w.f32s(&state.s_ema);
                w.round_points(&state.history);
                w.u8(u8::from(state.prepared));
            }
        }
        w.u64(self.adversary_embs.len() as u64);
        for e in &self.adversary_embs {
            w.opt_f32s(e.as_deref());
        }
        w.u64(self.dynamics.online.len() as u64);
        for &b in &self.dynamics.online {
            w.u8(u8::from(b));
        }
        w.u64(self.dynamics.straggler_until.len() as u64);
        for &t in &self.dynamics.straggler_until {
            w.u64(t);
        }
        w.u8(u8::from(self.placement.relocated));
        w.u32s(&self.placement.members);
        w.u64(self.placement.seen.len() as u64);
        for log in &self.placement.seen {
            w.u32s(log);
        }
        let sum = crate::spec::fnv1a64(w.buf.iter().copied());
        w.u64(sum);
        w.buf
    }

    /// Deserializes a checkpoint, verifying magic, version, checksum and
    /// fingerprint.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem — including a checksum
    /// mismatch, which means the bytes were truncated or corrupted, and a
    /// fingerprint mismatch, which means the checkpoint belongs to a
    /// different spec.
    pub fn decode(bytes: &[u8], expect_fingerprint: u64) -> Result<Checkpoint, String> {
        let mut r = Reader { bytes, pos: 0 };
        if r.u32()? != MAGIC {
            return Err("not a scenario checkpoint (bad magic)".to_string());
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(format!("unsupported checkpoint version {version}"));
        }
        let (body, sum) = bytes.split_last_chunk::<8>().ok_or("checkpoint truncated")?;
        if crate::spec::fnv1a64(body.iter().copied()) != u64::from_le_bytes(*sum) {
            return Err(
                "checkpoint checksum mismatch: the file is truncated or corrupted".to_string()
            );
        }
        r.bytes = body;
        let fingerprint = r.u64()?;
        if fingerprint != expect_fingerprint {
            return Err("checkpoint belongs to a different scenario spec (fingerprint mismatch)"
                .to_string());
        }
        let round = r.u64()?;
        let emitted = r.u64()?;
        let n_clients = r.len()?;
        let mut clients = Vec::with_capacity(n_clients);
        for _ in 0..n_clients {
            clients.push(r.f32s()?);
        }
        let protocol = match r.u8()? {
            0 => ProtocolState::Fl { global: r.f32s()? },
            1 => {
                let round = r.u64()?;
                let n = r.len()?;
                let mut refresh_at = Vec::with_capacity(n);
                for _ in 0..n {
                    refresh_at.push(r.u64()?);
                }
                let n = r.len()?;
                let mut views = Vec::with_capacity(n);
                for _ in 0..n {
                    views.push(r.u32s()?);
                }
                let n = r.len()?;
                let mut prev_sent = Vec::with_capacity(n);
                for _ in 0..n {
                    prev_sent.push(r.opt_f32s()?);
                }
                let n = r.len()?;
                let mut inboxes = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.len()?;
                    let mut inbox = Vec::with_capacity(len);
                    for _ in 0..len {
                        inbox.push(r.delta_model(&prev_sent)?);
                    }
                    inboxes.push(inbox);
                }
                let n = r.len()?;
                let mut heard = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.len()?;
                    let mut h = Vec::with_capacity(len);
                    for _ in 0..len {
                        let peer = r.u32()?;
                        let score = r.f32()?;
                        h.push((peer, score));
                    }
                    heard.push(h);
                }
                let traffic = TrafficCounters { received: r.u64s()?, view_in_degree: r.u64s()? };
                ProtocolState::Gl(GossipSimState {
                    round,
                    refresh_at,
                    views,
                    inboxes,
                    heard,
                    prev_sent,
                    traffic,
                })
            }
            tag => return Err(format!("unknown protocol state tag {tag}")),
        };
        let attack = match r.u8()? {
            0 => {
                let n = r.len()?;
                let mut momentum = Vec::with_capacity(n);
                for _ in 0..n {
                    momentum.push(match r.u8()? {
                        0 => None,
                        1 => {
                            let emb = r.opt_f32s()?;
                            let agg = r.f32s()?;
                            let updates = r.u64()?;
                            Some(MomentumState::from_parts(emb, agg, updates))
                        }
                        tag => return Err(format!("unknown momentum tag {tag}")),
                    });
                }
                let history = r.round_points()?;
                let last_global = r.opt_f32s()?;
                let prepared = r.u8()? == 1;
                AttackState::Cia(CiaAttackState { momentum, history, last_global, prepared })
            }
            1 => {
                let s_ema = r.f32s()?;
                let history = r.round_points()?;
                let prepared = r.u8()? == 1;
                AttackState::Placements(PlacementsState { s_ema, history, prepared })
            }
            tag => return Err(format!("unknown attack state tag {tag}")),
        };
        let n = r.len()?;
        let mut adversary_embs = Vec::with_capacity(n);
        for _ in 0..n {
            adversary_embs.push(r.opt_f32s()?);
        }
        let n = r.len()?;
        let mut online = Vec::with_capacity(n);
        for _ in 0..n {
            online.push(r.u8()? == 1);
        }
        let n = r.len()?;
        let mut straggler_until = Vec::with_capacity(n);
        for _ in 0..n {
            straggler_until.push(r.u64()?);
        }
        let relocated = r.u8()? == 1;
        let members = r.u32s()?;
        let n = r.len()?;
        let mut seen = Vec::with_capacity(n);
        for _ in 0..n {
            seen.push(r.u32s()?);
        }
        if r.pos != body.len() {
            return Err("trailing bytes in checkpoint".to_string());
        }
        // The placement section feeds indexing (sybil tables, delivery
        // logs); a corrupted id must be refused here, not panic at resume.
        let population = clients.len();
        if members.len() > population || members.iter().any(|&m| m as usize >= population) {
            return Err("placement members out of range".to_string());
        }
        if (!seen.is_empty() && seen.len() != population)
            || seen.iter().flatten().any(|&s| s as usize >= population)
        {
            return Err("placement delivery log malformed".to_string());
        }
        Ok(Checkpoint {
            fingerprint,
            round,
            emitted,
            clients,
            protocol,
            attack,
            adversary_embs,
            dynamics: crate::dynamics::DynamicsState { online, straggler_until },
            placement: crate::placement::PlacementState { relocated, members, seen },
        })
    }

    /// Writes the checkpoint durably and atomically, creating the parent
    /// directory if needed: the bytes go to a temp file that is synced to
    /// disk before it is renamed over `path`, and the parent directory is
    /// synced after the rename. A crash at any point leaves either the
    /// previous checkpoint or the new one, never a partial file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_durably(path, &self.encode())
    }

    /// Loads and verifies a checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file for I/O, structural, checksum or
    /// fingerprint failures.
    pub fn load(path: &Path, expect_fingerprint: u64) -> Result<Checkpoint, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Checkpoint::decode(&bytes, expect_fingerprint)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Writes `bytes` to `path` durably and atomically, creating the parent
/// directory if needed: they go to a `<path>.tmp` file that is synced to
/// disk before it is renamed over `path`, and the parent directory is synced
/// after the rename. A crash at any point leaves either the previous file or
/// the new one, never a partial file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub(crate) fn write_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    std::fs::File::open(dir)?.sync_all()
}

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f32s(&mut self, v: &[f32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f32(x);
        }
    }
    fn u32s(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }
    fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
    fn opt_f32s(&mut self, v: Option<&[f32]>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.f32s(v);
            }
        }
    }
    fn shared_model(&mut self, m: &SharedModel) {
        self.u32(m.owner.raw());
        self.u64(m.round);
        self.opt_f32s(m.owner_emb.as_deref());
        self.f32s(&m.agg);
    }
    /// v4 inbox-model encoding: a sparse bit-exact delta against the
    /// sender's `prev_sent` reference (tag 1) when one exists and the diff
    /// is genuinely sparse — sparse local training leaves most of the `agg`
    /// slots untouched between sends — or the dense [`Writer::shared_model`]
    /// layout (tag 0) otherwise.
    fn delta_model(&mut self, m: &SharedModel, reference: Option<&[f32]>) {
        let emb_len = m.owner_emb.as_ref().map_or(0, Vec::len);
        let total = emb_len + m.agg.len();
        // `[emb | agg]` concatenation, matching the reference's layout.
        let concat = || m.owner_emb.as_deref().unwrap_or(&[]).iter().chain(&m.agg);
        let diffs: Option<Vec<(u32, u32)>> = reference
            .filter(|r| r.len() == total)
            .map(|r| {
                concat()
                    .zip(r)
                    .enumerate()
                    // Raw-bit comparison: bit-exact restores, NaN included.
                    .filter(|(_, (have, want))| have.to_bits() != want.to_bits())
                    // cia-lint: allow(D05, parameter index into one model vector; model lengths are catalog-bounded and fit u32)
                    .map(|(k, (have, _))| (k as u32, have.to_bits()))
                    .collect()
            })
            // A diff entry costs 8 bytes vs 4 for a dense slot — only
            // encode sparsely when it actually shrinks the model.
            .filter(|d: &Vec<_>| d.len() * 2 < total);
        match diffs {
            Some(diffs) => {
                self.u8(1);
                self.u32(m.owner.raw());
                self.u64(m.round);
                self.u8(u8::from(m.owner_emb.is_some()));
                self.u64(emb_len as u64);
                self.u64(diffs.len() as u64);
                for (k, bits) in diffs {
                    self.u32(k);
                    self.u32(bits);
                }
            }
            None => {
                self.u8(0);
                self.shared_model(m);
            }
        }
    }
    fn round_points(&mut self, points: &[RoundPoint]) {
        self.u64(points.len() as u64);
        for p in points {
            self.u64(p.round);
            self.f64(p.aac);
            self.f64(p.best10);
            self.f64(p.upper_bound);
            self.f64(p.upper_bound_online);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        let end = self.pos.checked_add(n).ok_or("checkpoint length overflow")?;
        let slice = self.bytes.get(self.pos..end).ok_or("checkpoint truncated")?;
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u64()?;
        // A length can never exceed the remaining bytes (every element is at
        // least one byte) — reject early instead of over-allocating.
        if n as usize > self.bytes.len().saturating_sub(self.pos) {
            return Err("checkpoint length field exceeds remaining data".to_string());
        }
        Ok(n as usize)
    }
    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f32()?);
        }
        Ok(v)
    }
    fn u32s(&mut self) -> Result<Vec<u32>, String> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }
    fn u64s(&mut self) -> Result<Vec<u64>, String> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }
    fn opt_f32s(&mut self) -> Result<Option<Vec<f32>>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f32s()?)),
            tag => Err(format!("unknown option tag {tag}")),
        }
    }
    fn shared_model(&mut self) -> Result<SharedModel, String> {
        let owner = UserId::new(self.u32()?);
        let round = self.u64()?;
        let owner_emb = self.opt_f32s()?;
        let agg = self.f32s()?;
        Ok(SharedModel { owner, round, owner_emb, agg })
    }
    /// Inverse of [`Writer::delta_model`]: expands a sparse delta against
    /// the sender's `prev_sent` reference, or reads the dense layout.
    fn delta_model(&mut self, prev_sent: &[Option<Vec<f32>>]) -> Result<SharedModel, String> {
        match self.u8()? {
            0 => self.shared_model(),
            1 => {
                let owner = UserId::new(self.u32()?);
                let round = self.u64()?;
                let has_emb = match self.u8()? {
                    0 => false,
                    1 => true,
                    tag => return Err(format!("unknown embedding tag {tag}")),
                };
                let emb_len = self.u64()? as usize;
                if !has_emb && emb_len != 0 {
                    return Err("delta model claims embedding slots without one".to_string());
                }
                let mut full = prev_sent
                    .get(owner.raw() as usize)
                    .and_then(std::clone::Clone::clone)
                    .ok_or("delta-encoded inbox model without a sender reference")?;
                if emb_len > full.len() {
                    return Err("delta model embedding exceeds the reference".to_string());
                }
                let n = self.len()?;
                for _ in 0..n {
                    let k = self.u32()? as usize;
                    let bits = self.u32()?;
                    *full.get_mut(k).ok_or("delta index outside the reference")? =
                        f32::from_bits(bits);
                }
                let agg = full.split_off(emb_len);
                let owner_emb = has_emb.then_some(full);
                Ok(SharedModel { owner, round, owner_emb, agg })
            }
            tag => Err(format!("unknown inbox model tag {tag}")),
        }
    }
    fn round_points(&mut self) -> Result<Vec<RoundPoint>, String> {
        let n = self.len()?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            let round = self.u64()?;
            let aac = self.f64()?;
            let best10 = self.f64()?;
            let upper_bound = self.f64()?;
            let upper_bound_online = self.f64()?;
            v.push(RoundPoint { round, aac, best10, upper_bound, upper_bound_online });
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamics::DynamicsState;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xFEED,
            round: 12,
            emitted: 3,
            clients: vec![vec![1.0, -2.5], vec![0.0; 4]],
            protocol: ProtocolState::Gl(GossipSimState {
                round: 12,
                refresh_at: vec![13, 20],
                views: vec![vec![1], vec![0]],
                inboxes: vec![
                    vec![SharedModel {
                        owner: UserId::new(1),
                        round: 11,
                        owner_emb: Some(vec![0.5]),
                        agg: vec![1.0, 2.0],
                    }],
                    vec![],
                ],
                heard: vec![vec![(1, 0.25)], vec![]],
                prev_sent: vec![None, Some(vec![3.0])],
                traffic: TrafficCounters { received: vec![4, 0], view_in_degree: vec![12, 11] },
            }),
            attack: AttackState::Cia(CiaAttackState {
                momentum: vec![
                    None,
                    Some(MomentumState::from_parts(Some(vec![0.1]), vec![0.2, 0.3], 4)),
                ],
                history: vec![RoundPoint {
                    round: 5,
                    aac: 0.5,
                    best10: 0.75,
                    upper_bound: 1.0,
                    upper_bound_online: 0.5,
                }],
                last_global: Some(vec![9.0]),
                prepared: true,
            }),
            adversary_embs: vec![None, Some(vec![1.25, -0.5])],
            dynamics: DynamicsState { online: vec![true, false], straggler_until: vec![0, 17] },
            placement: crate::placement::PlacementState {
                relocated: false,
                members: vec![0],
                seen: vec![vec![1], vec![]],
            },
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let ck = sample();
        let bytes = ck.encode();
        let back = Checkpoint::decode(&bytes, 0xFEED).unwrap();
        assert_eq!(back.round, ck.round);
        assert_eq!(back.emitted, ck.emitted);
        assert_eq!(back.clients, ck.clients);
        assert_eq!(back.adversary_embs, ck.adversary_embs);
        assert_eq!(back.dynamics, ck.dynamics);
        assert_eq!(back.placement, ck.placement);
        match (&back.protocol, &ck.protocol) {
            (ProtocolState::Gl(a), ProtocolState::Gl(b)) => {
                assert_eq!(a.refresh_at, b.refresh_at);
                assert_eq!(a.views, b.views);
                assert_eq!(a.inboxes, b.inboxes);
                assert_eq!(a.heard, b.heard);
                assert_eq!(a.prev_sent, b.prev_sent);
                assert_eq!(a.traffic, b.traffic);
            }
            _ => panic!("protocol family changed"),
        }
        match (&back.attack, &ck.attack) {
            (AttackState::Cia(a), AttackState::Cia(b)) => {
                assert_eq!(a.momentum, b.momentum);
                assert_eq!(a.history, b.history);
                assert_eq!(a.last_global, b.last_global);
                assert_eq!(a.prepared, b.prepared);
            }
            _ => panic!("attack family changed"),
        }
    }

    #[test]
    fn distinct_names_never_share_a_path() {
        let dir = Path::new("ckpt");
        // `a.b` and `a_b` sanitize to the same stem; the name hash keeps
        // their files apart.
        assert_ne!(Checkpoint::path_for(dir, "a.b"), Checkpoint::path_for(dir, "a_b"));
        assert_eq!(Checkpoint::path_for(dir, "x-1"), Checkpoint::path_for(dir, "x-1"));
        // Regression: the hash is no longer truncated to 32 bits (two suite
        // cells whose full hashes agreed in the low half used to collide and
        // silently resume from the wrong state). The name must carry all 16
        // hex digits.
        let name = Checkpoint::path_for(dir, "cell");
        let stem = name.file_stem().unwrap().to_string_lossy().into_owned();
        let (_, hash) = stem.rsplit_once('-').unwrap();
        assert_eq!(hash.len(), 16, "full 64-bit hash in {stem}");
    }

    /// A checkpoint whose one undelivered inbox model differs from the
    /// sender's `prev_sent` reference only at `touched` slots of a 64-slot
    /// `[emb(4) | agg(60)]` layout.
    fn sparse_inbox_sample(touched: &[(usize, f32)]) -> Checkpoint {
        let mut ck = sample();
        let reference: Vec<f32> = (0..64).map(|k| k as f32 * 0.5).collect();
        let mut model = reference.clone();
        for &(k, v) in touched {
            model[k] = v;
        }
        let ProtocolState::Gl(state) = &mut ck.protocol else { unreachable!() };
        state.prev_sent = vec![None, Some(reference)];
        state.inboxes = vec![
            vec![SharedModel {
                owner: UserId::new(1),
                round: 11,
                owner_emb: Some(model[..4].to_vec()),
                agg: model[4..].to_vec(),
            }],
            vec![],
        ];
        ck
    }

    #[test]
    fn sparse_inbox_delta_roundtrips_bit_exactly() {
        // Three touched slots, one of them NaN and one a subnormal — the
        // delta must restore raw bits, not values.
        let touched = [(0, f32::NAN), (17, -9.0), (63, 1.0e-40)];
        let ck = sparse_inbox_sample(&touched);
        let back = Checkpoint::decode(&ck.encode(), 0xFEED).unwrap();
        let (ProtocolState::Gl(a), ProtocolState::Gl(b)) = (&back.protocol, &ck.protocol) else {
            panic!("protocol family changed");
        };
        let bits = |m: &SharedModel| -> Vec<u32> {
            let emb = m.owner_emb.as_deref().unwrap_or(&[]);
            emb.iter().chain(&m.agg).map(|x| x.to_bits()).collect()
        };
        assert_eq!(a.inboxes[0][0].owner, b.inboxes[0][0].owner);
        assert_eq!(a.inboxes[0][0].round, b.inboxes[0][0].round);
        assert_eq!(bits(&a.inboxes[0][0]), bits(&b.inboxes[0][0]));
        assert_eq!(a.prev_sent, b.prev_sent);
    }

    #[test]
    fn sparse_inbox_delta_shrinks_the_checkpoint() {
        let sparse = sparse_inbox_sample(&[(17, -9.0)]).encode();
        // Every slot perturbed: the diff is dense, the codec must fall back
        // to the dense layout — and the sparse encoding must be materially
        // smaller than it.
        let all: Vec<(usize, f32)> = (0..64).map(|k| (k, -1.0 - k as f32)).collect();
        let dense = sparse_inbox_sample(&all).encode();
        assert!(
            sparse.len() + 150 < dense.len(),
            "sparse {} vs dense {}",
            sparse.len(),
            dense.len()
        );
    }

    #[test]
    fn rejects_wrong_fingerprint_and_garbage() {
        let bytes = sample().encode();
        assert!(Checkpoint::decode(&bytes, 0xBAD).unwrap_err().contains("fingerprint"));
        assert!(Checkpoint::decode(&bytes[..10], 0xFEED).is_err());
        assert!(Checkpoint::decode(b"not a checkpoint", 0xFEED).is_err());
    }

    #[test]
    fn load_names_the_file_for_empty_truncated_and_zeroed_checkpoints() {
        let dir = std::env::temp_dir().join(format!("cia-ckpt-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bytes = sample().encode();
        let mut v5 = bytes.clone();
        v5[4..8].copy_from_slice(&5u32.to_le_bytes());
        let mut v6 = bytes.clone();
        v6[4..8].copy_from_slice(&6u32.to_le_bytes());
        let cases: [(&str, Vec<u8>, &[&str]); 5] = [
            ("empty", Vec::new(), &["truncated"]),
            ("half", bytes[..bytes.len() / 2].to_vec(), &["truncated", "exceeds remaining data"]),
            ("zeroed", vec![0; bytes.len()], &["bad magic"]),
            ("v5", v5, &["unsupported checkpoint version 5"]),
            ("v6", v6, &["unsupported checkpoint version 6"]),
        ];
        for (name, contents, reasons) in cases {
            let path = dir.join(format!("{name}.ckpt"));
            std::fs::write(&path, contents).unwrap();
            let err = Checkpoint::load(&path, 0xFEED).unwrap_err();
            assert!(err.starts_with(&path.display().to_string()), "{name}: {err}");
            assert!(reasons.iter().any(|r| err.contains(r)), "{name}: {err}");
        }
        // And a durable save loads back.
        let path = dir.join("ok.ckpt");
        sample().save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path, 0xFEED).unwrap().round, 12);
        assert!(!path.with_extension("ckpt.tmp").exists(), "temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_refuses_a_flipped_payload_bit() {
        let mut bytes = sample().encode();
        // A round-counter bit: the payload still parses, only the trailer
        // notices.
        bytes[16] ^= 1;
        assert!(Checkpoint::decode(&bytes, 0xFEED).unwrap_err().contains("checksum mismatch"));
    }

    #[test]
    fn rejects_out_of_range_placement_members() {
        // A corrupted member id must be refused at decode time — it feeds
        // sybil-table and delivery-log indexing at resume.
        let mut ck = sample();
        ck.placement.members = vec![7]; // population is 2
        assert!(Checkpoint::decode(&ck.encode(), 0xFEED)
            .unwrap_err()
            .contains("placement members"));
        let mut ck = sample();
        ck.placement.seen = vec![vec![9], vec![]]; // sender 9 of 2
        assert!(Checkpoint::decode(&ck.encode(), 0xFEED).unwrap_err().contains("delivery log"));
        let mut ck = sample();
        ck.placement.seen = vec![vec![1]]; // log length 1 for 2 nodes
        assert!(Checkpoint::decode(&ck.encode(), 0xFEED).unwrap_err().contains("delivery log"));
    }
}

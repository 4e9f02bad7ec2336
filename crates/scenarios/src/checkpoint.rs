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

use crate::dynamics::DynamicsState;
use crate::placement::PlacementState;
use cia_core::{CiaAttackState, MomentumTable, PlacementsState, RoundPoint};
use cia_data::UserId;
use cia_gossip::{GossipSimState, TrafficCounters};
use cia_models::SharedModel;
use std::io::Write;
use std::path::{Path, PathBuf};

// The magic spells "CIAS".
const MAGIC: u32 = 0x4349_4153;
// v8: dropped what resume never reads — the emitted-record counter (the
// restored attack history's length), the gossip section's round (the
// checkpoint's own) and v4's sparse inbox delta (inbox models are dense).
// v7: an 8-byte trailer holds the FNV-1a-64 of every byte before it, so a
// flipped bit anywhere is refused instead of resuming from a silently
// different state. v6: gossip state dropped v5's pending event-queue
// section. v3: gossip state gained per-node traffic counters and the
// checkpoint an adaptive sybil-placement section. v2 added
// `upper_bound_online` to `RoundPoint`. Checkpoints from older versions are
// refused with a version error rather than silently misread.
const VERSION: u32 = 8;

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
    /// Per-participant private state ([`cia_models::Participant::state_vec`]).
    pub clients: Vec<Vec<f32>>,
    /// Protocol-side state.
    pub protocol: ProtocolState,
    /// Attack-side state.
    pub attack: AttackState,
    /// Fictive adversary embeddings (Share-less; empty slots otherwise).
    pub adversary_embs: Vec<Option<Vec<f32>>>,
    /// Dynamics-layer state.
    pub dynamics: DynamicsState,
    /// Adaptive sybil-placement state (inert/default for FL runs and static
    /// placements).
    pub placement: PlacementState,
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
        let mut w = Vec::new();
        put!(&mut w, &MAGIC, &VERSION, self);
        let sum = crate::spec::fnv1a64(w.iter().copied());
        sum.put(&mut w);
        w
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
        if r.get::<u32>()? != MAGIC {
            return Err("not a scenario checkpoint (bad magic)".to_string());
        }
        let version: u32 = r.get()?;
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
        let ck: Checkpoint = r.get()?;
        if ck.fingerprint != expect_fingerprint {
            return Err("checkpoint belongs to a different scenario spec (fingerprint mismatch)"
                .to_string());
        }
        if r.pos != body.len() {
            return Err("trailing bytes in checkpoint".to_string());
        }
        // The placement section feeds indexing (sybil tables, delivery
        // logs); a corrupted id must be refused here, not panic at resume.
        let (population, PlacementState { members, seen, .. }) = (ck.clients.len(), &ck.placement);
        if members.len() > population || members.iter().any(|&m| m as usize >= population) {
            return Err("placement members out of range".to_string());
        }
        if (!seen.is_empty() && seen.len() != population)
            || seen.iter().flatten().any(|&s| s as usize >= population)
        {
            return Err("placement delivery log malformed".to_string());
        }
        Ok(ck)
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

/// One value's place in the byte layout: `put` appends it, `get` reads it
/// back. Every encoded type implements it once, so the two directions cannot
/// drift apart.
trait Codec: Sized {
    fn put(&self, w: &mut Vec<u8>);
    fn get(r: &mut Reader) -> Result<Self, String>;
}

/// Puts each borrowed value in turn.
macro_rules! put {
    ($w:expr, $($v:expr),+ $(,)?) => {{
        $(Codec::put($v, $w);)+
    }};
}
use put;

/// Little-endian integers; floats as their raw bits, so restores are
/// bit-exact (NaN payloads included).
macro_rules! le_codec {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut Vec<u8>) {
                w.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader) -> Result<Self, String> {
                Ok(<$t>::from_le_bytes(r.take()?))
            }
        }
    )+};
}
le_codec!(u8, u32, u64, f32, f64);

/// A section's one field list: each struct's fields in layout order. `put`
/// writes them in that order and `get` reads them back in it (struct fields
/// evaluate in the order written).
macro_rules! codec {
    ($($t:ident { $($f:ident),+ })+) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut Vec<u8>) {
                $(Codec::put(&self.$f, w);)+
            }
            fn get(r: &mut Reader) -> Result<Self, String> {
                Ok($t { $($f: r.get()?),+ })
            }
        }
    )+};
}

codec! {
    Checkpoint {
        fingerprint, round, clients, protocol, attack, adversary_embs, dynamics, placement
    }
    RoundPoint { round, aac, best10, upper_bound, upper_bound_online }
    SharedModel { owner, round, owner_emb, agg }
    CiaAttackState { momentum, history, last_global, prepared }
    PlacementsState { s_ema, history, prepared }
    GossipSimState { refresh_at, views, inboxes, heard, prev_sent, traffic }
    TrafficCounters { received, view_in_degree }
    DynamicsState { online, straggler_until }
    PlacementState { relocated, members, seen }
}

impl Codec for bool {
    fn put(&self, w: &mut Vec<u8>) {
        u8::from(*self).put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        match r.get::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            byte => Err(format!("invalid bool byte {byte}")),
        }
    }
}

impl Codec for UserId {
    fn put(&self, w: &mut Vec<u8>) {
        self.raw().put(w);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        Ok(UserId::new(r.get()?))
    }
}

/// A `u64` length, then the elements.
fn put_seq<T: Codec>(w: &mut Vec<u8>, v: &[T]) {
    (v.len() as u64).put(w);
    for x in v {
        x.put(w);
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut Vec<u8>) {
        put_seq(w, self);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        (0..r.len()?).map(|_| r.get()).collect()
    }
}

/// A tag byte (`0` none, `1` some), then the value.
impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut Vec<u8>) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        match r.get::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(r.get()?)),
            tag => Err(format!("unknown option tag {tag}")),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, w: &mut Vec<u8>) {
        put!(w, &self.0, &self.1);
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        Ok((r.get()?, r.get()?))
    }
}

/// A `Vec<Option<_>>` of `(emb, agg, updates)` rows, written from the slab's
/// seen rows; a row that disagrees with the first seen row's layout is
/// refused by sender.
impl Codec for MomentumTable {
    fn put(&self, w: &mut Vec<u8>) {
        (self.users() as u64).put(w);
        for u in 0..self.users() {
            let row = self.get(u);
            row.is_some().put(w);
            if let Some((emb, agg)) = row {
                emb.is_some().put(w);
                if let Some(emb) = emb {
                    put_seq(w, emb);
                }
                put_seq(w, agg);
                self.updates(u).put(w);
            }
        }
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        type Row = ((Option<Vec<f32>>, Vec<f32>), u64);
        let mut table = MomentumTable::new(r.len()?);
        for u in 0..table.users() {
            if let Some(((emb, agg), updates)) = r.get::<Option<Row>>()? {
                table.restore_row(u, emb.as_deref(), &agg, updates)?;
            }
        }
        Ok(table)
    }
}

/// A tag byte, then the engine's section.
impl Codec for AttackState {
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            AttackState::Cia(s) => put!(w, &0u8, s),
            AttackState::Placements(s) => put!(w, &1u8, s),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        match r.get::<u8>()? {
            0 => Ok(AttackState::Cia(r.get()?)),
            1 => Ok(AttackState::Placements(r.get()?)),
            tag => Err(format!("unknown attack state tag {tag}")),
        }
    }
}

/// A tag byte, then the protocol's section.
impl Codec for ProtocolState {
    fn put(&self, w: &mut Vec<u8>) {
        match self {
            ProtocolState::Fl { global } => put!(w, &0u8, global),
            ProtocolState::Gl(s) => put!(w, &1u8, s),
        }
    }
    fn get(r: &mut Reader) -> Result<Self, String> {
        match r.get::<u8>()? {
            0 => Ok(ProtocolState::Fl { global: r.get()? }),
            1 => Ok(ProtocolState::Gl(r.get()?)),
            tag => Err(format!("unknown protocol state tag {tag}")),
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let end = self.pos.checked_add(N).ok_or("checkpoint length overflow")?;
        let slice = self.bytes.get(self.pos..end).ok_or("checkpoint truncated")?;
        self.pos = end;
        Ok(slice.try_into().expect("N bytes"))
    }
    fn get<T: Codec>(&mut self) -> Result<T, String> {
        T::get(self)
    }
    /// A sequence length. It can never exceed the remaining bytes (every
    /// element is at least one byte), so a larger one is refused before it
    /// over-allocates.
    fn len(&mut self) -> Result<usize, String> {
        let n: u64 = self.get()?;
        if n as usize > self.bytes.len().saturating_sub(self.pos) {
            return Err("checkpoint length field exceeds remaining data".to_string());
        }
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small checkpoint touching every section. Scalars of one width hold
    /// distinct values, so the layout pin below notices two swapped fields.
    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xFEED,
            round: 12,
            clients: vec![vec![1.0, -2.5], vec![0.0; 4]],
            protocol: ProtocolState::Gl(GossipSimState {
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
                momentum: {
                    // Sender 1 after four folds of one model (β = 1 keeps it).
                    let mut table = MomentumTable::new(2);
                    for beta in [0.0, 1.0, 1.0, 1.0] {
                        table.observe(1, beta, Some(&[0.1]), &[0.2, 0.3]);
                    }
                    table
                },
                history: vec![RoundPoint {
                    round: 5,
                    aac: 0.5,
                    best10: 0.75,
                    upper_bound: 1.0,
                    upper_bound_online: 0.625,
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn v8_layout_is_pinned() {
        // Checked field by field against the v8 layout. Any reordered,
        // resized or retagged field changes these bytes; a real format change
        // bumps `VERSION` and records new literals.
        assert_eq!(
            hex(&sample().encode()),
            concat!(
                "5341494308000000edfe0000000000000c000000000000000200000000000000",
                "02000000000000000000803f000020c004000000000000000000000000000000",
                "00000000000000000102000000000000000d0000000000000014000000000000",
                "0002000000000000000100000000000000010000000100000000000000000000",
                "0002000000000000000100000000000000010000000b00000000000000010100",
                "0000000000000000003f02000000000000000000803f00000040000000000000",
                "000002000000000000000100000000000000010000000000803e000000000000",
                "0000020000000000000000010100000000000000000040400200000000000000",
                "0400000000000000000000000000000002000000000000000c00000000000000",
                "0b000000000000000002000000000000000001010100000000000000cdcccc3d",
                "0200000000000000cdcc4c3e9a99993e04000000000000000100000000000000",
                "0500000000000000000000000000e03f000000000000e83f000000000000f03f",
                "000000000000e43f010100000000000000000010410102000000000000000001",
                "02000000000000000000a03f000000bf02000000000000000100020000000000",
                "0000000000000000000011000000000000000001000000000000000000000002",
                "000000000000000100000000000000010000000000000000000000a8e0e7c598",
                "9b5da9",
            )
        );
    }

    #[test]
    fn bool_and_tag_bytes_outside_their_range_are_refused() {
        let get = |bytes: &[u8]| Reader { bytes, pos: 0 }.get::<Option<bool>>();
        assert_eq!(get(&[1, 1]), Ok(Some(true)));
        assert_eq!(get(&[0]), Ok(None));
        assert!(get(&[1, 2]).unwrap_err().contains("bool byte 2"));
        assert!(get(&[2, 0]).unwrap_err().contains("option tag 2"));
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
        let mut v7 = bytes.clone();
        v7[4..8].copy_from_slice(&7u32.to_le_bytes());
        let cases: [(&str, Vec<u8>, &[&str]); 6] = [
            ("empty", Vec::new(), &["truncated"]),
            ("half", bytes[..bytes.len() / 2].to_vec(), &["truncated", "exceeds remaining data"]),
            ("zeroed", vec![0; bytes.len()], &["bad magic"]),
            ("v5", v5, &["unsupported checkpoint version 5"]),
            ("v6", v6, &["unsupported checkpoint version 6"]),
            ("v7", v7, &["unsupported checkpoint version 7"]),
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

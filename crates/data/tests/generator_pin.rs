//! Pins the synthetic generator's output, and the split and ground truth
//! built from it, bit for bit.
//!
//! Every scenario transcript and table golden starts from
//! [`Preset::generate`], [`LeaveOneOut::with_holdout`] and
//! [`GroundTruth::from_train_sets`], so a change that alters one draw or one
//! community member moves them all. The generator digests cover each user's
//! item set and check-in sequence, the item categories and the planted
//! community labels; the split digests cover each user's train set, train
//! sequence, held-out positives and sampled negatives; the ground-truth
//! digests cover every community in rank order. They are recorded constants,
//! never re-derived from the code under test: a rewrite of any stage must
//! reproduce them.

use cia_data::presets::{Preset, Scale};
use cia_data::{Dataset, GroundTruth, LeaveOneOut, UserId};

/// FNV-1a 64 over little-endian `u32` words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: &[u32]) {
        self.word(u32::try_from(ws.len()).expect("generated lists are short"));
        for &w in ws {
            self.word(w);
        }
    }
}

fn digest(data: &Dataset) -> u64 {
    let mut d = Digest::new();
    d.word(data.num_items());
    for rec in data.records() {
        d.words(rec.items());
        d.words(rec.sequence());
    }
    match data.categories() {
        Some(map) => {
            d.word(1);
            for item in 0..data.num_items() {
                d.word(u32::from(map.category_of(item)));
            }
        }
        None => d.word(0),
    }
    d.words(data.planted_communities().expect("the generator plants communities"));
    d.0
}

#[test]
fn generated_presets_match_the_recorded_digests() {
    let pinned: [(Preset, Scale, u64); 7] = [
        (Preset::MovieLens, Scale::Smoke, 0x0784_4667_9a4b_99d8),
        (Preset::Foursquare, Scale::Smoke, 0xccc5_e77b_2886_0b0b),
        (Preset::Gowalla, Scale::Smoke, 0xf8bf_3d27_f26d_86e2),
        (Preset::MovieLens, Scale::Small, 0xc8de_df56_778b_ce63),
        (Preset::Foursquare, Scale::Small, 0xa4d7_54b0_ebe7_7f49),
        (Preset::Gowalla, Scale::Small, 0x839e_a00e_aa22_a0e2),
        (Preset::MovieLens, Scale::Paper, 0xc537_8560_a05c_1c15),
    ];
    let moved: Vec<String> = pinned
        .iter()
        .filter_map(|&(preset, scale, want)| {
            let got = digest(&preset.generate(scale, 42));
            (got != want)
                .then(|| format!("{} {scale}: {got:#018x}, pinned {want:#018x}", preset.name()))
        })
        .collect();
    assert!(moved.is_empty(), "generator output moved:\n{}", moved.join("\n"));
}

/// The split and ground truth `scenario run` builds: seed `42 ^ 0x5EED`,
/// the preset's holdout (1 without sequences, the scale's POI holdout with
/// them), the scale's negatives and community size `K`.
fn split_and_truth_digests(preset: Preset, scale: Scale) -> (u64, u64) {
    let (holdout, negatives, k) = match scale {
        Scale::Smoke => (3, 20, 5),
        Scale::Small => (5, 50, 20),
        Scale::Paper => (5, 100, 50),
    };
    let holdout = if preset.has_sequences() { holdout } else { 1 };
    let data = preset.generate(scale, 42);
    let split = LeaveOneOut::with_holdout(&data, holdout, negatives, 42 ^ 0x5EED)
        .expect("presets generate splittable data");
    let mut d = Digest::new();
    for (train, seq) in split.train_sets().iter().zip(split.train_sequences()) {
        d.words(train);
        d.words(seq);
    }
    for inst in split.eval_instances() {
        d.words(&inst.positives);
        d.words(&inst.negatives);
    }
    let truth = GroundTruth::from_train_sets(split.train_sets(), k);
    let mut t = Digest::new();
    for owner in 0..truth.num_targets() {
        let community: Vec<u32> =
            truth.community_of(UserId::from_index(owner)).iter().map(|u| u.raw()).collect();
        t.words(&community);
    }
    (d.0, t.0)
}

#[test]
fn splits_and_ground_truths_match_the_recorded_digests() {
    let pinned: [(Preset, Scale, u64, u64); 4] = [
        (Preset::MovieLens, Scale::Smoke, 0xcc5a_683f_1dad_4b3d, 0xe5e3_ff90_6fc6_40f1),
        (Preset::Foursquare, Scale::Small, 0xcd31_42a2_8b9d_dbe6, 0xf750_6ac1_ed3a_42c5),
        (Preset::Gowalla, Scale::Small, 0xe7af_95e8_aec1_440e, 0xec70_0ee2_f479_0869),
        (Preset::MovieLens, Scale::Paper, 0xe0d0_366c_3a19_1605, 0x3b4b_4d24_3d30_148d),
    ];
    let moved: Vec<String> = pinned
        .iter()
        .filter_map(|&(preset, scale, want_split, want_truth)| {
            let (split, truth) = split_and_truth_digests(preset, scale);
            (split != want_split || truth != want_truth).then(|| {
                format!(
                    "{} {scale}: split {split:#018x} truth {truth:#018x}, \
                     pinned {want_split:#018x} {want_truth:#018x}",
                    preset.name()
                )
            })
        })
        .collect();
    assert!(moved.is_empty(), "split or ground truth moved:\n{}", moved.join("\n"));
}

//! Pins the synthetic generator's output bit for bit.
//!
//! Every scenario transcript, table golden and checkpoint starts from
//! [`Preset::generate`], so a generator change that alters one draw moves
//! them all. The digests below cover each user's item set and check-in
//! sequence, the item categories and the planted community labels. They are
//! recorded constants, never re-derived from the code under test: a rewrite
//! of the generator must reproduce them.

use cia_data::presets::{Preset, Scale};
use cia_data::Dataset;

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

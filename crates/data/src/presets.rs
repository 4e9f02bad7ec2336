//! Dataset presets matching the paper's Table I, with scale profiles.
//!
//! | Dataset | Users | Items | Interactions |
//! |---|---|---|---|
//! | MovieLens-100k | 943 | 1 682 | 100 k ratings |
//! | Foursquare-NYC | 1 083 | 38 333 | 200 k check-ins |
//! | Gowalla-NYC | 718 | 32 924 | 185 932 check-ins |
//!
//! At [`Scale::Paper`] the user counts and per-user densities match Table I;
//! the two POI catalogs are scaled down (38 333 → 4 000, 32 924 → 3 500) so
//! that the `N` momentum models of CIA's Algorithm 1 fit in laptop memory.
//! Smaller profiles preserve the community structure for tests, examples and
//! benches.

use crate::{CategoryPlan, Dataset, SyntheticConfig};

/// How large a preset instantiation should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Seconds-scale configs for unit/integration tests and Criterion benches.
    Smoke,
    /// Tens-of-seconds configs for examples and quick reproductions.
    Small,
    /// Table I user counts (POI catalogs scaled down; see the module docs).
    Paper,
}

impl Scale {
    /// Parses `"smoke" | "small" | "paper"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scale::Smoke => "smoke",
            Scale::Small => "small",
            Scale::Paper => "paper",
        };
        f.write_str(s)
    }
}

/// The three dataset shapes evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Preset {
    /// MovieLens-100k-like: dense ratings, no sequences.
    MovieLens,
    /// Foursquare-NYC-like: sparse check-ins with sequences and categories.
    Foursquare,
    /// Gowalla-NYC-like: sparse check-ins with sequences.
    Gowalla,
}

impl Preset {
    /// All presets, in the paper's order.
    pub const ALL: [Preset; 3] = [Preset::MovieLens, Preset::Foursquare, Preset::Gowalla];

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Preset::MovieLens => "MovieLens",
            Preset::Foursquare => "Foursquare",
            Preset::Gowalla => "Gowalla",
        }
    }

    /// Whether the preset generates check-in sequences (POI datasets).
    pub fn has_sequences(self) -> bool {
        !matches!(self, Preset::MovieLens)
    }

    /// Instantiates the preset at `scale` with `seed`.
    pub fn generate(self, scale: Scale, seed: u64) -> Dataset {
        match self {
            Preset::MovieLens => movielens_like(scale, seed),
            Preset::Foursquare => foursquare_like(scale, seed),
            Preset::Gowalla => gowalla_like(scale, seed),
        }
    }

    /// The shape `(users, items, interactions_per_user)` the preset will
    /// generate at `scale` — available without generating, so callers can
    /// validate scale parameters (negative-sample counts, holdout sizes)
    /// against the catalog before committing to a multi-second generation.
    pub fn dims(self, scale: Scale) -> (usize, u32, usize) {
        match self {
            Preset::MovieLens => dims(scale, (943, 1682, 106), (200, 400, 30)),
            Preset::Foursquare => dims(scale, (1083, 4000, 185), (220, 600, 40)),
            Preset::Gowalla => dims(scale, (718, 3500, 259), (180, 550, 45)),
        }
    }
}

fn dims(
    scale: Scale,
    paper: (usize, u32, usize),
    small: (usize, u32, usize),
) -> (usize, u32, usize) {
    match scale {
        Scale::Paper => paper,
        Scale::Small => small,
        Scale::Smoke => (48, 160, 12),
    }
}

/// MovieLens-100k-like dataset: 943 users, 1 682 items, ~106 ratings/user.
pub fn movielens_like(scale: Scale, seed: u64) -> Dataset {
    let (users, items, ipu) = Preset::MovieLens.dims(scale);
    SyntheticConfig::builder()
        .name(format!("MovieLens-like ({scale})"))
        .users(users)
        .items(items)
        .communities(communities_for(users))
        .interactions_per_user(ipu)
        .topic_affinity(0.8)
        .zipf_exponent(1.05)
        .seed(seed)
        .build()
        .generate()
}

/// Foursquare-NYC-like dataset: 1 083 users, ~185 check-ins/user, sequences
/// and semantic categories (catalog scaled 38 333 → 4 000 at paper scale).
pub fn foursquare_like(scale: Scale, seed: u64) -> Dataset {
    let (users, items, ipu) = Preset::Foursquare.dims(scale);
    SyntheticConfig::builder()
        .name(format!("Foursquare-like ({scale})"))
        .users(users)
        .items(items)
        .communities(communities_for(users))
        .interactions_per_user(ipu)
        .topic_affinity(0.85)
        .zipf_exponent(1.1)
        .sequences(true)
        .categories(CategoryPlan::default())
        .seed(seed)
        .build()
        .generate()
}

/// Gowalla-NYC-like dataset: 718 users, ~259 check-ins/user, sequences
/// (catalog scaled 32 924 → 3 500 at paper scale).
pub fn gowalla_like(scale: Scale, seed: u64) -> Dataset {
    let (users, items, ipu) = Preset::Gowalla.dims(scale);
    SyntheticConfig::builder()
        .name(format!("Gowalla-like ({scale})"))
        .users(users)
        .items(items)
        .communities(communities_for(users))
        .interactions_per_user(ipu)
        .topic_affinity(0.85)
        .zipf_exponent(1.1)
        .sequences(true)
        .seed(seed)
        .build()
        .generate()
}

/// Community count scaling: roughly one community of ~20 users at paper
/// scale, bounded for tiny configurations. The paper's ground truth uses
/// K = 50 member communities; with ~20-50 users per planted community and
/// topical overlap between clusters, Jaccard top-50 communities cut across
/// several planted clusters — matching the soft notion of "community of
/// interest".
fn communities_for(users: usize) -> usize {
    (users / 20).clamp(4, 48)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_roundtrips() {
        for s in [Scale::Smoke, Scale::Small, Scale::Paper] {
            assert_eq!(Scale::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
    }

    #[test]
    fn paper_scale_matches_table_one_users() {
        // Only check the cheap dimension (user count) at paper scale; the
        // full generation is exercised at smoke scale below.
        let ml = SyntheticConfig::builder()
            .users(943)
            .items(1682)
            .communities(communities_for(943))
            .interactions_per_user(106)
            .build();
        assert_eq!(ml.num_users(), 943);
        assert_eq!(ml.num_items(), 1682);
    }

    #[test]
    fn smoke_presets_generate() {
        for p in Preset::ALL {
            let d = p.generate(Scale::Smoke, 1);
            assert_eq!(d.num_users(), 48);
            assert!(d.num_interactions() > 0, "{}", p.name());
            assert_eq!(p.has_sequences(), !d.records()[0].sequence().is_empty());
        }
    }

    #[test]
    fn foursquare_has_categories() {
        let d = foursquare_like(Scale::Smoke, 2);
        assert!(d.categories().is_some());
        assert_eq!(d.categories().unwrap().num_items(), 160);
    }

    #[test]
    fn preset_names_match_paper() {
        assert_eq!(Preset::MovieLens.name(), "MovieLens");
        assert_eq!(Preset::Foursquare.name(), "Foursquare");
        assert_eq!(Preset::Gowalla.name(), "Gowalla");
    }

    #[test]
    fn communities_scale_with_users() {
        assert_eq!(communities_for(943), 47);
        assert_eq!(communities_for(48), 4);
        assert_eq!(communities_for(10_000), 48);
    }
}

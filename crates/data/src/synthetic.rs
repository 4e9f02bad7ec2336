//! Community-structured synthetic dataset generator.
//!
//! Substitutes the paper's real datasets, which are not redistributable:
//! users are partitioned into *communities of interest*; each community has a
//! primary topic cluster of items, and a user draws each interaction from
//! their own cluster with probability [`SyntheticConfig::topic_affinity`]
//! (Zipf-skewed within the cluster) and from the global catalog otherwise. This reproduces
//! the property CIA exploits — users from the same community rate the same
//! items — while letting the ground truth be recomputed from the data itself
//! exactly as in the paper (Jaccard top-K, Eq. 5).

use crate::categories::{CategoryMap, CategoryPlan, HEALTH_CATEGORY};
use crate::{DataError, Dataset, UserRecord, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Configuration of the synthetic generator. Build with
/// [`SyntheticConfig::builder`].
///
/// ```
/// use cia_data::SyntheticConfig;
///
/// let data = SyntheticConfig::builder()
///     .users(40)
///     .items(100)
///     .communities(4)
///     .interactions_per_user(10)
///     .seed(1)
///     .build()
///     .generate();
/// assert_eq!(data.num_users(), 40);
/// assert!(data.num_interactions() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    name: String,
    users: usize,
    items: u32,
    communities: usize,
    interactions_per_user: usize,
    /// Relative jitter on the per-user interaction count (0.3 ⇒ ±30%).
    ipu_jitter: f64,
    /// Probability that an interaction is drawn from the user's own topic
    /// cluster rather than the global catalog.
    topic_affinity: f64,
    /// Zipf exponent of item popularity (within clusters and globally).
    zipf_exponent: f64,
    /// Generate chronological check-in sequences (needed by PRME).
    sequences: bool,
    categories: Option<CategoryPlan>,
    seed: u64,
}

impl SyntheticConfig {
    /// Starts building a configuration with sensible defaults.
    pub fn builder() -> SyntheticConfigBuilder {
        SyntheticConfigBuilder::default()
    }

    /// Dataset name recorded in the output.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of users that will be generated.
    pub fn num_users(&self) -> usize {
        self.users
    }

    /// Catalog size that will be generated.
    pub fn num_items(&self) -> u32 {
        self.items
    }

    /// Generates the dataset deterministically from the configured seed.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n_items = self.items as usize;

        // Contiguous topic clusters. Cluster c owns items
        // [c * n/C, (c+1) * n/C). A shuffled item permutation decouples item id
        // from popularity rank.
        let mut perm: Vec<u32> = (0..self.items).collect();
        perm.shuffle(&mut rng);
        let n_clusters = self.communities;
        let cluster_of = |slot: usize| -> usize { slot * n_clusters / n_items };
        let mut clusters: Vec<Vec<u32>> = vec![Vec::new(); n_clusters];
        for (slot, &item) in perm.iter().enumerate() {
            clusters[cluster_of(slot)].push(item);
        }

        // Categories (independent of clusters, so non-planted users hit the
        // base-rate health fraction naturally).
        let category_map = self.categories.as_ref().map(|plan| {
            let mut labels = vec![0u8; n_items];
            for l in &mut labels {
                if rng.gen::<f64>() < plan.health_item_fraction {
                    *l = HEALTH_CATEGORY;
                } else {
                    // Uniform over the 9 non-health categories.
                    // cia-lint: allow(D05, gen_range over 0..9 always fits u8)
                    *l = 1 + rng.gen_range(0..9) as u8;
                }
            }
            CategoryMap::new(labels)
        });
        let health_pool: Vec<u32> =
            category_map.as_ref().map(|m| m.items_in(HEALTH_CATEGORY)).unwrap_or_default();

        let global_zipf = Zipf::new(n_items, self.zipf_exponent).expect("validated config");
        let cluster_zipfs: Vec<Zipf> = clusters
            .iter()
            .map(|c| Zipf::new(c.len().max(1), self.zipf_exponent).expect("validated config"))
            .collect();

        // Community assignment: shuffled round-robin so community sizes are
        // balanced but user ids carry no community information.
        let mut community_of: Vec<u32> =
            // cia-lint: allow(D05, ids and indices are bounded by the validated population/catalog size, which fits u32)
            (0..self.users).map(|u| (u % self.communities) as u32).collect();
        community_of.shuffle(&mut rng);

        // Health-vulnerable planting (Figure 1): the first `num_users` user
        // ids become the planted community.
        let planting = self.categories.as_ref().and_then(|p| p.health_planting);

        let mut records = Vec::with_capacity(self.users);
        for (u, &community) in community_of.iter().enumerate() {
            let c = community as usize;
            let jitter = 1.0 + self.ipu_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
            let mut n_u = ((self.interactions_per_user as f64) * jitter).round() as usize;
            n_u = n_u.clamp(2, (n_items * 4) / 5);

            let planted_health = match planting {
                Some(p) if u < p.num_users && !health_pool.is_empty() => Some(p),
                _ => None,
            };

            let mut chosen: BTreeSet<u32> = BTreeSet::new();
            let mut guard = 0usize;
            while chosen.len() < n_u && guard < n_u * 200 {
                guard += 1;
                let item = if let Some(p) = planted_health {
                    if rng.gen::<f64>() < p.health_fraction {
                        health_pool[rng.gen_range(0..health_pool.len())]
                    } else {
                        self.draw_regular(
                            &mut rng,
                            c,
                            &clusters,
                            &cluster_zipfs,
                            &global_zipf,
                            &perm,
                        )
                    }
                } else {
                    self.draw_regular(&mut rng, c, &clusters, &cluster_zipfs, &global_zipf, &perm)
                };
                chosen.insert(item);
            }

            let items: Vec<u32> = chosen.into_iter().collect();
            let sequence = if self.sequences {
                Self::synthesize_sequence(&items, &mut rng)
            } else {
                Vec::new()
            };
            records.push(UserRecord::new(items, sequence));
        }

        let mut data = Dataset::new(self.name.clone(), self.items, records)
            .expect("generator only emits in-range items")
            .with_planted_communities(community_of);
        if let Some(map) = category_map {
            data = data.with_categories(map);
        }
        data
    }

    fn draw_regular(
        &self,
        rng: &mut StdRng,
        community: usize,
        clusters: &[Vec<u32>],
        cluster_zipfs: &[Zipf],
        global_zipf: &Zipf,
        perm: &[u32],
    ) -> u32 {
        if rng.gen::<f64>() < self.topic_affinity && !clusters[community].is_empty() {
            let rank = cluster_zipfs[community].sample(rng);
            clusters[community][rank]
        } else {
            perm[global_zipf.sample(rng)]
        }
    }

    /// A check-in sequence: two passes over the item set in independent random
    /// orders, with occasional immediate revisits — enough temporal structure
    /// for PRME's successor pairs without modeling real trajectories.
    fn synthesize_sequence(items: &[u32], rng: &mut StdRng) -> Vec<u32> {
        let mut seq = Vec::with_capacity(items.len() * 2 + 4);
        for _ in 0..2 {
            let mut pass: Vec<u32> = items.to_vec();
            pass.shuffle(rng);
            for &it in &pass {
                seq.push(it);
                if rng.gen::<f64>() < 0.1 {
                    seq.push(it); // revisit
                }
            }
        }
        seq
    }
}

/// Builder for [`SyntheticConfig`]; all setters have defaults, `build`
/// validates.
#[derive(Debug, Clone)]
pub struct SyntheticConfigBuilder {
    cfg: SyntheticConfig,
}

impl Default for SyntheticConfigBuilder {
    fn default() -> Self {
        SyntheticConfigBuilder {
            cfg: SyntheticConfig {
                name: "synthetic".into(),
                users: 100,
                items: 500,
                communities: 10,
                interactions_per_user: 30,
                ipu_jitter: 0.3,
                topic_affinity: 0.8,
                zipf_exponent: 1.05,
                sequences: false,
                categories: None,
                seed: 0,
            },
        }
    }
}

impl SyntheticConfigBuilder {
    /// Sets the dataset name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.cfg.name = name.into();
        self
    }

    /// Sets the number of users.
    pub fn users(mut self, users: usize) -> Self {
        self.cfg.users = users;
        self
    }

    /// Sets the catalog size.
    pub fn items(mut self, items: u32) -> Self {
        self.cfg.items = items;
        self
    }

    /// Sets the number of planted communities.
    pub fn communities(mut self, communities: usize) -> Self {
        self.cfg.communities = communities;
        self
    }

    /// Sets the mean number of interactions per user.
    pub fn interactions_per_user(mut self, ipu: usize) -> Self {
        self.cfg.interactions_per_user = ipu;
        self
    }

    /// Sets the relative jitter (±fraction) on the per-user interaction count.
    pub fn ipu_jitter(mut self, jitter: f64) -> Self {
        self.cfg.ipu_jitter = jitter;
        self
    }

    /// Sets the probability of drawing from the user's own topic cluster.
    pub fn topic_affinity(mut self, affinity: f64) -> Self {
        self.cfg.topic_affinity = affinity;
        self
    }

    /// Sets the Zipf popularity exponent.
    pub fn zipf_exponent(mut self, s: f64) -> Self {
        self.cfg.zipf_exponent = s;
        self
    }

    /// Enables chronological check-in sequences (needed by PRME).
    pub fn sequences(mut self, on: bool) -> Self {
        self.cfg.sequences = on;
        self
    }

    /// Attaches a semantic category plan (needed by the Figure 1 example).
    pub fn categories(mut self, plan: CategoryPlan) -> Self {
        self.cfg.categories = Some(plan);
        self
    }

    /// Sets the generator seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations; use [`Self::try_build`] for a
    /// fallible variant.
    pub fn build(self) -> SyntheticConfig {
        self.try_build().expect("invalid synthetic configuration")
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidConfig`] when a field is out of range
    /// (zero users/items/communities, affinity outside `[0, 1]`, more
    /// communities than items, ...).
    pub fn try_build(self) -> Result<SyntheticConfig, DataError> {
        let c = &self.cfg;
        if c.users == 0 {
            return Err(DataError::InvalidConfig { field: "users", reason: "must be > 0".into() });
        }
        if c.items == 0 {
            return Err(DataError::InvalidConfig { field: "items", reason: "must be > 0".into() });
        }
        if c.communities == 0 || c.communities > c.items as usize {
            return Err(DataError::InvalidConfig {
                field: "communities",
                reason: format!("must be in 1..={} (items), got {}", c.items, c.communities),
            });
        }
        if !(0.0..=1.0).contains(&c.topic_affinity) {
            return Err(DataError::InvalidConfig {
                field: "topic_affinity",
                reason: format!("must be in [0, 1], got {}", c.topic_affinity),
            });
        }
        if !(0.0..1.0).contains(&c.ipu_jitter) {
            return Err(DataError::InvalidConfig {
                field: "ipu_jitter",
                reason: format!("must be in [0, 1), got {}", c.ipu_jitter),
            });
        }
        if c.interactions_per_user < 2 {
            return Err(DataError::InvalidConfig {
                field: "interactions_per_user",
                reason: "must be >= 2 (leave-one-out needs train + test)".into(),
            });
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard_index;

    fn small() -> Dataset {
        SyntheticConfig::builder()
            .users(60)
            .items(300)
            .communities(6)
            .interactions_per_user(20)
            .seed(11)
            .build()
            .generate()
    }

    #[test]
    fn deterministic_given_seed() {
        let a = small();
        let b = small();
        for (ra, rb) in a.records().iter().zip(b.records()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn different_seed_differs() {
        let a = small();
        let b = SyntheticConfig::builder()
            .users(60)
            .items(300)
            .communities(6)
            .interactions_per_user(20)
            .seed(12)
            .build()
            .generate();
        assert!(a.records().iter().zip(b.records()).any(|(x, y)| x != y));
    }

    #[test]
    fn every_user_has_at_least_two_items() {
        let d = small();
        for (_, rec) in d.iter() {
            assert!(rec.len() >= 2);
        }
    }

    #[test]
    fn same_community_users_overlap_more() {
        let d = small();
        let labels = d.planted_communities().unwrap().to_vec();
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for a in 0..d.num_users() {
            for b in (a + 1)..d.num_users() {
                let j = jaccard_index(d.records()[a].items(), d.records()[b].items());
                if labels[a] == labels[b] {
                    same.push(j);
                } else {
                    diff.push(j);
                }
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&same) > 2.0 * mean(&diff),
            "communities not separated: same={} diff={}",
            mean(&same),
            mean(&diff)
        );
    }

    #[test]
    fn sequences_cover_item_set() {
        let d = SyntheticConfig::builder()
            .users(10)
            .items(100)
            .communities(2)
            .interactions_per_user(10)
            .sequences(true)
            .seed(3)
            .build()
            .generate();
        for (_, rec) in d.iter() {
            assert!(!rec.sequence().is_empty());
            // Every sequence element is an observed item.
            for &s in rec.sequence() {
                assert!(rec.contains(s));
            }
            // Every item appears in the sequence.
            for &i in rec.items() {
                assert!(rec.sequence().contains(&i));
            }
        }
    }

    #[test]
    fn health_planting_hits_target_fractions() {
        let d = SyntheticConfig::builder()
            .users(80)
            .items(600)
            .communities(8)
            .interactions_per_user(40)
            .categories(CategoryPlan {
                health_item_fraction: 0.067,
                health_planting: Some(crate::HealthPlanting {
                    num_users: 3,
                    health_fraction: 0.68,
                }),
            })
            .seed(21)
            .build()
            .generate();
        let cats = d.categories().unwrap();
        // Planted users: majority health items.
        for u in 0..3 {
            let frac = cats.fraction_in(d.records()[u].items(), HEALTH_CATEGORY);
            assert!(frac > 0.5, "planted user {u} only {frac} health");
        }
        // Background users: close to the base rate.
        let mut rest = 0.0;
        for u in 3..d.num_users() {
            rest += cats.fraction_in(d.records()[u].items(), HEALTH_CATEGORY);
        }
        rest /= (d.num_users() - 3) as f64;
        assert!(rest < 0.2, "background health fraction too high: {rest}");
    }

    #[test]
    fn builder_validation() {
        assert!(SyntheticConfig::builder().users(0).try_build().is_err());
        assert!(SyntheticConfig::builder().items(0).try_build().is_err());
        assert!(SyntheticConfig::builder().communities(0).try_build().is_err());
        assert!(SyntheticConfig::builder().items(5).communities(6).try_build().is_err());
        assert!(SyntheticConfig::builder().topic_affinity(1.5).try_build().is_err());
        assert!(SyntheticConfig::builder().interactions_per_user(1).try_build().is_err());
        assert!(SyntheticConfig::builder().ipu_jitter(1.0).try_build().is_err());
    }

    #[test]
    fn community_sizes_are_balanced() {
        let d = small();
        let labels = d.planted_communities().unwrap();
        let mut counts = vec![0usize; 6];
        for &l in labels {
            counts[l as usize] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 10);
        }
    }
}

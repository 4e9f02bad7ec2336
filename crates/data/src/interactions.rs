//! Implicit-feedback interaction data.
//!
//! Following the paper (§V-A), all observed interactions are binarized: a
//! user/item pair is either observed (`1`) or unobserved (`0`). A [`Dataset`]
//! stores, per user, the *set* of observed items (sorted, deduplicated) and —
//! for point-of-interest data — the chronological *sequence* of check-ins used
//! to train the sequential PRME model.

use crate::categories::CategoryMap;
use crate::{DataError, UserId};

/// Interactions of a single user.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserRecord {
    /// Sorted, deduplicated observed item ids.
    items: Vec<u32>,
    /// Chronological check-in sequence (may contain repeats). Empty for
    /// rating-style data such as MovieLens.
    sequence: Vec<u32>,
}

impl UserRecord {
    /// Builds a record from raw interactions; items are sorted and deduplicated.
    pub fn new(mut items: Vec<u32>, sequence: Vec<u32>) -> Self {
        items.sort_unstable();
        items.dedup();
        UserRecord { items, sequence }
    }

    /// The user's observed item set (sorted, unique).
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// The chronological check-in sequence (empty for rating data).
    pub fn sequence(&self) -> &[u32] {
        &self.sequence
    }

    /// Number of distinct observed items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the user has no interactions.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the user has observed `item` (binary search).
    pub fn contains(&self, item: u32) -> bool {
        self.items.binary_search(&item).is_ok()
    }
}

/// An implicit-feedback dataset: one [`UserRecord`] per user plus catalog
/// metadata.
///
/// ```
/// use cia_data::{Dataset, UserRecord};
///
/// let users = vec![
///     UserRecord::new(vec![0, 2, 1], vec![]),
///     UserRecord::new(vec![3], vec![]),
/// ];
/// let data = Dataset::new("toy", 4, users).unwrap();
/// assert_eq!(data.num_users(), 2);
/// assert_eq!(data.user(cia_data::UserId::new(0)).items(), &[0, 1, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    num_items: u32,
    users: Vec<UserRecord>,
    categories: Option<CategoryMap>,
    /// Planted community label per user (generator diagnostics only; the
    /// attack never reads this — ground truth is recomputed via Jaccard).
    planted: Option<Vec<u32>>,
}

impl Dataset {
    /// Creates a dataset, validating that every referenced item is in range.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ItemOutOfRange`] if any interaction references an
    /// item `>= num_items`.
    pub fn new(
        name: impl Into<String>,
        num_items: u32,
        users: Vec<UserRecord>,
    ) -> Result<Self, DataError> {
        for rec in &users {
            for &it in rec.items().iter().chain(rec.sequence().iter()) {
                if it >= num_items {
                    return Err(DataError::ItemOutOfRange { item: it, num_items });
                }
            }
        }
        Ok(Dataset { name: name.into(), num_items, users, categories: None, planted: None })
    }

    /// Attaches a semantic category map (see [`crate::CategoryMap`]).
    ///
    /// # Panics
    ///
    /// Panics if the map does not cover exactly `num_items` items.
    pub fn with_categories(mut self, categories: CategoryMap) -> Self {
        assert_eq!(
            categories.num_items(),
            self.num_items as usize,
            "category map must cover the catalog"
        );
        self.categories = Some(categories);
        self
    }

    /// Attaches planted community labels (generator diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != num_users()`.
    pub fn with_planted_communities(mut self, labels: Vec<u32>) -> Self {
        assert_eq!(labels.len(), self.users.len(), "one label per user");
        self.planted = Some(labels);
        self
    }

    /// Human-readable dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of users.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// Catalog size.
    pub fn num_items(&self) -> u32 {
        self.num_items
    }

    /// The record of user `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn user(&self, u: UserId) -> &UserRecord {
        &self.users[u.index()]
    }

    /// Iterates over `(UserId, &UserRecord)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &UserRecord)> {
        self.users.iter().enumerate().map(|(i, r)| (UserId::from_index(i), r))
    }

    /// All user records, indexed by user id.
    pub fn records(&self) -> &[UserRecord] {
        &self.users
    }

    /// Semantic categories, if attached.
    pub fn categories(&self) -> Option<&CategoryMap> {
        self.categories.as_ref()
    }

    /// Planted community labels, if attached.
    pub fn planted_communities(&self) -> Option<&[u32]> {
        self.planted.as_deref()
    }

    /// Total number of observed (user, item) interactions.
    pub fn num_interactions(&self) -> usize {
        self.users.iter().map(UserRecord::len).sum()
    }

    /// Summary statistics (the paper's Table I row for this dataset).
    pub fn stats(&self) -> DatasetStats {
        let n = self.num_users();
        let total = self.num_interactions();
        let min = self.users.iter().map(UserRecord::len).min().unwrap_or(0);
        let max = self.users.iter().map(UserRecord::len).max().unwrap_or(0);
        let density = if n == 0 || self.num_items == 0 {
            0.0
        } else {
            total as f64 / (n as f64 * self.num_items as f64)
        };
        DatasetStats {
            name: self.name.clone(),
            users: n,
            items: self.num_items as usize,
            interactions: total,
            min_per_user: min,
            max_per_user: max,
            mean_per_user: if n == 0 { 0.0 } else { total as f64 / n as f64 },
            density,
        }
    }
}

/// Summary statistics of a dataset (one row of the paper's Table I).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of users.
    pub users: usize,
    /// Catalog size.
    pub items: usize,
    /// Total observed interactions.
    pub interactions: usize,
    /// Minimum interactions per user.
    pub min_per_user: usize,
    /// Maximum interactions per user.
    pub max_per_user: usize,
    /// Mean interactions per user.
    pub mean_per_user: f64,
    /// Fraction of the user x item matrix that is observed.
    pub density: f64,
}

impl std::fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} users, {} items, {} interactions ({:.1}/user, density {:.4})",
            self.name, self.users, self.items, self.interactions, self.mean_per_user, self.density
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            5,
            vec![
                UserRecord::new(vec![4, 0, 0, 2], vec![0, 2, 4]),
                UserRecord::new(vec![1, 3], vec![]),
                UserRecord::new(vec![], vec![]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn dedups_and_sorts_items() {
        let d = toy();
        assert_eq!(d.user(UserId::new(0)).items(), &[0, 2, 4]);
        assert_eq!(d.user(UserId::new(0)).sequence(), &[0, 2, 4]);
    }

    #[test]
    fn rejects_out_of_range_items() {
        let err = Dataset::new("bad", 2, vec![UserRecord::new(vec![5], vec![])]).unwrap_err();
        assert_eq!(err, DataError::ItemOutOfRange { item: 5, num_items: 2 });
    }

    #[test]
    fn rejects_out_of_range_sequence_items() {
        let err = Dataset::new("bad", 2, vec![UserRecord::new(vec![0], vec![7])]).unwrap_err();
        assert!(matches!(err, DataError::ItemOutOfRange { item: 7, .. }));
    }

    #[test]
    fn stats_are_consistent() {
        let d = toy();
        let s = d.stats();
        assert_eq!(s.users, 3);
        assert_eq!(s.items, 5);
        assert_eq!(s.interactions, 5);
        assert_eq!(s.min_per_user, 0);
        assert_eq!(s.max_per_user, 3);
        assert!((s.mean_per_user - 5.0 / 3.0).abs() < 1e-12);
        assert!((s.density - 5.0 / 15.0).abs() < 1e-12);
        assert!(s.to_string().contains("toy"));
    }

    #[test]
    fn contains_uses_binary_search() {
        let d = toy();
        assert!(d.user(UserId::new(0)).contains(2));
        assert!(!d.user(UserId::new(0)).contains(3));
    }

    #[test]
    fn iter_yields_all_users_in_order() {
        let d = toy();
        let ids: Vec<u32> = d.iter().map(|(u, _)| u.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}

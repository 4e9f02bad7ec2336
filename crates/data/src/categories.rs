//! Semantic item categories, used by the Figure 1 motivating example.
//!
//! Foursquare points of interest carry a public semantic categorization
//! (*Health and Medicine*, *Retail*, ...). The paper's motivating example
//! (§II) plants a small community of "health-vulnerable" users whose visits
//! are ≥68% health-categorized, against a 6.7% base rate, and shows that CIA
//! recovers them from models alone. [`crate::SyntheticConfigBuilder::categories`]
//! reproduces that setup on the synthetic catalog.

/// The synthetic semantic taxonomy (10 categories, mirroring the coarse
/// Foursquare categorization used in the paper's motivating example).
pub const CATEGORY_NAMES: [&str; 10] = [
    "Health and Medicine",
    "Retail",
    "Dining",
    "Nightlife",
    "Arts and Entertainment",
    "Outdoors",
    "Travel and Transport",
    "Education",
    "Sports",
    "Residence",
];

/// Index of the *Health and Medicine* category in [`CATEGORY_NAMES`].
pub const HEALTH_CATEGORY: u8 = 0;

/// Maps every item to one of the semantic categories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryMap {
    labels: Vec<u8>,
}

impl CategoryMap {
    /// Creates a map from per-item labels.
    ///
    /// # Panics
    ///
    /// Panics if any label is outside `0..CATEGORY_NAMES.len()`.
    pub fn new(labels: Vec<u8>) -> Self {
        assert!(
            labels.iter().all(|&l| (l as usize) < CATEGORY_NAMES.len()),
            "category label out of range"
        );
        CategoryMap { labels }
    }

    /// Number of items covered.
    pub fn num_items(&self) -> usize {
        self.labels.len()
    }

    /// Category of `item`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of range.
    pub fn category_of(&self, item: u32) -> u8 {
        self.labels[item as usize]
    }

    /// Human-readable name of the category of `item`.
    pub fn category_name_of(&self, item: u32) -> &'static str {
        CATEGORY_NAMES[self.category_of(item) as usize]
    }

    /// All items belonging to `category`.
    pub fn items_in(&self, category: u8) -> Vec<u32> {
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == category)
            // cia-lint: allow(D05, i is a catalog position, and item ids are u32)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Fraction of `items` that belong to `category`.
    pub fn fraction_in(&self, items: &[u32], category: u8) -> f64 {
        if items.is_empty() {
            return 0.0;
        }
        let hits = items.iter().filter(|&&i| self.category_of(i) == category).count();
        hits as f64 / items.len() as f64
    }
}

/// Fraction of the catalog assigned to the health category: the paper's
/// base rate of health visits.
pub const HEALTH_ITEM_FRACTION: f64 = 0.067;

/// Users in the planted health-vulnerable community (the paper's example
/// finds 3).
pub const HEALTH_COMMUNITY_SIZE: usize = 3;

/// Fraction of each planted user's interactions drawn from health items (the
/// paper reports at least 68%).
pub const HEALTH_COMMUNITY_FRACTION: f64 = 0.68;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_lookup_and_listing() {
        let m = CategoryMap::new(vec![0, 1, 0, 2]);
        assert_eq!(m.num_items(), 4);
        assert_eq!(m.category_of(2), 0);
        assert_eq!(m.category_name_of(0), "Health and Medicine");
        assert_eq!(m.items_in(0), vec![0, 2]);
        assert_eq!(m.items_in(1), vec![1]);
    }

    #[test]
    fn fraction_in_counts_correctly() {
        let m = CategoryMap::new(vec![0, 1, 0, 2]);
        assert!((m.fraction_in(&[0, 1, 2, 3], HEALTH_CATEGORY) - 0.5).abs() < 1e-12);
        assert_eq!(m.fraction_in(&[], HEALTH_CATEGORY), 0.0);
    }

    #[test]
    #[should_panic(expected = "category label out of range")]
    fn rejects_bad_labels() {
        let _ = CategoryMap::new(vec![99]);
    }
}

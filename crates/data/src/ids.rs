//! Typed identifiers for users and items.

use std::fmt;

/// Identifier of a participant (client/user) in the collaborative system.
///
/// Users are dense indices `0..N`, which lets simulation state live in flat
/// vectors indexed by `UserId::index`.
///
/// ```
/// use cia_data::UserId;
/// let u = UserId::new(3);
/// assert_eq!(u.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(u32);

impl UserId {
    /// Creates a user id from a dense index.
    pub fn new(index: u32) -> Self {
        UserId(index)
    }

    /// Creates a user id from a `usize` position in a population vector.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32` — a population that large
    /// cannot be indexed by user id at all.
    pub fn from_index(index: usize) -> Self {
        UserId(u32::try_from(index).expect("user index overflows the u32 id space"))
    }

    /// Returns the raw dense index.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Returns the index as `usize`, for vector indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UserId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<u32> for UserId {
    fn from(v: u32) -> Self {
        UserId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_id_roundtrip() {
        let u = UserId::new(42);
        assert_eq!(u.raw(), 42);
        assert_eq!(u.index(), 42);
        assert_eq!(u, UserId::from(42));
        assert_eq!(u.to_string(), "u42");
        assert_eq!(UserId::from_index(42), u);
    }

    #[test]
    #[should_panic(expected = "user index overflows the u32 id space")]
    fn from_index_refuses_overflow() {
        let _ = UserId::from_index(usize::MAX);
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<UserId>();
    }
}

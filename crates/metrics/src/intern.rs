//! Metric-name interning.
//!
//! Hot simulation paths record samples and bump counters millions of times
//! per run. Keying those stores by `String` costs an allocation + hash of
//! the full name per event; interning turns the name into a dense
//! [`MetricId`] once, after which every record is a bounds-checked array
//! index. Ids are assigned in first-intern order by a single-threaded
//! owner, so a deterministic simulation assigns deterministic ids.

use std::collections::HashMap;

/// A dense handle for an interned metric name.
///
/// Ids are small consecutive integers (`0, 1, 2, ...` in first-intern
/// order) and are only meaningful relative to the [`Interner`] that issued
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId(u32);

impl MetricId {
    /// The id's dense index (suitable for `Vec` indexing).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a dense index (the inverse of [`index`]; only
    /// meaningful against the interner the index came from).
    ///
    /// [`index`]: MetricId::index
    ///
    /// # Panics
    /// Panics if `i` exceeds `u32::MAX`.
    #[inline]
    pub fn from_index(i: usize) -> MetricId {
        MetricId(u32::try_from(i).expect("metric index exceeds u32"))
    }
}

/// Bidirectional map between metric names and dense [`MetricId`]s.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    names: Vec<String>,
    by_name: HashMap<String, MetricId>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Returns the id for `name`, assigning the next dense id on first
    /// sight. A hit costs one hash lookup and never allocates.
    pub fn intern(&mut self, name: &str) -> MetricId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = MetricId(u32::try_from(self.names.len()).expect("more than u32::MAX metrics"));
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// The id for `name` if it has been interned.
    #[inline]
    pub fn get(&self, name: &str) -> Option<MetricId> {
        self.by_name.get(name).copied()
    }

    /// The name behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was issued by a different interner.
    #[inline]
    pub fn name(&self, id: MetricId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct names interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All interned names in id order (deterministic).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i = Interner::new();
        let a = i.intern("a.first");
        let b = i.intern("b.second");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.intern("a.first"), a, "re-intern returns the same id");
        assert_eq!(i.get("b.second"), Some(b));
        assert_eq!(i.get("never"), None);
        assert_eq!(i.name(a), "a.first");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn names_iterate_in_id_order() {
        let mut i = Interner::new();
        for n in ["z", "m", "a"] {
            i.intern(n);
        }
        let names: Vec<_> = i.names().collect();
        assert_eq!(names, ["z", "m", "a"], "insertion order, not sorted");
    }
}

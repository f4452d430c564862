//! Epoch-based visited-set, reusable across queries without clearing.
//!
//! HNSW search marks every touched node; allocating or zeroing a bitset per
//! query would dominate small-query latency, so the standard trick is a
//! version array: a slot is "visited" iff it stores the current epoch. The
//! HNSW layer search keeps one set per thread and grows it to the graph it
//! walks, so a walk starts with an epoch bump.

/// Reusable visited-marker over `n` slots.
#[derive(Debug, Clone)]
pub struct VisitedSet {
    epoch: u32,
    marks: Vec<u32>,
}

impl VisitedSet {
    /// Creates a set covering ids `0..n`.
    pub fn new(n: usize) -> Self {
        Self {
            epoch: 1,
            marks: vec![0; n],
        }
    }

    /// Starts a new query: all slots become unvisited in O(1)
    /// (amortized — a full reset happens only on epoch wrap-around).
    pub fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Marks `id`; returns `true` when it was not yet visited this epoch.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let slot = &mut self.marks[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }

    /// True when `id` was already visited this epoch.
    #[cfg(test)]
    pub fn contains(&self, id: u32) -> bool {
        self.marks[id as usize] == self.epoch
    }

    /// Number of slots covered.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.marks.len()
    }

    /// Extends coverage to ids `0..n` (no-op when already that large).
    /// New slots start unvisited — they hold epoch 0 and the live epoch
    /// is always ≥ 1 — so growing mid-query is safe.
    pub fn grow(&mut self, n: usize) {
        if n > self.marks.len() {
            self.marks.resize(n, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_first_visit() {
        let mut v = VisitedSet::new(4);
        assert!(v.insert(2));
        assert!(!v.insert(2));
        assert!(v.contains(2));
        assert!(!v.contains(0));
    }

    #[test]
    fn next_epoch_resets_logically() {
        let mut v = VisitedSet::new(3);
        v.insert(1);
        v.next_epoch();
        assert!(!v.contains(1));
        assert!(v.insert(1));
    }

    #[test]
    fn wraparound_is_safe() {
        let mut v = VisitedSet::new(2);
        v.epoch = u32::MAX - 1;
        v.insert(0);
        v.next_epoch(); // MAX
        assert!(!v.contains(0));
        v.insert(1);
        v.next_epoch(); // wraps: full reset
        assert!(!v.contains(0));
        assert!(!v.contains(1));
        assert!(v.insert(0));
    }

    #[test]
    fn capacity() {
        assert_eq!(VisitedSet::new(17).capacity(), 17);
    }

    #[test]
    fn grow_preserves_marks_and_leaves_new_slots_unvisited() {
        let mut v = VisitedSet::new(2);
        v.next_epoch();
        v.insert(1);
        v.grow(5);
        assert_eq!(v.capacity(), 5);
        assert!(v.contains(1));
        assert!(!v.contains(4));
        assert!(v.insert(4));
        v.grow(3); // shrinking is a no-op
        assert_eq!(v.capacity(), 5);
    }
}

//! A dynamic bit-vector over memory locations.
//!
//! Section 4.1 of the paper motivates recording the READ and WRITE sets of
//! a computation event as bit-vectors: "bit-vectors representing those
//! (shared) variables that might be accessed between two synchronization
//! events can be constructed, and when a variable is accessed, the
//! corresponding bit is set". [`LocSet`] is that bit-vector.

use std::fmt;

use crate::Location;

const BITS: usize = 64;

/// A set of memory [`Location`]s backed by a growable bit-vector.
///
/// The set grows automatically on [`insert`](LocSet::insert); all query
/// operations treat absent words as zero, so sets of different capacities
/// compare and combine correctly.
///
/// # Example
///
/// ```
/// use wmrd_trace::{LocSet, Location};
///
/// let mut reads = LocSet::new();
/// reads.insert(Location::new(3));
/// reads.insert(Location::new(200));
///
/// let mut writes = LocSet::new();
/// writes.insert(Location::new(200));
///
/// assert!(reads.intersects(&writes));
/// assert_eq!(reads.len(), 2);
/// assert_eq!(
///     reads.iter().collect::<Vec<_>>(),
///     vec![Location::new(3), Location::new(200)]
/// );
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct LocSet {
    words: Vec<u64>,
}

impl LocSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        LocSet::default()
    }

    /// Creates an empty set with capacity for locations `0..n` without
    /// reallocating.
    pub fn with_capacity(n: usize) -> Self {
        LocSet { words: Vec::with_capacity(n.div_ceil(BITS)) }
    }

    /// Inserts a location. Returns `true` if it was not already present.
    pub fn insert(&mut self, loc: Location) -> bool {
        let (w, b) = (loc.index() / BITS, loc.index() % BITS);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes a location. Returns `true` if it was present.
    pub fn remove(&mut self, loc: Location) -> bool {
        let (w, b) = (loc.index() / BITS, loc.index() % BITS);
        if w >= self.words.len() {
            return false;
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Returns `true` if the location is in the set.
    pub fn contains(&self, loc: Location) -> bool {
        let (w, b) = (loc.index() / BITS, loc.index() % BITS);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Returns the number of locations in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all locations.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Returns `true` if `self` and `other` share at least one location.
    ///
    /// This is the conflict test of Section 2.1 applied to event READ/WRITE
    /// sets: two events conflict iff one's WRITE set intersects the other's
    /// READ or WRITE set.
    pub fn intersects(&self, other: &LocSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Returns the intersection of the two sets.
    pub fn intersection(&self, other: &LocSet) -> LocSet {
        let words = self.words.iter().zip(&other.words).map(|(a, b)| a & b).collect::<Vec<_>>();
        let mut s = LocSet { words };
        s.shrink();
        s
    }

    /// Returns the union of the two sets.
    pub fn union(&self, other: &LocSet) -> LocSet {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        let mut words = long.clone();
        for (w, s) in words.iter_mut().zip(short) {
            *w |= s;
        }
        LocSet { words }
    }

    /// Adds every location of `other` to `self`.
    pub fn union_with(&mut self, other: &LocSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Returns `true` if every location of `self` is in `other`.
    pub fn is_subset(&self, other: &LocSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Iterates over the locations in ascending address order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, word: 0, bits: self.words.first().copied().unwrap_or(0) }
    }

    /// `(w1 ∩ (r2 ∪ w2)) ∪ (w2 ∩ r1)`: the locations on which two
    /// READ/WRITE set pairs conflict, built in one allocation.
    pub(crate) fn conflict(r1: &LocSet, w1: &LocSet, r2: &LocSet, w2: &LocSet) -> LocSet {
        let word = |s: &LocSet, i: usize| s.words.get(i).copied().unwrap_or(0);
        let words = (0..w1.words.len().max(w2.words.len()))
            .map(|i| word(w1, i) & (word(r2, i) | word(w2, i)) | word(w2, i) & word(r1, i))
            .collect();
        let mut s = LocSet { words };
        s.shrink();
        s
    }

    fn shrink(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
}

/// Iterator over the locations of a [`LocSet`], in ascending order.
///
/// Produced by [`LocSet::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    set: &'a LocSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = Location;

    fn next(&mut self) -> Option<Location> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros();
                self.bits &= self.bits - 1;
                return Some(Location::new((self.word * BITS) as u32 + b));
            }
            self.word += 1;
            self.bits = *self.set.words.get(self.word)?;
        }
    }
}

impl<'a> IntoIterator for &'a LocSet {
    type Item = Location;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<Location> for LocSet {
    fn from_iter<I: IntoIterator<Item = Location>>(iter: I) -> Self {
        let mut s = LocSet::new();
        for loc in iter {
            s.insert(loc);
        }
        s
    }
}

impl Extend<Location> for LocSet {
    fn extend<I: IntoIterator<Item = Location>>(&mut self, iter: I) {
        for loc in iter {
            self.insert(loc);
        }
    }
}

// The bit words themselves, least significant location first.
crate::impl_to_json!(LocSet { words });

impl fmt::Debug for LocSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|l| l.addr())).finish()
    }
}

impl fmt::Display for LocSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, loc) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", loc.addr())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(locs: &[u32]) -> LocSet {
        locs.iter().map(|&l| Location::new(l)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = LocSet::new();
        assert!(s.insert(Location::new(5)));
        assert!(!s.insert(Location::new(5)), "second insert reports present");
        assert!(s.contains(Location::new(5)));
        assert!(!s.contains(Location::new(6)));
        assert!(s.remove(Location::new(5)));
        assert!(!s.remove(Location::new(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn len_and_clear() {
        let mut s = set(&[0, 63, 64, 500]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        s.clear();
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn intersects_across_different_capacities() {
        let small = set(&[1]);
        let large = set(&[1, 1000]);
        assert!(small.intersects(&large));
        assert!(large.intersects(&small));
        assert!(!set(&[2]).intersects(&set(&[3000])));
        assert!(!LocSet::new().intersects(&large));
    }

    #[test]
    fn union_and_intersection() {
        let a = set(&[1, 2, 100]);
        let b = set(&[2, 3]);
        assert_eq!(a.union(&b), set(&[1, 2, 3, 100]));
        assert_eq!(b.union(&a), set(&[1, 2, 3, 100]));
        assert_eq!(a.intersection(&b), set(&[2]));
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c, set(&[1, 2, 3, 100]));
        let mut d = b.clone();
        d.union_with(&a);
        assert_eq!(d, set(&[1, 2, 3, 100]));
    }

    #[test]
    fn subset() {
        assert!(set(&[1, 2]).is_subset(&set(&[1, 2, 3])));
        assert!(!set(&[1, 400]).is_subset(&set(&[1, 2, 3])));
        assert!(LocSet::new().is_subset(&set(&[1])));
        assert!(set(&[1]).is_subset(&set(&[1])));
    }

    #[test]
    fn iter_ascending() {
        let s = set(&[300, 0, 64, 63]);
        let v: Vec<u32> = s.iter().map(|l| l.addr()).collect();
        assert_eq!(v, vec![0, 63, 64, 300]);
    }

    #[test]
    fn equality_ignores_trailing_zero_words() {
        let mut a = set(&[1, 1000]);
        a.remove(Location::new(1000));
        let b = set(&[1]);
        // `a` still has extra (zero) words; intersection/len behave the same.
        assert_eq!(a.len(), b.len());
        assert!(a.intersection(&b) == b.intersection(&a));
        assert!(a.is_subset(&b) && b.is_subset(&a));
    }

    #[test]
    fn display_and_debug() {
        let s = set(&[1, 2]);
        assert_eq!(s.to_string(), "{1,2}");
        assert_eq!(format!("{:?}", s), "{1, 2}");
        assert_eq!(LocSet::new().to_string(), "{}");
    }

    #[test]
    fn json_is_the_bit_words() {
        use crate::ToJson;
        assert_eq!(set(&[0, 65]).json().render(), r#"{"words":[1,2]}"#);
    }

    #[test]
    fn extend_and_with_capacity() {
        let mut s = LocSet::with_capacity(256);
        s.extend([Location::new(10), Location::new(20)]);
        assert_eq!(s.len(), 2);
    }
}

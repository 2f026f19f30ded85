//! Bitset domains over small non-negative integer values.
//!
//! Slot-assignment variables range over `0..=T` with `T` at most a few
//! thousand, so a fixed-width bitset gives O(words) intersection and O(1)
//! membership — the operations propagation hammers on.

/// A set of values in `0..=max_value`, stored as a bitset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitDomain {
    words: Vec<u64>,
    size: u32,
}

impl BitDomain {
    /// Full domain `lo..=hi` inside universe `0..=max_value`.
    pub fn new(lo: i64, hi: i64, max_value: i64) -> Self {
        assert!(lo >= 0 && hi <= max_value, "domain outside universe");
        let nwords = (max_value as usize + 64) / 64;
        let mut d = BitDomain {
            words: vec![0; nwords],
            size: 0,
        };
        for v in lo..=hi {
            d.insert(v);
        }
        d
    }

    #[inline]
    fn slot(v: i64) -> (usize, u64) {
        ((v as usize) / 64, 1u64 << ((v as usize) % 64))
    }

    /// Insert a value (no-op if present).
    pub fn insert(&mut self, v: i64) {
        let (w, m) = Self::slot(v);
        if self.words[w] & m == 0 {
            self.words[w] |= m;
            self.size += 1;
        }
    }

    /// Remove a value. Returns true if it was present.
    pub fn remove(&mut self, v: i64) -> bool {
        let (w, m) = Self::slot(v);
        if w < self.words.len() && self.words[w] & m != 0 {
            self.words[w] &= !m;
            self.size -= 1;
            true
        } else {
            false
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        if v < 0 {
            return false;
        }
        let (w, m) = Self::slot(v);
        w < self.words.len() && self.words[w] & m != 0
    }

    /// Number of values in the domain.
    #[inline]
    pub fn len(&self) -> u32 {
        self.size
    }

    /// True when the domain is empty (dead end).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// True when exactly one value remains.
    #[inline]
    pub fn is_fixed(&self) -> bool {
        self.size == 1
    }

    /// Smallest value, or `None` when empty.
    pub fn min(&self) -> Option<i64> {
        for (w, word) in self.words.iter().enumerate() {
            if *word != 0 {
                return Some((w * 64 + word.trailing_zeros() as usize) as i64);
            }
        }
        None
    }

    /// Largest value, or `None` when empty.
    pub fn max(&self) -> Option<i64> {
        for (w, word) in self.words.iter().enumerate().rev() {
            if *word != 0 {
                return Some((w * 64 + 63 - word.leading_zeros() as usize) as i64);
            }
        }
        None
    }

    /// The single remaining value of a fixed domain.
    pub fn fixed_value(&self) -> Option<i64> {
        if self.is_fixed() {
            self.min()
        } else {
            None
        }
    }

    /// Smallest value strictly greater than `v`, or `None`. Lets a caller
    /// walk a domain in ascending order while removing values from it.
    pub fn next_above(&self, v: i64) -> Option<i64> {
        let from = (v + 1).max(0) as usize;
        let mut w = from / 64;
        let mut word = *self.words.get(w)? & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some((w * 64 + word.trailing_zeros() as usize) as i64);
            }
            w += 1;
            word = *self.words.get(w)?;
        }
    }

    /// Number of 64-value words backing the domain.
    #[inline]
    pub(crate) fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The bits of word `w` (values `64·w ..= 64·w + 63`).
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.words[w]
    }

    /// Overwrite word `w`, keeping the size in step — the trail's undo
    /// and [`crate::State::fix`] change a domain a word at a time.
    #[inline]
    pub(crate) fn set_word(&mut self, w: usize, bits: u64) {
        self.size = self.size - self.words[w].count_ones() + bits.count_ones();
        self.words[w] = bits;
    }

    /// Iterate over values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.words.iter().enumerate().flat_map(|(w, word)| {
            let mut bits = *word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some((w * 64 + b) as i64)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_query() {
        let d = BitDomain::new(0, 5, 10);
        assert_eq!(d.len(), 6);
        assert!(d.contains(0));
        assert!(d.contains(5));
        assert!(!d.contains(6));
        assert!(!d.contains(-1));
        assert_eq!(d.min(), Some(0));
        assert_eq!(d.max(), Some(5));
    }

    #[test]
    fn remove_and_fixed() {
        let mut d = BitDomain::new(1, 3, 10);
        assert!(d.remove(2));
        assert!(!d.remove(2), "double remove is a no-op");
        assert_eq!(d.len(), 2);
        assert!(d.remove(1));
        assert!(d.is_fixed());
        assert_eq!(d.fixed_value(), Some(3));
        assert!(d.remove(3));
        assert!(d.is_empty());
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
    }

    #[test]
    fn iter_ascending() {
        let mut d = BitDomain::new(0, 130, 200);
        d.remove(64);
        d.remove(65);
        let vals: Vec<i64> = d.iter().collect();
        assert_eq!(vals.len(), 129);
        assert_eq!(vals[0], 0);
        assert_eq!(vals[63], 63);
        assert_eq!(vals[64], 66, "gap skipped");
        assert_eq!(*vals.last().unwrap(), 130);
    }

    #[test]
    fn next_above_walks_across_words_and_gaps() {
        let mut d = BitDomain::new(0, 130, 200);
        d.remove(64);
        d.remove(65);
        assert_eq!(d.next_above(-1), Some(0));
        assert_eq!(d.next_above(62), Some(63));
        assert_eq!(d.next_above(63), Some(66), "gap at the word boundary");
        assert_eq!(d.next_above(129), Some(130));
        assert_eq!(d.next_above(130), None);
        assert_eq!(d.next_above(500), None, "past the universe");
        let mut walked = Vec::new();
        let mut cur = d.min();
        while let Some(v) = cur {
            walked.push(v);
            cur = d.next_above(v);
        }
        assert_eq!(walked, d.iter().collect::<Vec<_>>());
    }

    #[test]
    fn set_word_keeps_the_size() {
        let mut d = BitDomain::new(0, 70, 100);
        d.set_word(0, 0b1010);
        assert_eq!(d.len(), 2 + 7);
        assert_eq!(d.min(), Some(1));
        d.set_word(1, 0);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn cross_word_min_max() {
        let mut d = BitDomain::new(100, 150, 200);
        assert_eq!(d.min(), Some(100));
        assert_eq!(d.max(), Some(150));
        d.remove(100);
        d.remove(150);
        assert_eq!(d.min(), Some(101));
        assert_eq!(d.max(), Some(149));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_panics() {
        BitDomain::new(0, 20, 10);
    }
}

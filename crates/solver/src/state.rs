//! Trail-based search state: variable domains, reversible counters and a
//! smallest-domain index, all undone in O(changes).
//!
//! Every domain change records the overwritten bitset word on a trail, and
//! every counter update records the overwritten value; backtracking pops
//! the trail down to a saved mark. Fixing a variable is therefore one trail
//! entry per domain word, not one per removed value, and a propagator that
//! keeps incremental totals (the capacity loads) stores them in counter
//! cells here so they unwind with the domains they were derived from.

use crate::domain::BitDomain;
use cornet_model::Model;

/// Signalled when a domain wipes out — the current branch is dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conflict;

#[derive(Debug)]
enum Trail {
    /// Word `word` of `var`'s domain held `old` before a change.
    Word { var: u32, word: u32, old: u64 },
    /// Counter `cell` held `old` before an update.
    Cell { cell: u32, old: i64 },
}

/// One domain size's unfixed variables, as a bitset over variable indices.
#[derive(Debug, Default)]
struct Bucket {
    bits: Vec<u64>,
    /// No word below this index is non-zero.
    low: usize,
    len: u32,
}

/// Unfixed variables bucketed by domain size: the smallest-domain,
/// lowest-index variable is the lowest bit of the lowest occupied bucket.
/// Moving a variable between sizes is two bit operations.
#[derive(Debug)]
struct SizeBuckets {
    /// `by_size[s]` holds the variables whose domain has `s ≥ 2` values.
    by_size: Vec<Bucket>,
    /// Bit `s` set ⇔ `by_size[s]` is non-empty.
    occupied: Vec<u64>,
}

impl SizeBuckets {
    fn new(vars: usize, max_size: usize) -> Self {
        let words = vars.div_ceil(64);
        SizeBuckets {
            by_size: (0..=max_size)
                .map(|s| Bucket {
                    bits: if s >= 2 { vec![0; words] } else { Vec::new() },
                    low: words,
                    len: 0,
                })
                .collect(),
            occupied: vec![0; max_size / 64 + 1],
        }
    }

    /// A variable's domain went from `from` to `to` values.
    fn moved(&mut self, var: usize, from: u32, to: u32) {
        let (word, bit) = (var / 64, 1u64 << (var % 64));
        if from >= 2 {
            let b = &mut self.by_size[from as usize];
            b.bits[word] &= !bit;
            b.len -= 1;
            if b.len == 0 {
                b.low = b.bits.len();
                self.occupied[from as usize / 64] &= !(1 << (from % 64));
            }
        }
        if to >= 2 {
            let b = &mut self.by_size[to as usize];
            b.bits[word] |= bit;
            b.low = b.low.min(word);
            b.len += 1;
            self.occupied[to as usize / 64] |= 1 << (to % 64);
        }
    }

    fn first(&mut self) -> Option<usize> {
        let (w, sizes) = self.occupied.iter().enumerate().find(|(_, s)| **s != 0)?;
        let b = &mut self.by_size[w * 64 + sizes.trailing_zeros() as usize];
        while b.bits[b.low] == 0 {
            b.low += 1;
        }
        Some(b.low * 64 + b.bits[b.low].trailing_zeros() as usize)
    }
}

/// Mutable search state over a model's variables.
#[derive(Debug)]
pub struct State {
    domains: Vec<BitDomain>,
    /// Reversible counters owned by the propagators.
    cells: Vec<i64>,
    trail: Vec<Trail>,
    /// Variables whose domains changed since the engine last drained them.
    changed: Vec<u32>,
    /// Variables that became fixed since the engine last drained them.
    assigned: Vec<u32>,
    unfixed: SizeBuckets,
}

impl State {
    /// Initial state with full domains from the model and `cells` zeroed
    /// reversible counters. Variables born fixed are reported as assigned.
    pub fn new(model: &Model, cells: usize) -> Self {
        let max_value = model.vars.iter().map(|v| v.hi).max().unwrap_or(0);
        let domains: Vec<BitDomain> = model
            .vars
            .iter()
            .map(|v| BitDomain::new(v.lo, v.hi, max_value))
            .collect();
        let max_size = domains.iter().map(BitDomain::len).max().unwrap_or(0);
        let mut unfixed = SizeBuckets::new(domains.len(), max_size as usize);
        let mut assigned = Vec::new();
        for (var, d) in domains.iter().enumerate() {
            unfixed.moved(var, 0, d.len());
            if d.is_fixed() {
                assigned.push(var as u32);
            }
        }
        State {
            domains,
            cells: vec![0; cells],
            trail: Vec::new(),
            changed: Vec::new(),
            assigned,
            unfixed,
        }
    }

    /// Borrow a variable's domain.
    #[inline]
    pub fn domain(&self, var: usize) -> &BitDomain {
        &self.domains[var]
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.domains.len()
    }

    /// Overwrite one domain word, trailing the old bits and keeping the
    /// size buckets and the change notifications in step.
    fn set_word(&mut self, var: usize, word: usize, bits: u64) {
        let d = &mut self.domains[var];
        let (old, from) = (d.word(word), d.len());
        if old == bits {
            return;
        }
        self.trail.push(Trail::Word {
            var: var as u32,
            word: word as u32,
            old,
        });
        d.set_word(word, bits);
        let to = d.len();
        self.unfixed.moved(var, from, to);
        self.changed.push(var as u32);
        if to == 1 {
            self.assigned.push(var as u32);
        }
    }

    /// Remove `value` from `var`'s domain. `Err(Conflict)` when the domain
    /// empties. Removals of absent values are no-ops.
    pub fn remove(&mut self, var: usize, value: i64) -> Result<(), Conflict> {
        if !self.domains[var].contains(value) {
            return Ok(());
        }
        let word = value as usize / 64;
        let bits = self.domains[var].word(word) & !(1u64 << (value % 64));
        self.set_word(var, word, bits);
        if self.domains[var].is_empty() {
            return Err(Conflict);
        }
        Ok(())
    }

    /// Remove every value of `var` for which `drop` holds, in ascending
    /// order; `drop` may read the state (other domains included).
    pub fn remove_where(
        &mut self,
        var: usize,
        mut drop: impl FnMut(&State, i64) -> bool,
    ) -> Result<(), Conflict> {
        let mut cursor = self.domains[var].min();
        while let Some(value) = cursor {
            cursor = self.domains[var].next_above(value);
            if drop(self, value) {
                self.remove(var, value)?;
            }
        }
        Ok(())
    }

    /// Fix `var` to `value`, removing every other value. Fixing to an
    /// absent value empties the domain (reversibly) and conflicts.
    pub fn fix(&mut self, var: usize, value: i64) -> Result<(), Conflict> {
        let present = self.domains[var].contains(value);
        for word in 0..self.domains[var].word_count() {
            let keep = if present && word == value as usize / 64 {
                1u64 << (value % 64)
            } else {
                0
            };
            self.set_word(var, word, keep);
        }
        if present {
            Ok(())
        } else {
            Err(Conflict)
        }
    }

    /// Read a reversible counter.
    #[inline]
    pub fn cell(&self, cell: usize) -> i64 {
        self.cells[cell]
    }

    /// Add to a reversible counter; undone with the trail.
    pub fn add_to_cell(&mut self, cell: usize, delta: i64) {
        self.trail.push(Trail::Cell {
            cell: cell as u32,
            old: self.cells[cell],
        });
        self.cells[cell] += delta;
    }

    /// Save a trail mark for later undo.
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undo every change past `mark` and drop the notifications they
    /// raised. Marks are taken at propagation fixpoints, where nothing is
    /// pending, so nothing older is lost.
    pub fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().expect("trail underflow") {
                Trail::Word { var, word, old } => {
                    let d = &mut self.domains[var as usize];
                    let from = d.len();
                    d.set_word(word as usize, old);
                    self.unfixed.moved(var as usize, from, d.len());
                }
                Trail::Cell { cell, old } => self.cells[cell as usize] = old,
            }
        }
        self.changed.clear();
        self.assigned.clear();
    }

    /// Move the changed-variable notifications (duplicates possible) into
    /// `out`, replacing its contents; the two buffers trade places, so a
    /// caller that keeps `out` around never allocates.
    pub fn take_changed_into(&mut self, out: &mut Vec<u32>) {
        out.clear();
        std::mem::swap(&mut self.changed, out);
    }

    /// Move the newly-fixed-variable notifications into `out`, as
    /// [`State::take_changed_into`] does for changes. A reported variable
    /// may have been emptied since; its domain says so.
    pub fn take_assigned_into(&mut self, out: &mut Vec<u32>) {
        out.clear();
        std::mem::swap(&mut self.assigned, out);
    }

    /// The unfixed variable with the smallest domain, lowest index first
    /// among equals; `None` when every variable is fixed.
    pub fn smallest_unfixed(&mut self) -> Option<usize> {
        self.unfixed.first()
    }

    /// True when every variable is fixed.
    pub fn all_fixed(&self) -> bool {
        self.domains.iter().all(BitDomain::is_fixed)
    }

    /// Extract the assignment; panics unless all variables are fixed.
    pub fn assignment(&self) -> Vec<i64> {
        self.domains
            .iter()
            .map(|d| {
                d.fixed_value()
                    .expect("assignment requested on unfixed state")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_model::Model;

    fn model2() -> Model {
        let mut m = Model::new("t");
        m.add_var("a", 0, 3);
        m.add_var("b", 1, 2);
        m
    }

    fn changed(s: &mut State) -> Vec<u32> {
        let mut out = Vec::new();
        s.take_changed_into(&mut out);
        out
    }

    fn assigned(s: &mut State) -> Vec<u32> {
        let mut out = Vec::new();
        s.take_assigned_into(&mut out);
        out
    }

    #[test]
    fn remove_and_undo() {
        let m = model2();
        let mut s = State::new(&m, 0);
        let mark = s.mark();
        s.remove(0, 1).unwrap();
        s.remove(0, 2).unwrap();
        assert_eq!(s.domain(0).len(), 2);
        s.undo_to(mark);
        assert_eq!(s.domain(0).len(), 4);
    }

    #[test]
    fn conflict_on_wipeout() {
        let m = model2();
        let mut s = State::new(&m, 0);
        s.remove(1, 1).unwrap();
        assert_eq!(s.remove(1, 2), Err(Conflict));
    }

    #[test]
    fn fix_leaves_single_value() {
        let m = model2();
        let mut s = State::new(&m, 0);
        s.fix(0, 2).unwrap();
        assert_eq!(s.domain(0).fixed_value(), Some(2));
        assert!(!s.all_fixed(), "b still has two values");
        s.fix(1, 1).unwrap();
        assert!(s.all_fixed());
        assert_eq!(s.assignment(), vec![2, 1]);
    }

    #[test]
    fn fix_to_absent_value_conflicts_and_is_reversible() {
        let m = model2();
        let mut s = State::new(&m, 0);
        let mark = s.mark();
        assert_eq!(s.fix(1, 9), Err(Conflict));
        assert!(s.domain(1).is_empty());
        s.undo_to(mark);
        assert_eq!(s.domain(1).len(), 2);
    }

    #[test]
    fn changed_tracking() {
        let m = model2();
        let mut s = State::new(&m, 0);
        s.remove(0, 0).unwrap();
        s.remove(1, 1).unwrap();
        assert_eq!(changed(&mut s), vec![0, 1]);
        assert!(changed(&mut s).is_empty());
    }

    #[test]
    fn assignments_are_reported_once_and_dropped_by_undo() {
        let mut m = model2();
        m.add_var("c", 2, 2);
        let mut s = State::new(&m, 0);
        assert_eq!(assigned(&mut s), vec![2], "born fixed");
        let mark = s.mark();
        s.remove(1, 1).unwrap();
        s.fix(0, 3).unwrap();
        s.fix(0, 3).unwrap();
        assert_eq!(assigned(&mut s), vec![1, 0]);
        s.fix(1, 2).unwrap();
        assert!(assigned(&mut s).is_empty(), "already fixed to that value");
        s.remove(0, 0).unwrap();
        s.undo_to(mark);
        assert!(assigned(&mut s).is_empty() && changed(&mut s).is_empty());
    }

    #[test]
    fn remove_where_sees_the_state_and_stops_at_wipeout() {
        let m = model2();
        let mut s = State::new(&m, 0);
        s.remove_where(0, |st, v| !st.domain(1).contains(v))
            .unwrap();
        assert_eq!(s.domain(0).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(s.remove_where(0, |_, _| true), Err(Conflict));
    }

    #[test]
    fn cells_unwind_with_the_trail() {
        let m = model2();
        let mut s = State::new(&m, 2);
        s.add_to_cell(1, 5);
        let mark = s.mark();
        s.add_to_cell(1, 2);
        s.add_to_cell(0, -1);
        s.remove(0, 0).unwrap();
        assert_eq!((s.cell(0), s.cell(1)), (-1, 7));
        s.undo_to(mark);
        assert_eq!((s.cell(0), s.cell(1)), (0, 5));
        assert_eq!(s.domain(0).len(), 4);
    }

    /// The bucket index must agree with a scan of every variable for
    /// (smallest domain, lowest index) through removals, fixes and undo.
    #[test]
    fn smallest_unfixed_matches_a_full_scan() {
        let mut m = Model::new("t");
        for i in 0..150 {
            m.add_var(format!("v{i}"), 0, 2 + (i % 5));
        }
        let scan = |s: &State| {
            (0..s.var_count())
                .filter(|&v| s.domain(v).len() >= 2)
                .min_by_key(|&v| (s.domain(v).len(), v))
        };
        let mut s = State::new(&m, 0);
        assert_eq!(s.smallest_unfixed(), scan(&s));
        let mut marks = Vec::new();
        for step in 0..400usize {
            let var = (step * 37) % 150;
            match step % 7 {
                0 => marks.push(s.mark()),
                3 if !marks.is_empty() => s.undo_to(marks.pop().unwrap()),
                5 => {
                    let v = s.domain(var).max().unwrap_or(0);
                    let _ = s.fix(var, v);
                }
                _ => {
                    if s.domain(var).len() > 1 {
                        let v = s.domain(var).min().unwrap();
                        s.remove(var, v).unwrap();
                    }
                }
            }
            assert_eq!(s.smallest_unfixed(), scan(&s), "step {step}");
        }
        s.undo_to(0);
        assert_eq!(s.smallest_unfixed(), Some(0), "v0, v5, … have 3 values");
    }
}

//! Dense bitsets over the program's index spaces.
//!
//! The semantic model hands out dense, zero-based ids ([`FuncId`],
//! [`ClassId`], and the member ids of
//! [`MemberIndex`](crate::summary::MemberIndex)), so set-of-ids state in
//! the fixpoint engines can be a flat `u64` word array instead of a
//! pointer-chasing tree: membership is one shift and mask, insertion
//! reports freshness for worklist seeding, and ascending iteration falls
//! out of the word order — which is exactly the deterministic id order
//! every downstream consumer (reports, `--explain` witness search) sorts
//! by.
//!
//! [`DenseBitSet`] is the untyped core; [`FuncBitSet`] and
//! [`ClassBitSet`] wrap it with the id newtypes so a function set cannot
//! be indexed with a class id by accident.

use crate::ids::{ClassId, FuncId};

/// A growable bitset over dense `u32` ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBitSet {
    words: Vec<u64>,
}

impl DenseBitSet {
    /// An empty set sized for ids `0..len` without reallocation.
    pub fn with_capacity(len: usize) -> DenseBitSet {
        DenseBitSet {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Inserts `id`; returns true if it was not already present.
    pub fn insert(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, id as usize % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        fresh
    }

    /// Removes `id`; returns true if it was present.
    pub fn remove(&mut self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, id as usize % 64);
        let Some(w) = self.words.get_mut(word) else {
            return false;
        };
        let mask = 1u64 << bit;
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u32) -> bool {
        let (word, bit) = (id as usize / 64, id as usize % 64);
        self.words.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of ids in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Unions `other` into this set; returns true if anything was added.
    pub fn union_with(&mut self, other: &DenseBitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (w, &o) in self.words.iter_mut().zip(&other.words) {
            changed |= o & !*w != 0;
            *w |= o;
        }
        changed
    }

    /// The set's ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::from_fn({
                let mut w = word;
                move || {
                    if w == 0 {
                        return None;
                    }
                    let bit = w.trailing_zeros();
                    w &= w - 1;
                    Some((wi * 64) as u32 + bit)
                }
            })
        })
    }
}

macro_rules! typed_bitset {
    ($(#[$doc:meta])* $name:ident, $id:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $name {
            bits: DenseBitSet,
        }

        impl $name {
            /// An empty set sized for ids `0..len` without reallocation.
            pub fn with_capacity(len: usize) -> $name {
                $name {
                    bits: DenseBitSet::with_capacity(len),
                }
            }

            /// Inserts `id`; returns true if it was not already present.
            pub fn insert(&mut self, id: $id) -> bool {
                self.bits.insert(id.index() as u32)
            }

            /// Removes `id`; returns true if it was present.
            pub fn remove(&mut self, id: $id) -> bool {
                self.bits.remove(id.index() as u32)
            }

            /// Whether `id` is in the set.
            pub fn contains(&self, id: $id) -> bool {
                self.bits.contains(id.index() as u32)
            }

            /// Number of ids in the set.
            pub fn count(&self) -> usize {
                self.bits.count()
            }

            /// Whether the set is empty.
            pub fn is_empty(&self) -> bool {
                self.bits.is_empty()
            }

            /// Unions `other` into this set; returns true if anything was
            /// added.
            pub fn union_with(&mut self, other: &$name) -> bool {
                self.bits.union_with(&other.bits)
            }

            /// The set's ids in ascending order.
            pub fn iter(&self) -> impl Iterator<Item = $id> + '_ {
                self.bits.iter().map(|i| $id::from_index(i as usize))
            }

            /// The set's ids as a sorted vector.
            pub fn to_vec(&self) -> Vec<$id> {
                let mut out = Vec::with_capacity(self.count());
                out.extend(self.iter());
                out
            }
        }
    };
}

typed_bitset!(
    /// A dense bitset of [`FuncId`]s.
    FuncBitSet,
    FuncId
);
typed_bitset!(
    /// A dense bitset of [`ClassId`]s.
    ClassBitSet,
    ClassId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_reports_freshness_and_grows() {
        let mut s = DenseBitSet::with_capacity(10);
        assert!(s.insert(3));
        assert!(!s.insert(3), "second insert is not fresh");
        assert!(s.insert(200), "insert beyond capacity grows the set");
        assert!(s.contains(3));
        assert!(s.contains(200));
        assert!(!s.contains(4));
        assert!(!s.contains(10_000), "out-of-range lookups are just absent");
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn remove_reports_presence() {
        let mut s = DenseBitSet::default();
        s.insert(65);
        assert!(s.remove(65));
        assert!(!s.remove(65), "second remove finds nothing");
        assert!(!s.remove(1_000), "out-of-range remove finds nothing");
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_is_ascending() {
        let mut s = DenseBitSet::default();
        for id in [130, 0, 64, 63, 7, 129] {
            s.insert(id);
        }
        let order: Vec<u32> = s.iter().collect();
        assert_eq!(order, vec![0, 7, 63, 64, 129, 130]);
    }

    #[test]
    fn union_merges_and_reports_change() {
        let mut a = DenseBitSet::default();
        a.insert(1);
        let mut b = DenseBitSet::default();
        b.insert(1);
        b.insert(100);
        assert!(a.union_with(&b), "100 is new to a");
        assert!(!a.union_with(&b), "second union adds nothing");
        assert_eq!(a.count(), 2);
        let empty = DenseBitSet::default();
        assert!(!a.union_with(&empty));
    }

    #[test]
    fn word_boundary_bits_land_in_the_right_words() {
        // Bits 63/64 and 127/128 straddle word boundaries; get them
        // wrong and membership silently aliases a neighbour.
        let mut s = DenseBitSet::with_capacity(256);
        for id in [0, 63, 64, 127, 128, 255] {
            assert!(s.insert(id), "{id} fresh");
        }
        for id in [0, 63, 64, 127, 128, 255] {
            assert!(s.contains(id), "{id} present");
        }
        for id in [1, 62, 65, 126, 129, 254] {
            assert!(!s.contains(id), "{id} absent");
        }
        assert_eq!(s.count(), 6);
        assert!(s.remove(64));
        assert!(s.contains(63), "removing 64 leaves word 0 alone");
        assert!(s.contains(128), "removing 64 leaves word 2 alone");
    }

    #[test]
    fn union_grows_the_shorter_side_and_is_word_parallel() {
        // Shorter-into-longer and longer-into-shorter both work; the
        // change flag reflects bits, not lengths.
        let mut short = DenseBitSet::with_capacity(64);
        short.insert(5);
        let mut long = DenseBitSet::with_capacity(640);
        long.insert(5);
        long.insert(639);
        assert!(short.union_with(&long), "bit 639 forces growth");
        assert_eq!(short.iter().collect::<Vec<_>>(), vec![5, 639]);
        // The reverse direction: nothing new flows from short to long.
        assert!(!long.union_with(&short));
        // A longer but all-zero operand must not report change.
        let hollow = DenseBitSet::with_capacity(10_000);
        assert!(!long.union_with(&hollow));
        assert_eq!(long.count(), 2);
    }

    #[test]
    fn dense_full_words_iterate_completely() {
        let mut s = DenseBitSet::with_capacity(128);
        for id in 0..128 {
            s.insert(id);
        }
        assert_eq!(s.count(), 128);
        let all: Vec<u32> = s.iter().collect();
        assert_eq!(all, (0..128).collect::<Vec<u32>>());
        assert!(!s.is_empty());
    }

    #[test]
    fn typed_wrappers_round_trip_ids() {
        let mut funcs = FuncBitSet::with_capacity(8);
        let f0 = FuncId::from_index(0);
        let f5 = FuncId::from_index(5);
        assert!(funcs.insert(f5));
        assert!(funcs.insert(f0));
        assert!(!funcs.insert(f5));
        assert!(funcs.contains(f0));
        assert!(funcs.remove(f0));
        assert!(!funcs.contains(f0));
        assert_eq!(funcs.to_vec(), vec![f5]);

        let mut classes = ClassBitSet::default();
        assert!(classes.is_empty());
        classes.insert(ClassId::from_index(3));
        assert_eq!(classes.iter().collect::<Vec<_>>(), vec![ClassId::from_index(3)]);
        assert_eq!(classes.count(), 1);
    }

    #[test]
    fn equal_capacity_sets_with_equal_content_compare_equal() {
        // The call-graph builders rely on this: two engines build their
        // sets with the same `with_capacity`, so word lengths agree and
        // derived equality is semantic equality.
        let mut a = FuncBitSet::with_capacity(100);
        let mut b = FuncBitSet::with_capacity(100);
        a.insert(FuncId::from_index(42));
        b.insert(FuncId::from_index(42));
        assert_eq!(a, b);
        b.insert(FuncId::from_index(43));
        assert_ne!(a, b);
    }
}

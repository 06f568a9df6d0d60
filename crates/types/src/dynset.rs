//! Dynamic sets of `usize` ids.
//!
//! [`DynSet`] sits behind the [`ResourceSet`](crate::ResourceSet) and
//! [`NodeSet`](crate::NodeSet) aliases so scenarios can scale past the
//! paper's N = 32 / M = 80 shape to 10k+ nodes and 100k+ resources.  It is
//! one type with three internal representations, chosen automatically so
//! that the cost of an operation follows the size of the set, not the
//! size of the universe its ids come from:
//!
//! | representation | holds | storage |
//! |---|---|---|
//! | inline bitmap | every element below 256 | 4 inline words |
//! | inline id array | 1–9 elements, one ≥ 256 | sorted `[u32; 9]` inline |
//! | heap bitmap | 10+ elements, one ≥ 256 | words up to the largest element + count |
//!
//! **Promotion and demotion.** The representation is a function of the
//! elements alone: every operation leaves its result in the row of the
//! table above that the result's elements select.  A tenth element, or an
//! id ≥ 256 joining a bitmap of nine, promotes to the heap; a heap set
//! left with nine elements or fewer, or with none ≥ 256, moves back
//! inline.  [`DynSet::full`] of more than 256 ids starts on the heap.
//!
//! Whenever either operand is inline, set algebra costs O(|S|) in the
//! inline operand's size: a 4-element request near id 100 000 is ten
//! `u32`s, not 1 563 words.  Inline sets never touch the heap, so cloning,
//! iterating and combining them is allocation-free at any scale.
//!
//! Elements must fit in a `u32` (inserting a larger one panics): the id
//! array stores them as `u32`, and a bitmap reaching further would span
//! 512 MiB.
//!
//! `DynSet` is `Clone` but not `Copy`: call sites clone explicitly.
//! Because the representation follows the elements, equality, hashing,
//! iteration order and [`DynSet::to_words`] depend only on the elements.

use std::fmt;

/// Number of inline bitmap words: 4 × 64 = 256 elements (the paper's
/// shape plus headroom).
const INLINE_WORDS: usize = 4;
const INLINE_BITS: usize = INLINE_WORDS * 64;

/// Capacity of the inline id array: the most `u32`s that keep
/// `size_of::<DynSet>()` at the bitmap's 40 bytes.
const INLINE_IDS: usize = 9;

/// The three representations.  Each set has exactly one (see the module
/// docs), so the derived equality and hash compare elements.
#[derive(PartialEq, Eq, Hash)]
enum Repr {
    /// Every element is below [`INLINE_BITS`].
    Bits([u64; INLINE_WORDS]),
    /// `ids[..len]`, strictly increasing, `1 ≤ len ≤ INLINE_IDS`, and the
    /// last id is ≥ [`INLINE_BITS`]; `ids[len..]` is zero.
    Ids { len: u8, ids: [u32; INLINE_IDS] },
    /// Heap bitmap; `len` is its number of set bits, `len > INLINE_IDS`.
    /// `words` is trimmed (its last word is non-zero) and longer than
    /// [`INLINE_WORDS`].
    Heap { words: Vec<u64>, len: usize },
}

/// A set of `usize` elements; see the [module docs](self) for its
/// representations.
#[derive(PartialEq, Eq, Hash)]
pub struct DynSet {
    repr: Repr,
}

impl DynSet {
    /// The empty set (inline, allocation-free).
    pub const EMPTY: DynSet = DynSet {
        repr: Repr::Bits([0; INLINE_WORDS]),
    };

    /// The most elements an inline set holds once one of them is ≥ 256.
    pub const MAX_INLINE_IDS: usize = INLINE_IDS;

    /// Create an empty set.
    #[inline]
    pub const fn new() -> Self {
        Self::EMPTY
    }

    /// Create the full set `{0, .., n-1}`.
    ///
    /// # Panics
    /// If `n - 1` does not fit in a `u32`.
    pub fn full(n: usize) -> Self {
        let fill = |words: &mut [u64]| {
            for (wi, w) in words.iter_mut().enumerate() {
                let lo = wi * 64;
                if lo + 64 <= n {
                    *w = u64::MAX;
                } else if lo < n {
                    *w = (1u64 << (n - lo)) - 1;
                }
            }
        };
        if n <= INLINE_BITS {
            let mut w = [0u64; INLINE_WORDS];
            fill(&mut w);
            return DynSet {
                repr: Repr::Bits(w),
            };
        }
        assert!(u32::try_from(n - 1).is_ok(), "DynSet elements must fit in u32");
        let mut words = vec![0u64; n.div_ceil(64)];
        fill(&mut words);
        DynSet {
            repr: Repr::Heap { words, len: n },
        }
    }

    /// Create a singleton set `{i}`.
    #[inline]
    pub fn singleton(i: usize) -> Self {
        let mut s = Self::new();
        s.insert(i);
        s
    }

    /// An inline set of the sorted, distinct `ids` (at most
    /// [`INLINE_IDS`] of them): the bitmap if all are below 256.
    fn from_sorted_ids(ids: &[u32]) -> Self {
        match ids.last() {
            Some(&hi) if hi as usize >= INLINE_BITS => {
                let mut arr = [0u32; INLINE_IDS];
                arr[..ids.len()].copy_from_slice(ids);
                DynSet {
                    repr: Repr::Ids {
                        len: ids.len() as u8,
                        ids: arr,
                    },
                }
            }
            _ => {
                let mut w = [0u64; INLINE_WORDS];
                for &i in ids {
                    w[i as usize / 64] |= 1 << (i % 64);
                }
                DynSet {
                    repr: Repr::Bits(w),
                }
            }
        }
    }

    /// The elements of a bitmap holding at most [`INLINE_IDS`] bits, as a
    /// sorted id array and its length.
    fn bit_ids(words: &[u64]) -> ([u32; INLINE_IDS], usize) {
        let mut ids = [0u32; INLINE_IDS];
        let mut n = 0;
        for (wi, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                ids[n] = (wi * 64) as u32 + w.trailing_zeros();
                n += 1;
                w &= w - 1;
            }
        }
        (ids, n)
    }

    /// A heap set of `ids` sized for `hi`, its largest element.
    fn heap_of(ids: impl Iterator<Item = usize>, hi: usize) -> Self {
        let mut words = vec![0u64; hi / 64 + 1];
        let mut len = 0;
        for i in ids {
            len += (words[i / 64] & (1 << (i % 64)) == 0) as usize;
            words[i / 64] |= 1 << (i % 64);
        }
        DynSet {
            repr: Repr::Heap { words, len },
        }
    }

    /// Restore a heap set's invariants after elements left it: trim its
    /// words, and move it back inline if it now fits there.
    fn settle(&mut self) {
        if let Repr::Heap { words, len } = &mut self.repr {
            while words.last() == Some(&0) {
                words.pop();
            }
            if *len <= INLINE_IDS || words.len() <= INLINE_WORDS {
                *self = Self::from_words(words);
            }
        }
    }

    /// The bitmap words of a non-`Ids` set.
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.repr {
            Repr::Bits(w) => w,
            Repr::Heap { words, .. } => words,
            Repr::Ids { .. } => unreachable!("an id-array set has no bitmap"),
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Bits(w) => w.iter().map(|w| w.count_ones() as usize).sum(),
            Repr::Ids { len, .. } => *len as usize,
            Repr::Heap { len, .. } => *len,
        }
    }

    /// True if the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Bits(w) => w.iter().all(|&w| w == 0),
            Repr::Ids { .. } | Repr::Heap { .. } => false,
        }
    }

    /// Add element `i`. Returns true if it was newly inserted.
    ///
    /// # Panics
    /// If `i` does not fit in a `u32`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        if let Repr::Bits(w) = &mut self.repr {
            if i < INLINE_BITS {
                let newly = w[i / 64] & (1 << (i % 64)) == 0;
                w[i / 64] |= 1 << (i % 64);
                return newly;
            }
        }
        self.insert_slow(i)
    }

    /// [`DynSet::insert`] off the bitmap's fast path, kept out of line so
    /// the fast path inlines small.
    #[inline(never)]
    fn insert_slow(&mut self, i: usize) -> bool {
        let Ok(id) = u32::try_from(i) else {
            panic!("DynSet element {i} does not fit in u32");
        };
        match &mut self.repr {
            Repr::Bits(w) => {
                let count = w.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                *self = if count < INLINE_IDS {
                    let (mut ids, n) = Self::bit_ids(w);
                    ids[n] = id;
                    Self::from_sorted_ids(&ids[..=n])
                } else {
                    let old = *w;
                    let mut heap = Self::heap_of(std::iter::once(i), i);
                    if let Repr::Heap { words, len } = &mut heap.repr {
                        words[..INLINE_WORDS].copy_from_slice(&old);
                        *len += count;
                    }
                    heap
                };
                true
            }
            Repr::Ids { len, ids } => {
                let n = *len as usize;
                let pos = match ids[..n].binary_search(&id) {
                    Ok(_) => return false,
                    Err(pos) if n < INLINE_IDS => pos,
                    Err(_) => {
                        let hi = i.max(ids[n - 1] as usize);
                        let all = ids[..n].iter().map(|&x| x as usize).chain([i]);
                        *self = Self::heap_of(all, hi);
                        return true;
                    }
                };
                ids.copy_within(pos..n, pos + 1);
                ids[pos] = id;
                *len += 1;
                true
            }
            Repr::Heap { words, len } => {
                if i / 64 >= words.len() {
                    words.resize(i / 64 + 1, 0);
                }
                let newly = words[i / 64] & (1 << (i % 64)) == 0;
                words[i / 64] |= 1 << (i % 64);
                *len += newly as usize;
                newly
            }
        }
    }

    /// Remove element `i`. Returns true if it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if let Repr::Bits(w) = &mut self.repr {
            if i >= INLINE_BITS {
                return false;
            }
            let present = w[i / 64] & (1 << (i % 64)) != 0;
            w[i / 64] &= !(1 << (i % 64));
            return present;
        }
        self.remove_slow(i)
    }

    /// [`DynSet::remove`] off the bitmap.
    #[inline(never)]
    fn remove_slow(&mut self, i: usize) -> bool {
        match &mut self.repr {
            Repr::Bits(_) => unreachable!("bitmap removes take the fast path"),
            Repr::Ids { len, ids } => {
                let n = *len as usize;
                let Some(pos) = u32::try_from(i)
                    .ok()
                    .and_then(|x| ids[..n].binary_search(&x).ok())
                else {
                    return false;
                };
                ids.copy_within(pos + 1..n, pos);
                ids[n - 1] = 0;
                *len -= 1;
                if *len == 0 || (ids[*len as usize - 1] as usize) < INLINE_BITS {
                    *self = Self::from_sorted_ids(&ids[..*len as usize]);
                }
                true
            }
            Repr::Heap { words, len } => {
                if i / 64 >= words.len() || words[i / 64] & (1 << (i % 64)) == 0 {
                    return false;
                }
                words[i / 64] &= !(1 << (i % 64));
                *len -= 1;
                self.settle();
                true
            }
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        match &self.repr {
            Repr::Bits(w) => i < INLINE_BITS && w[i / 64] & (1 << (i % 64)) != 0,
            Repr::Ids { len, ids } => {
                u32::try_from(i).is_ok_and(|x| ids[..*len as usize].binary_search(&x).is_ok())
            }
            Repr::Heap { words, .. } => {
                i / 64 < words.len() && words[i / 64] & (1 << (i % 64)) != 0
            }
        }
    }

    /// Remove all elements (back to the inline empty set).
    #[inline]
    pub fn clear(&mut self) {
        *self = Self::EMPTY;
    }

    /// `self ∪ other`.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        if let (Repr::Bits(a), Repr::Bits(b)) = (&self.repr, &other.repr) {
            return DynSet {
                repr: Repr::Bits(std::array::from_fn(|k| a[k] | b[k])),
            };
        }
        self.union_slow(other)
    }

    /// [`DynSet::union`] unless both operands are bitmaps.
    #[inline(never)]
    fn union_slow(&self, other: &Self) -> Self {
        // Start from the heap operand, if any, so an inline one is folded
        // in element by element instead of promoting.
        let (big, small) = match (&self.repr, &other.repr) {
            (Repr::Heap { .. }, _) | (_, Repr::Bits(_) | Repr::Ids { .. }) => (self, other),
            _ => (other, self),
        };
        let mut out = big.clone();
        out.union_with(small);
        out
    }

    /// `self ∩ other`.
    #[inline]
    pub fn intersection(&self, other: &Self) -> Self {
        if let (Repr::Bits(a), Repr::Bits(b)) = (&self.repr, &other.repr) {
            return DynSet {
                repr: Repr::Bits(std::array::from_fn(|k| a[k] & b[k])),
            };
        }
        self.intersection_slow(other)
    }

    /// [`DynSet::intersection`] unless both operands are bitmaps.
    #[inline(never)]
    fn intersection_slow(&self, other: &Self) -> Self {
        match (&self.repr, &other.repr) {
            (Repr::Ids { len, ids }, _) => {
                Self::filter_ids(&ids[..*len as usize], |i| other.contains(i))
            }
            (_, Repr::Ids { len, ids }) => {
                Self::filter_ids(&ids[..*len as usize], |i| self.contains(i))
            }
            _ => {
                let words: Vec<u64> = self
                    .words()
                    .iter()
                    .zip(other.words())
                    .map(|(x, y)| x & y)
                    .collect();
                Self::from_words(&words)
            }
        }
    }

    /// The inline set of the sorted `ids` that satisfy `keep`.
    fn filter_ids(ids: &[u32], keep: impl Fn(usize) -> bool) -> Self {
        let mut out = [0u32; INLINE_IDS];
        let mut n = 0;
        for &i in ids {
            if keep(i as usize) {
                out[n] = i;
                n += 1;
            }
        }
        Self::from_sorted_ids(&out[..n])
    }

    /// `self \ other`.
    #[inline]
    pub fn difference(&self, other: &Self) -> Self {
        if let (Repr::Bits(a), Repr::Bits(b)) = (&self.repr, &other.repr) {
            return DynSet {
                repr: Repr::Bits(std::array::from_fn(|k| a[k] & !b[k])),
            };
        }
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &Self) {
        if let (Repr::Bits(a), Repr::Bits(b)) = (&mut self.repr, &other.repr) {
            for (x, y) in a.iter_mut().zip(b) {
                *x |= y;
            }
            return;
        }
        self.union_with_slow(other);
    }

    /// [`DynSet::union_with`] unless both operands are bitmaps.
    #[inline(never)]
    fn union_with_slow(&mut self, other: &Self) {
        match (&mut self.repr, &other.repr) {
            (Repr::Heap { words, len }, Repr::Bits(_) | Repr::Heap { .. }) => {
                let ow = other.words();
                if ow.len() > words.len() {
                    words.resize(ow.len(), 0);
                }
                for (x, y) in words.iter_mut().zip(ow) {
                    *len += (y & !*x).count_ones() as usize;
                    *x |= y;
                }
            }
            (_, Repr::Heap { .. }) => {
                let small = std::mem::replace(self, other.clone());
                self.union_with(&small);
            }
            (
                Repr::Ids { len, ids },
                Repr::Ids {
                    len: olen,
                    ids: oids,
                },
            ) => {
                let (mut a, mut b) = (&ids[..*len as usize], &oids[..*olen as usize]);
                let mut out = [0u32; 2 * INLINE_IDS];
                let mut n = 0;
                while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
                    out[n] = x.min(y);
                    n += 1;
                    a = if x <= y { &a[1..] } else { a };
                    b = if y <= x { &b[1..] } else { b };
                }
                for &x in a.iter().chain(b) {
                    out[n] = x;
                    n += 1;
                }
                *self = if n <= INLINE_IDS {
                    Self::from_sorted_ids(&out[..n])
                } else {
                    Self::heap_of(out[..n].iter().map(|&x| x as usize), out[n - 1] as usize)
                };
            }
            _ => {
                for i in other.iter() {
                    self.insert(i);
                }
            }
        }
    }

    /// In-place difference.
    #[inline]
    pub fn difference_with(&mut self, other: &Self) {
        if let (Repr::Bits(a), Repr::Bits(b)) = (&mut self.repr, &other.repr) {
            for (x, y) in a.iter_mut().zip(b) {
                *x &= !y;
            }
            return;
        }
        self.difference_with_slow(other);
    }

    /// [`DynSet::difference_with`] unless both operands are bitmaps.
    #[inline(never)]
    fn difference_with_slow(&mut self, other: &Self) {
        match (&mut self.repr, &other.repr) {
            (Repr::Bits(a), Repr::Bits(_) | Repr::Heap { .. }) => {
                for (x, y) in a.iter_mut().zip(other.words()) {
                    *x &= !y;
                }
            }
            (Repr::Ids { len, ids }, _) => {
                *self = Self::filter_ids(&ids[..*len as usize], |i| !other.contains(i));
            }
            (Repr::Heap { words, len }, Repr::Bits(_) | Repr::Heap { .. }) => {
                for (x, y) in words.iter_mut().zip(other.words()) {
                    *len -= (*x & y).count_ones() as usize;
                    *x &= !y;
                }
                self.settle();
            }
            (_, Repr::Ids { .. }) => {
                for i in other.iter() {
                    self.remove(i);
                }
            }
        }
    }

    /// True if every element of `self` is in `other` (`self ⊆ other`).
    #[inline]
    pub fn is_subset(&self, other: &Self) -> bool {
        if let (Repr::Bits(a), Repr::Bits(b)) = (&self.repr, &other.repr) {
            return a.iter().zip(b).all(|(x, y)| x & !y == 0);
        }
        self.is_subset_slow(other)
    }

    /// [`DynSet::is_subset`] unless both operands are bitmaps.
    #[inline(never)]
    fn is_subset_slow(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Ids { .. }, _) | (_, Repr::Ids { .. }) => {
                self.len() <= other.len() && self.iter().all(|i| other.contains(i))
            }
            _ => {
                let ow = other.words();
                self.words()
                    .iter()
                    .enumerate()
                    .all(|(wi, a)| a & !ow.get(wi).copied().unwrap_or(0) == 0)
            }
        }
    }

    /// True if the sets share no element.
    #[inline]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        if let (Repr::Bits(a), Repr::Bits(b)) = (&self.repr, &other.repr) {
            return a.iter().zip(b).all(|(x, y)| x & y == 0);
        }
        self.is_disjoint_slow(other)
    }

    /// [`DynSet::is_disjoint`] unless both operands are bitmaps.
    #[inline(never)]
    fn is_disjoint_slow(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Ids { len, ids }, _) => ids[..*len as usize]
                .iter()
                .all(|&i| !other.contains(i as usize)),
            (_, Repr::Ids { len, ids }) => ids[..*len as usize]
                .iter()
                .all(|&i| !self.contains(i as usize)),
            _ => self
                .words()
                .iter()
                .zip(other.words())
                .all(|(a, b)| a & b == 0),
        }
    }

    /// Smallest element, if any.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        if let Repr::Ids { ids, .. } = &self.repr {
            return Some(ids[0] as usize);
        }
        for (wi, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Largest element, if any.
    #[inline]
    pub fn last(&self) -> Option<usize> {
        if let Repr::Ids { len, ids } = &self.repr {
            return Some(ids[*len as usize - 1] as usize);
        }
        for (wi, &w) in self.words().iter().enumerate().rev() {
            if w != 0 {
                return Some(wi * 64 + 63 - w.leading_zeros() as usize);
            }
        }
        None
    }

    /// Iterate over elements in increasing order.
    ///
    /// The iterator owns a copy of the set (inline sets copy their 40
    /// bytes; heap sets clone the word vector), so call sites may mutate
    /// the set or unrelated fields of its owner mid-loop — the pattern
    /// the protocol handlers rely on.
    #[inline]
    pub fn iter(&self) -> SetIter {
        let src = match &self.repr {
            Repr::Bits(w) => Src::Bits(*w),
            Repr::Ids { len, ids } => Src::Ids(*len, *ids),
            Repr::Heap { words, .. } => Src::Heap(words.clone()),
        };
        SetIter { src, pos: 0 }
    }

    /// Collect into a `Vec<usize>` (convenience for tests and display).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// The elements, sorted, when the set is held as the inline id array:
    /// at most [`DynSet::MAX_INLINE_IDS`] elements, one of them ≥ 256.
    /// `None` otherwise.  A function of the elements, so the wire codec
    /// picks its element-list form from it.
    pub fn inline_ids(&self) -> Option<&[u32]> {
        match &self.repr {
            Repr::Ids { len, ids } => Some(&ids[..*len as usize]),
            _ => None,
        }
    }

    /// The canonical word representation with trailing zero words trimmed
    /// (little-endian word order: word 0 holds elements `0..64`).  Used by
    /// the length-prefixed wire codecs; every word slice is a valid set, so
    /// [`DynSet::from_words`] is total.
    pub fn to_words(&self) -> Vec<u64> {
        if let Repr::Ids { len, ids } = &self.repr {
            let ids = &ids[..*len as usize];
            let mut words = vec![0u64; ids[ids.len() - 1] as usize / 64 + 1];
            for &i in ids {
                words[i as usize / 64] |= 1 << (i % 64);
            }
            return words;
        }
        let words = self.words();
        let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        words[..used].to_vec()
    }

    /// Rebuild a set from a word representation of any length.
    pub fn from_words(words: &[u64]) -> Self {
        let used = words.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        let words = &words[..used];
        let len: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if used <= INLINE_WORDS {
            let mut w = [0u64; INLINE_WORDS];
            w[..used].copy_from_slice(words);
            DynSet {
                repr: Repr::Bits(w),
            }
        } else if len <= INLINE_IDS {
            let (ids, n) = Self::bit_ids(words);
            Self::from_sorted_ids(&ids[..n])
        } else {
            DynSet {
                repr: Repr::Heap {
                    words: words.to_vec(),
                    len,
                },
            }
        }
    }

    /// [`Clone::clone`] of a heap set, out of line so the inline arms of
    /// `clone` stay small enough to inline.
    #[inline(never)]
    fn clone_heap(words: &[u64], len: usize) -> Self {
        DynSet {
            repr: Repr::Heap {
                words: words.to_vec(),
                len,
            },
        }
    }

    /// True if the set holds no heap storage (the bitmap or the id array;
    /// diagnostics and tests).
    pub fn is_inline(&self) -> bool {
        !matches!(self.repr, Repr::Heap { .. })
    }
}

impl Clone for DynSet {
    #[inline]
    fn clone(&self) -> Self {
        match &self.repr {
            Repr::Bits(w) => DynSet {
                repr: Repr::Bits(*w),
            },
            Repr::Ids { len, ids } => DynSet {
                repr: Repr::Ids {
                    len: *len,
                    ids: *ids,
                },
            },
            Repr::Heap { words, len } => Self::clone_heap(words, *len),
        }
    }
}

impl Default for DynSet {
    #[inline]
    fn default() -> Self {
        Self::EMPTY
    }
}

impl FromIterator<usize> for DynSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = Self::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl IntoIterator for &DynSet {
    type Item = usize;
    type IntoIter = SetIter;
    fn into_iter(self) -> SetIter {
        self.iter()
    }
}

impl fmt::Debug for DynSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The iterator's own copy of the set.
enum Src {
    Bits([u64; INLINE_WORDS]),
    Ids(u8, [u32; INLINE_IDS]),
    Heap(Vec<u64>),
}

/// Iterator over the elements of a [`DynSet`] in increasing order.
///
/// Owns its copy of the set (clearing bits as they are yielded), so it
/// needs no lifetime — protocol loops iterate a set while mutating their
/// owner.
pub struct SetIter {
    src: Src,
    /// Current word of a bitmap, or next index of an id array.
    pos: usize,
}

/// Yield and clear the lowest set bit at or after word `*wi`.
#[inline]
fn next_bit(words: &mut [u64], wi: &mut usize) -> Option<usize> {
    while *wi < words.len() {
        let w = words[*wi];
        if w != 0 {
            words[*wi] = w & (w - 1);
            return Some(*wi * 64 + w.trailing_zeros() as usize);
        }
        *wi += 1;
    }
    None
}

impl Iterator for SetIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match &mut self.src {
            Src::Bits(w) => next_bit(w, &mut self.pos),
            Src::Ids(len, ids) => {
                if self.pos >= *len as usize {
                    return None;
                }
                self.pos += 1;
                Some(ids[self.pos - 1] as usize)
            }
            Src::Heap(v) => next_bit(v, &mut self.pos),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let words: &[u64] = match &self.src {
            Src::Bits(w) => w,
            Src::Heap(v) => v,
            Src::Ids(len, _) => {
                let n = *len as usize - self.pos.min(*len as usize);
                return (n, Some(n));
            }
        };
        let n: usize = words[self.pos.min(words.len())..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl ExactSizeIterator for SetIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::hash::{Hash, Hasher};

    /// Pinned so paper-scale messages and per-node state do not grow: the
    /// id array must fit in the bitmap's footprint.
    #[test]
    fn dynset_stays_forty_bytes() {
        assert_eq!(std::mem::size_of::<DynSet>(), 40);
    }

    #[test]
    fn insert_remove_contains_small() {
        let mut s = DynSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 1);
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
        assert!(s.is_inline());
    }

    #[test]
    fn large_ids_stay_inline_up_to_the_array_capacity() {
        let mut s = DynSet::new();
        s.insert(255);
        s.insert(256);
        assert!(s.is_inline());
        assert!(s.contains(255) && s.contains(256));
        assert_eq!(s.to_vec(), vec![255, 256]);
        s.insert(99_999);
        assert!(s.contains(99_999));
        assert_eq!(s.len(), 3);
        for i in 0..INLINE_IDS - 3 {
            s.insert(50_000 + i);
        }
        assert!(s.is_inline());
        assert_eq!(s.len(), INLINE_IDS);
        // The tenth element promotes to the heap bitmap.
        s.insert(7);
        assert!(!s.is_inline());
        assert_eq!(s.len(), INLINE_IDS + 1);
        assert_eq!(s.first(), Some(7));
        assert_eq!(s.last(), Some(99_999));
        // Back to nine elements moves inline again.
        s.remove(7);
        assert!(s.is_inline());
        assert_eq!(s.len(), INLINE_IDS);
        for i in 0..INLINE_IDS - 3 {
            s.remove(50_000 + i);
        }
        assert_eq!(s.to_vec(), vec![255, 256, 99_999]);
        // Dropping the last id ≥ 256 lands in the bitmap.
        s.remove(99_999);
        s.remove(256);
        assert_eq!(s.to_vec(), vec![255]);
        assert_eq!(s.last(), Some(255));
    }

    #[test]
    fn a_full_bitmap_promotes_straight_to_the_heap() {
        let mut s = DynSet::full(256);
        s.insert(300);
        assert!(!s.is_inline());
        assert_eq!(s.len(), 257);
        assert!(s.iter().eq((0..256).chain([300])));
        // Losing its only id ≥ 256 moves it back to the bitmap.
        s.remove(300);
        assert!(s.is_inline());
        assert_eq!(s, DynSet::full(256));
    }

    #[test]
    #[should_panic(expected = "does not fit in u32")]
    fn elements_past_u32_are_refused() {
        DynSet::new().insert(u32::MAX as usize + 1);
    }

    #[test]
    fn eq_and_hash_ignore_representation() {
        let mut a = DynSet::singleton(3);
        a.insert(300);
        // The same elements by way of the heap: twelve, then shrunk.
        let mut b: DynSet = (1_000..1_010).collect();
        b.insert(3);
        b.insert(300);
        assert!(!b.is_inline());
        b.difference_with(&(1_000..1_010).collect());
        assert!(b.is_inline());
        assert_eq!(a, b);
        let h = |s: &DynSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&a), h(&b));
        a.insert(4);
        assert_ne!(a, b);
    }

    #[test]
    fn full_of_any_size() {
        for n in [0usize, 1, 63, 64, 80, 256, 257, 1000] {
            let s = DynSet::full(n);
            assert_eq!(s.len(), n, "full({n})");
            assert!(s.iter().eq(0..n));
        }
    }

    #[test]
    fn set_algebra_across_the_boundary() {
        let a: DynSet = [1usize, 2, 300].into_iter().collect();
        let b: DynSet = [2usize, 4].into_iter().collect();
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 4, 300]);
        assert_eq!(b.union(&a).to_vec(), vec![1, 2, 4, 300]);
        assert_eq!(a.intersection(&b).to_vec(), vec![2]);
        assert_eq!(b.intersection(&a).to_vec(), vec![2]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 300]);
        assert_eq!(b.difference(&a).to_vec(), vec![4]);
        assert!(!a.is_disjoint(&b));
        assert!(a.difference(&b).is_disjoint(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(b.is_subset(&a.union(&b)));
        assert!(DynSet::EMPTY.is_subset(&a));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
        let mut c = b.clone();
        c.union_with(&a);
        assert_eq!(c, a.union(&b));
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d, a.difference(&b));
    }

    #[test]
    fn first_last_and_clear() {
        let mut s: DynSet = [7usize, 500].into_iter().collect();
        assert_eq!(s.first(), Some(7));
        assert_eq!(s.last(), Some(500));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.first(), None);
        assert_eq!(s.last(), None);
        let mut h = DynSet::full(1000);
        h.clear();
        assert!(h.is_inline());
        assert_eq!(h, DynSet::EMPTY);
    }

    #[test]
    fn words_roundtrip_trims() {
        let s: DynSet = [0usize, 63, 64, 200, 255, 700].into_iter().collect();
        assert_eq!(DynSet::from_words(&s.to_words()), s);
        assert_eq!(DynSet::from_words(&[]), DynSet::EMPTY);
        assert_eq!(DynSet::from_words(&[0, 0, 0]), DynSet::EMPTY);
        let small: DynSet = [3usize].into_iter().collect();
        assert_eq!(small.to_words(), vec![8u64]);
        // from_words of a padded slice lands inline when it fits.
        assert!(DynSet::from_words(&[8, 0, 0, 0, 0, 0]).is_inline());
        assert!(DynSet::from_words(&[8, 0, 0, 0, 0, 1]).is_inline());
        assert!(!DynSet::from_words(&[u64::MAX, 0, 0, 0, 0, 1]).is_inline());
    }

    #[test]
    fn inline_ids_follow_the_elements() {
        assert!(DynSet::full(200).inline_ids().is_none());
        assert!(DynSet::full(1000).inline_ids().is_none());
        let s: DynSet = [5usize, 99_999].into_iter().collect();
        assert_eq!(s.inline_ids(), Some(&[5u32, 99_999][..]));
        // Past nine elements nothing lists.
        assert!((300..310).collect::<DynSet>().inline_ids().is_none());
    }

    #[test]
    fn model_based_random_ops_large_universe() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut s = DynSet::new();
        let mut model: HashSet<usize> = HashSet::new();
        for _ in 0..4000 {
            let v = (next() % 1024) as usize;
            match next() % 3 {
                0 => assert_eq!(s.insert(v), model.insert(v)),
                1 => assert_eq!(s.remove(v), model.remove(&v)),
                _ => assert_eq!(s.contains(v), model.contains(&v)),
            }
            assert_eq!(s.len(), model.len());
        }
        let mut got = s.to_vec();
        let mut want: Vec<usize> = model.into_iter().collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}

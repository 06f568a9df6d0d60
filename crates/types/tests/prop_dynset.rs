//! Model proptests: the dynamic `ResourceSet` ([`DynSet`]) behaves exactly
//! like a `BTreeSet<usize>`.  Random op sequences — insert, remove, union,
//! intersect, difference, iteration, words round-trip — run against the
//! model on the inline `0..256` universe (where the word image is checked
//! too) and on a big universe whose sequences cross the inline→heap
//! boundary and come back.  Sequences over ids near 100 000 grow and drain
//! sets across the inline id array's capacity in both directions, checking
//! the representation rule at every step.  Binary operations (`union`,
//! `intersection`, `difference`, `is_subset`, `is_disjoint`, `==`) are
//! checked on every pair of representations — inline bitmap, inline id
//! array, heap bitmap — alongside the set-algebra laws, and equal sets
//! built along different paths must hash alike.

use mra_types::DynSet;
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

#[derive(Clone, Debug)]
enum Op {
    Insert(usize),
    Remove(usize),
    UnionWith(Vec<usize>),
    DifferenceWith(Vec<usize>),
    IntersectWith(Vec<usize>),
    Clear,
    WordsRoundTrip,
}

fn op(universe: usize) -> impl Strategy<Value = Op> {
    let elems = || proptest::collection::vec(0..universe, 0..16);
    // The vendored proptest's `prop_oneof!` is unweighted; repeating the
    // insert/remove arms biases sequences toward populated sets.
    prop_oneof![
        (0..universe).prop_map(Op::Insert),
        (0..universe).prop_map(Op::Insert),
        (0..universe).prop_map(Op::Insert),
        (0..universe).prop_map(Op::Remove),
        (0..universe).prop_map(Op::Remove),
        elems().prop_map(Op::UnionWith),
        elems().prop_map(Op::DifferenceWith),
        elems().prop_map(Op::IntersectWith),
        Just(Op::Clear),
        Just(Op::WordsRoundTrip),
    ]
}

fn ops(universe: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op(universe), 0..80)
}

/// Elements of a set that is either inline (all below 256) or on the heap
/// (elements up to 100k), so operand pairs cover every representation mix.
fn mixed_elems() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        proptest::collection::vec(0usize..256, 0..64),
        proptest::collection::vec(0usize..100_000, 0..64),
        // Mostly-inline with a few heap elements: overlaps an inline
        // operand while still forcing promotion.
        (
            proptest::collection::vec(0usize..256, 0..48),
            proptest::collection::vec(256usize..100_000, 1..4),
        )
            .prop_map(|(mut lo, hi)| {
                lo.extend(hi);
                lo
            }),
    ]
}

/// The word image of `model` over `nwords` 64-bit words (bit `e % 64` of
/// word `e / 64` set for each element `e`).
fn model_words(model: &BTreeSet<usize>, nwords: usize) -> Vec<u64> {
    let mut words = vec![0u64; nwords];
    for &e in model {
        words[e / 64] |= 1 << (e % 64);
    }
    words
}

fn sorted(model: &BTreeSet<usize>) -> Vec<usize> {
    model.iter().copied().collect()
}

/// Apply `o` to both the set and the model.  Before a binary op mutates
/// `d`, its non-mutating twins and the subset/disjoint predicates against
/// the same operand are checked too.
fn apply(d: &mut DynSet, model: &mut BTreeSet<usize>, o: &Op) -> Result<(), TestCaseError> {
    match o {
        Op::Insert(i) => prop_assert_eq!(d.insert(*i), model.insert(*i)),
        Op::Remove(i) => prop_assert_eq!(d.remove(*i), model.remove(i)),
        Op::UnionWith(es) | Op::DifferenceWith(es) | Op::IntersectWith(es) => {
            let od: DynSet = es.iter().copied().collect();
            let om: BTreeSet<usize> = es.iter().copied().collect();
            prop_assert_eq!(d.is_subset(&od), model.is_subset(&om));
            prop_assert_eq!(d.is_disjoint(&od), model.is_disjoint(&om));
            let union: BTreeSet<usize> = model.union(&om).copied().collect();
            let inter: BTreeSet<usize> = model.intersection(&om).copied().collect();
            let diff: BTreeSet<usize> = model.difference(&om).copied().collect();
            prop_assert_eq!(d.union(&od).to_vec(), sorted(&union));
            prop_assert_eq!(d.intersection(&od).to_vec(), sorted(&inter));
            prop_assert_eq!(d.difference(&od).to_vec(), sorted(&diff));
            match o {
                Op::UnionWith(_) => {
                    d.union_with(&od);
                    *model = union;
                }
                Op::DifferenceWith(_) => {
                    d.difference_with(&od);
                    *model = diff;
                }
                _ => {
                    *d = d.intersection(&od);
                    *model = inter;
                }
            }
        }
        Op::Clear => {
            d.clear();
            model.clear();
        }
        Op::WordsRoundTrip => *d = DynSet::from_words(&d.to_words()),
    }
    prop_assert_eq!(d.len(), model.len());
    prop_assert_eq!(d.first(), model.first().copied());
    prop_assert_eq!(d.last(), model.last().copied());
    prop_assert_eq!(d.is_empty(), model.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On the inline 256-element universe every op sequence leaves the set
    /// and the model in agreement (contains, len, first, last, iter), and
    /// the set's words equal the model's four-word image up to
    /// trailing-zero trimming.
    #[test]
    fn dynset_matches_btreeset_on_the_inline_universe(ops in ops(256)) {
        let mut d = DynSet::new();
        let mut model = BTreeSet::new();
        for o in &ops {
            apply(&mut d, &mut model, o)?;
        }
        prop_assert_eq!(d.to_vec(), sorted(&model));
        for e in 0..256 {
            prop_assert_eq!(d.contains(e), model.contains(&e));
        }
        // Words agree up to trailing-zero trimming.
        let dw = d.to_words();
        let rw = model_words(&model, 4);
        prop_assert!(dw.len() <= rw.len());
        prop_assert_eq!(&dw[..], &rw[..dw.len()]);
        prop_assert!(rw[dw.len()..].iter().all(|&w| w == 0));
    }

    /// On a big universe sequences freely cross the inline→heap boundary
    /// (universe 1024 ≫ 256).
    #[test]
    fn dynset_matches_btreeset_big_universe(ops in ops(1024)) {
        let mut d = DynSet::new();
        let mut model = BTreeSet::new();
        for o in &ops {
            apply(&mut d, &mut model, o)?;
        }
        prop_assert_eq!(d.to_vec(), sorted(&model));
    }

    /// Collecting an element list gives the model's set, on either
    /// representation.
    #[test]
    fn from_iter_matches_btreeset(elems in mixed_elems()) {
        let s: DynSet = elems.iter().copied().collect();
        let model: BTreeSet<usize> = elems.iter().copied().collect();
        prop_assert_eq!(s.len(), model.len());
        for e in (0..256).chain(elems.iter().copied()) {
            prop_assert_eq!(s.contains(e), model.contains(&e));
        }
        prop_assert_eq!(s.to_vec(), sorted(&model));
        prop_assert_eq!(s.first(), elems.iter().copied().min());
        prop_assert_eq!(s.last(), elems.iter().copied().max());
    }

    /// Binary operations on inline/heap operand pairs agree with the model,
    /// and the set-algebra laws hold.
    #[test]
    fn binary_ops_and_laws_on_mixed_representations(a in mixed_elems(), b in mixed_elems()) {
        let sa: DynSet = a.iter().copied().collect();
        let sb: DynSet = b.iter().copied().collect();
        let ma: BTreeSet<usize> = a.iter().copied().collect();
        let mb: BTreeSet<usize> = b.iter().copied().collect();

        prop_assert_eq!(sa.union(&sb).to_vec(), ma.union(&mb).copied().collect::<Vec<_>>());
        prop_assert_eq!(
            sa.intersection(&sb).to_vec(),
            ma.intersection(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(
            sa.difference(&sb).to_vec(),
            ma.difference(&mb).copied().collect::<Vec<_>>()
        );
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sb.is_subset(&sa), mb.is_subset(&ma));
        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));

        // (a ∪ b) \ b ⊆ a, and a ∩ b ⊆ a ⊆ a ∪ b.
        prop_assert!(sa.union(&sb).difference(&sb).is_subset(&sa));
        prop_assert!(sa.intersection(&sb).is_subset(&sa));
        prop_assert!(sa.is_subset(&sa.union(&sb)));
        prop_assert_eq!(sa.is_disjoint(&sb), sa.intersection(&sb).is_empty());
        // Subset is reflexive and antisymmetric.
        prop_assert!(sa.is_subset(&sa));
        if sa.is_subset(&sb) && sb.is_subset(&sa) {
            prop_assert_eq!(&sa, &sb);
        }
        // A part of `a` is a subset of `a` and, unless empty, meets
        // a ∪ b — whichever side is on the heap.
        let sub: DynSet = a.iter().copied().take(a.len() / 2).collect();
        prop_assert!(sub.is_subset(&sa));
        prop_assert!(sub.is_empty() || !sub.is_disjoint(&sa.union(&sb)));
    }

    /// Inserting then removing a fresh element restores the set.
    #[test]
    fn insert_remove_roundtrip(elems in mixed_elems(), v in 0usize..100_000) {
        let mut s: DynSet = elems.iter().copied().collect();
        let before = s.contains(v);
        s.insert(v);
        prop_assert!(s.contains(v));
        s.remove(v);
        prop_assert!(!s.contains(v));
        if before {
            s.insert(v);
        }
        let back: DynSet = elems.iter().copied().collect();
        prop_assert_eq!(s, back);
    }

    /// Equality and hashing are representation-independent: a set pushed
    /// through the heap and shrunk back equals its inline twin.
    #[test]
    fn eq_hash_survive_boundary_crossing(elems in proptest::collection::vec(near_100k(), 0..32)) {
        let inline: DynSet = elems.iter().copied().collect();
        let mut heap: DynSet = elems.iter().copied().collect();
        heap.union_with(&padding());
        prop_assert!(!heap.is_inline());
        heap.difference_with(&padding());
        prop_assert_eq!(&inline, &heap);
        prop_assert_eq!(hash_of(&inline), hash_of(&heap));
        prop_assert_eq!(inline.to_words(), heap.to_words());
        prop_assert!(heap.is_subset(&inline) && inline.is_subset(&heap));
    }

    /// Sets grown one id at a time, then drained one id at a time, cross
    /// the id array's capacity upward and downward; the
    /// set matches the model and obeys the representation rule at every
    /// step, before and after random ops in between.
    #[test]
    fn threshold_crossings_near_100k_match_the_model(
        grow in proptest::collection::vec(near_100k(), 0..30),
        mid in proptest::collection::vec(op_near_100k(), 0..40),
    ) {
        let mut d = DynSet::new();
        let mut model = BTreeSet::new();
        for &i in &grow {
            apply(&mut d, &mut model, &Op::Insert(i))?;
            check_against_model(&d, &model)?;
        }
        for o in &mid {
            apply(&mut d, &mut model, o)?;
            check_against_model(&d, &model)?;
        }
        while let Some(&i) = model.iter().nth(model.len() / 2) {
            apply(&mut d, &mut model, &Op::Remove(i))?;
            check_against_model(&d, &model)?;
        }
        prop_assert!(d.is_inline() && d.is_empty());
    }

    /// Binary operations on every pair of representations agree with the
    /// model, and their results obey the representation rule.
    #[test]
    fn binary_ops_on_every_representation_pair(a in shaped(), b in shaped()) {
        let (sa, sb) = (build(&a)?, build(&b)?);
        let ma: BTreeSet<usize> = a.1.iter().copied().collect();
        let mb: BTreeSet<usize> = b.1.iter().copied().collect();
        let results = [
            (sa.union(&sb), ma.union(&mb).copied().collect::<BTreeSet<_>>()),
            (sa.intersection(&sb), ma.intersection(&mb).copied().collect()),
            (sb.intersection(&sa), ma.intersection(&mb).copied().collect()),
            (sa.difference(&sb), ma.difference(&mb).copied().collect()),
            (sb.difference(&sa), mb.difference(&ma).copied().collect()),
            (with(&sa, |u| u.union_with(&sb)), ma.union(&mb).copied().collect()),
            (with(&sa, |d| d.difference_with(&sb)), ma.difference(&mb).copied().collect()),
        ];
        for (set, model) in &results {
            check_against_model(set, model)?;
        }
        prop_assert_eq!(sa.is_subset(&sb), ma.is_subset(&mb));
        prop_assert_eq!(sb.is_subset(&sa), mb.is_subset(&ma));
        prop_assert_eq!(sa.is_disjoint(&sb), ma.is_disjoint(&mb));
        prop_assert_eq!(sb.is_disjoint(&sa), ma.is_disjoint(&mb));
        prop_assert_eq!(sa == sb, ma == mb);
        // The same elements built along other paths — in reverse order,
        // or pushed through the heap and shrunk back — compare and hash
        // equal to the original.
        for other in [a.1.clone(), a.1.iter().rev().copied().collect()] {
            let plain: DynSet = other.into_iter().collect();
            let mut detour = plain.union(&padding());
            detour.difference_with(&padding());
            for twin in [plain, detour] {
                prop_assert_eq!(&twin, &sa);
                prop_assert_eq!(hash_of(&twin), hash_of(&sa));
            }
        }
    }

    /// `to_words` is the model's word image on every representation, and
    /// `from_words` of it (padded with zero words or not) is the same set.
    #[test]
    fn words_roundtrip_on_every_representation(a in shaped(), pad in 0usize..4) {
        let s = build(&a)?;
        let model: BTreeSet<usize> = a.1.iter().copied().collect();
        let nwords = model.last().map_or(0, |&hi| hi / 64 + 1);
        let words = s.to_words();
        prop_assert_eq!(&words, &model_words(&model, nwords));
        let mut padded = words.clone();
        padded.resize(words.len() + pad, 0);
        let back = DynSet::from_words(&padded);
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.to_words(), words);
        check_against_model(&back, &model)?;
    }
}

/// An id below 256 or near 100 000, so sets mix the bitmap's range with
/// ids that force the other representations, and operands overlap.
fn near_100k() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..256, 99_900usize..100_000]
}

fn op_near_100k() -> impl Strategy<Value = Op> {
    let elems = || proptest::collection::vec(near_100k(), 0..12);
    prop_oneof![
        near_100k().prop_map(Op::Insert),
        near_100k().prop_map(Op::Insert),
        near_100k().prop_map(Op::Remove),
        near_100k().prop_map(Op::Remove),
        elems().prop_map(Op::UnionWith),
        elems().prop_map(Op::DifferenceWith),
        elems().prop_map(Op::IntersectWith),
        Just(Op::Clear),
        Just(Op::WordsRoundTrip),
    ]
}

/// Ids past every test universe, to push a set onto the heap and back.
fn padding() -> DynSet {
    (200_000..200_010).collect()
}

/// The representation a test set is built in.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Elements all below 256: the inline bitmap.
    Bitmap,
    /// At most nine elements, one ≥ 256: the inline id array.
    Ids,
    /// Ten or more elements, one ≥ 256: the heap bitmap.
    Heap,
}

fn shaped() -> impl Strategy<Value = (Shape, Vec<usize>)> {
    let lo = |n| proptest::collection::vec(0usize..256, n);
    let hi = |n| proptest::collection::vec(99_900usize..100_000, n);
    prop_oneof![
        lo(0..40).prop_map(|e| (Shape::Bitmap, e)),
        (lo(0..5), hi(1..5)).prop_map(|(mut l, h)| {
            l.extend(h);
            (Shape::Ids, l)
        }),
        (lo(0..30), hi(10..40)).prop_map(|(mut l, h)| {
            l.extend(h);
            (Shape::Heap, l)
        }),
    ]
}

/// Build `elems`, checking the set landed in `shape`.  (Duplicates can
/// leave too few distinct elements for the heap; such a set stays
/// inline.)
fn build((shape, elems): &(Shape, Vec<usize>)) -> Result<DynSet, TestCaseError> {
    let s: DynSet = elems.iter().copied().collect();
    let large = s.last().is_some_and(|hi| hi >= 256);
    match shape {
        Shape::Bitmap => prop_assert!(s.is_inline() && !large),
        Shape::Ids => prop_assert!(s.is_inline() && large),
        Shape::Heap => prop_assert_eq!(s.is_inline(), s.len() < 10),
    }
    Ok(s)
}

/// `s` after `op` on a copy of it.
fn with(s: &DynSet, op: impl FnOnce(&mut DynSet)) -> DynSet {
    let mut out = s.clone();
    op(&mut out);
    out
}

fn hash_of(s: &DynSet) -> u64 {
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Everything observable about `d` matches `model`, and `d` obeys the
/// representation rule: on the heap exactly when it holds ten or more
/// elements, one of them ≥ 256, and listed by `inline_ids` exactly when
/// it holds one to nine, one of them ≥ 256.
fn check_against_model(d: &DynSet, model: &BTreeSet<usize>) -> Result<(), TestCaseError> {
    prop_assert_eq!(d.to_vec(), sorted(model));
    prop_assert_eq!(d.len(), model.len());
    prop_assert_eq!(d.iter().len(), model.len());
    prop_assert_eq!(d.first(), model.first().copied());
    prop_assert_eq!(d.last(), model.last().copied());
    prop_assert_eq!(d.is_empty(), model.is_empty());
    for &e in model {
        prop_assert!(d.contains(e));
        prop_assert!(!d.contains(e + 100_000));
    }
    let large = model.last().is_some_and(|&hi| hi >= 256);
    let few = model.len() <= DynSet::MAX_INLINE_IDS;
    prop_assert_eq!(d.is_inline(), few || !large, "{} elements", model.len());
    let listed = d.inline_ids().map(|ids| ids.iter().map(|&i| i as usize).collect());
    prop_assert_eq!(listed, (few && large).then(|| sorted(model)));
    let rebuilt: DynSet = model.iter().copied().collect();
    prop_assert_eq!(&rebuilt, d);
    prop_assert_eq!(hash_of(&rebuilt), hash_of(d));
    prop_assert_eq!(DynSet::from_words(&d.to_words()), rebuilt);
    Ok(())
}

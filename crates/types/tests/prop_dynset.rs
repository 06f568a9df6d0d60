//! Model proptests: the dynamic `ResourceSet` ([`DynSet`]) behaves exactly
//! like a `BTreeSet<usize>`.  Random op sequences — insert, remove, union,
//! intersect, difference, iteration, words round-trip — run against the
//! model on the inline `0..256` universe (where the word image is checked
//! too) and on a big universe whose sequences cross the inline→heap
//! boundary and come back.  Binary operations (`union`, `intersection`,
//! `difference`, `is_subset`, `is_disjoint`) are also checked on operand
//! pairs that mix inline sets with heap sets holding elements up to 100k,
//! alongside the set-algebra laws.

use mra_types::DynSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

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
    /// across the heap boundary and shrunk back equals its inline twin.
    #[test]
    fn eq_hash_survive_boundary_crossing(elems in proptest::collection::vec(0usize..256, 0..32)) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let inline: DynSet = elems.iter().copied().collect();
        let mut heap: DynSet = elems.iter().copied().collect();
        heap.insert(100_000);
        heap.remove(100_000);
        prop_assert!(!heap.is_inline());
        prop_assert_eq!(&inline, &heap);
        let h = |s: &DynSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        prop_assert_eq!(h(&inline), h(&heap));
        prop_assert_eq!(inline.to_words(), heap.to_words());
        prop_assert!(heap.is_subset(&inline) && inline.is_subset(&heap));
    }
}

//! Allocation guard for small sets of large ids: set algebra on sets of at
//! most [`DynSet::MAX_INLINE_IDS`] ids near 100 000 — the request sets of a
//! 10k-node × 100k-resource run — performs **zero heap allocations**, on
//! its own and against a heap-held set such as a node's owned tokens.
//!
//! A counting global allocator tallies every allocating entry point on the
//! current thread only, so the libtest harness and the other tests of this
//! binary cannot pollute the measurement.

use mra_types::DynSet;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

/// Count every allocating entry point on the current thread; `try_with`
/// keeps the allocator infallible during TLS construction/teardown.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap allocations `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

fn ids(xs: &[usize]) -> DynSet {
    xs.iter().copied().collect()
}

#[test]
fn small_sets_of_large_ids_never_allocate() {
    let a = ids(&[3, 99_001, 99_500, 99_999]);
    let b = ids(&[99_500, 99_700]);
    assert!(a.is_inline() && b.is_inline());
    let full: Vec<usize> = (0..DynSet::MAX_INLINE_IDS).map(|i| 99_990 + i).collect();

    let n = allocations(|| {
        for _ in 0..1_000 {
            let mut c = black_box(&a).clone();
            c.insert(black_box(42_000));
            c.remove(black_box(3));
            let u = black_box(&a).union(black_box(&b));
            black_box(u.len());
            let mut d = u.clone();
            d.difference_with(black_box(&b));
            d.union_with(black_box(&b));
            black_box(a.intersection(&b));
            black_box(a.difference(&b));
            black_box(a.is_subset(&u));
            black_box(b.is_disjoint(&a));
            black_box(a.contains(99_999));
            black_box(a == d);
            black_box((a.first(), a.last()));
            let sum: usize = black_box(&u).iter().sum();
            black_box(sum);
            // Up to the array's capacity stays inline.
            let mut grow = DynSet::new();
            for &i in &full {
                grow.insert(i);
            }
            black_box(&grow);
        }
    });
    assert_eq!(
        n, 0,
        "{n} allocations in set algebra on small sets of large ids"
    );
}

/// The protocol's pattern: a request set checked and moved against a
/// heap-held token set, without touching the heap beyond the big set's
/// own storage.
#[test]
fn small_sets_against_a_heap_set_never_allocate() {
    let mut owned = DynSet::full(100_000);
    let req = DynSet::from_iter([17, 64_000, 99_999]);
    assert!(!owned.is_inline() && req.is_inline());

    let n = allocations(|| {
        for _ in 0..1_000 {
            black_box(req.is_subset(black_box(&owned)));
            black_box(req.is_disjoint(black_box(&owned)));
            black_box(req.intersection(black_box(&owned)));
            black_box(req.difference(black_box(&owned)));
            owned.difference_with(black_box(&req));
            black_box(req.is_subset(&owned));
            owned.union_with(black_box(&req));
        }
    });
    assert_eq!(n, 0, "{n} allocations between a small set and a heap set");
    assert_eq!(owned.len(), 100_000);
}

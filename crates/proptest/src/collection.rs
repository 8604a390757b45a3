//! Collection strategies: `vec` and `btree_set`.

use crate::strategy::Strategy;
use crate::TestRng;
use std::collections::BTreeSet;

/// An inclusive size band for generated collections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeRange {
    lo: usize,
    hi: usize,
}

impl SizeRange {
    fn pick(&self, rng: &mut TestRng) -> usize {
        self.lo + rng.below(self.hi - self.lo + 1)
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty size range");
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

/// `Vec<V>` with a length drawn from `size` and elements from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// `BTreeSet<V>` with a target size drawn from `size`. Element generation
/// retries on duplicates; if the element domain is too small to reach the
/// target, the set is returned at its achievable size (never below one
/// element when `size` starts at one or more and the domain is non-empty).
pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    BTreeSetStrategy { element, size: size.into() }
}

/// See [`btree_set`].
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for BTreeSetStrategy<S>
where
    S: Strategy,
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.pick(rng);
        let mut set = BTreeSet::new();
        let mut attempts = 0usize;
        while set.len() < target && attempts < 100 * (target + 1) {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }
}

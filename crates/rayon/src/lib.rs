//! Minimal, self-contained stand-in for the slice of the `rayon` API this
//! workspace uses: `par_iter().map(..).collect()`,
//! `par_iter().filter_map(..).collect()` and
//! `par_iter().enumerate().map(..).collect()`.
//!
//! Implementation: one scoped `std::thread` per worker, each claiming the
//! next unclaimed item from a shared atomic counter until none is left,
//! so a worker that drew cheap items takes more of them and one expensive
//! item does not hold up a whole chunk behind it (callers often order
//! their items largest first). Each output is stored at its item's index,
//! so results are **always in input order**, identical to the serial
//! path, regardless of scheduling. That determinism is a load-bearing
//! property for the campaign runner's serial-vs-parallel bit-identity
//! contract.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads: `WDT_THREADS` if set, else the machine's
/// available parallelism.
pub fn current_num_threads() -> usize {
    if let Ok(v) = std::env::var("WDT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Run `f(i)` for every `i` in `0..n` on a scoped thread pool and return
/// all outputs in index order. The building block behind the adapters:
/// workers claim indices one at a time from a shared counter, so every
/// index runs exactly once, on whichever worker is free.
fn indexed_map<O, F>(n: usize, threads: usize, f: F) -> Vec<Vec<O>>
where
    O: Send,
    F: Fn(usize) -> Vec<O> + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<Vec<O>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (f, next) = (&f, &next);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // Relaxed: the counter publishes no data; each
                        // worker's outputs come back through `join`.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, o) in h.join().expect("rayon-compat worker panicked") {
                out[i] = Some(o);
            }
        }
    });
    out.into_iter().map(|o| o.expect("every index claimed once")).collect()
}

/// A parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// `par_iter().map(f)` adapter.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// `par_iter().filter_map(f)` adapter.
pub struct ParFilterMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

/// `par_iter().enumerate()` adapter, yielding `(index, &item)` pairs.
pub struct ParEnumerate<'a, T> {
    items: &'a [T],
}

/// `par_iter().enumerate().map(f)` adapter.
pub struct ParEnumerateMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Transform every item; output order matches input order.
    pub fn map<O, F: Fn(&'a T) -> O + Sync>(self, f: F) -> ParMap<'a, T, F> {
        ParMap { items: self.items, f }
    }

    /// Transform and filter; surviving outputs keep input order.
    pub fn filter_map<O, F: Fn(&'a T) -> Option<O> + Sync>(self, f: F) -> ParFilterMap<'a, T, F> {
        ParFilterMap { items: self.items, f }
    }

    /// Pair every item with its input index, like
    /// `IndexedParallelIterator::enumerate`.
    pub fn enumerate(self) -> ParEnumerate<'a, T> {
        ParEnumerate { items: self.items }
    }
}

impl<'a, T: Sync> ParEnumerate<'a, T> {
    /// Transform every `(index, &item)` pair; output order matches input
    /// order.
    pub fn map<O, F: Fn((usize, &'a T)) -> O + Sync>(self, f: F) -> ParEnumerateMap<'a, T, F> {
        ParEnumerateMap { items: self.items, f }
    }
}

impl<'a, T: Sync, O: Send, F: Fn((usize, &'a T)) -> O + Sync> ParEnumerateMap<'a, T, F> {
    /// Execute across the thread pool and collect in input order.
    pub fn collect<C: FromIterator<O>>(self) -> C {
        let items = self.items;
        let f = self.f;
        indexed_map(items.len(), current_num_threads(), |i| vec![f((i, &items[i]))])
            .into_iter()
            .flatten()
            .collect()
    }
}

impl<'a, T: Sync, O: Send, F: Fn(&'a T) -> O + Sync> ParMap<'a, T, F> {
    /// Execute across the thread pool and collect in input order.
    pub fn collect<C: FromIterator<O>>(self) -> C {
        let items = self.items;
        let f = self.f;
        indexed_map(items.len(), current_num_threads(), |i| vec![f(&items[i])])
            .into_iter()
            .flatten()
            .collect()
    }
}

impl<'a, T: Sync, O: Send, F: Fn(&'a T) -> Option<O> + Sync> ParFilterMap<'a, T, F> {
    /// Execute across the thread pool and collect in input order.
    pub fn collect<C: FromIterator<O>>(self) -> C {
        let items = self.items;
        let f = self.f;
        indexed_map(items.len(), current_num_threads(), |i| f(&items[i]).into_iter().collect())
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Entry point: `.par_iter()` on slices and `Vec`s.
pub trait IntoParallelRefIterator<'a> {
    /// The item type yielded by reference.
    type Item: Sync + 'a;
    /// Start a parallel iteration borrowing the collection.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

pub mod prelude {
    //! Glob-import surface, mirroring `rayon::prelude`.
    pub use crate::IntoParallelRefIterator;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let xs: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = xs.par_iter().map(|&x| x * 3).collect();
        let want: Vec<u64> = xs.iter().map(|&x| x * 3).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn filter_map_preserves_order_and_filters() {
        let xs: Vec<u32> = (0..5_000).collect();
        let out: Vec<u32> =
            xs.par_iter().filter_map(|&x| if x % 3 == 0 { Some(x * 2) } else { None }).collect();
        let want: Vec<u32> =
            xs.iter().filter_map(|&x| if x % 3 == 0 { Some(x * 2) } else { None }).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn enumerate_map_yields_index_item_pairs_in_order() {
        let xs: Vec<u64> = (100..1_100).collect();
        let out: Vec<(usize, u64)> = xs.par_iter().enumerate().map(|(i, &x)| (i, x * 2)).collect();
        let want: Vec<(usize, u64)> = xs.iter().enumerate().map(|(i, &x)| (i, x * 2)).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let xs: Vec<u8> = vec![];
        let out: Vec<u8> = xs.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u8];
        let out: Vec<u8> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn claiming_runs_every_index_once_in_order_under_skewed_cost() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Duration;
        // Early items cost the most, as when callers sort work largest
        // first: contiguous chunks would leave the first worker with all
        // the slow ones.
        let n = 48;
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let out = super::indexed_map(n, 4, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            if i < 8 {
                std::thread::sleep(Duration::from_millis(20 - 2 * i as u64));
            }
            vec![i * 10, i * 10 + 1]
        });
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "an index ran twice or never");
        let want: Vec<Vec<usize>> = (0..n).map(|i| vec![i * 10, i * 10 + 1]).collect();
        assert_eq!(out, want);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        let xs: Vec<u32> = (0..64).collect();
        let _: Vec<u32> =
            xs.par_iter().map(|&x| if x == 63 { panic!("boom") } else { x }).collect();
    }
}

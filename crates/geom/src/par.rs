//! Minimal deterministic data parallelism.
//!
//! Hierarchical DRC checks each distinct cell independently, and that
//! per-cell loop is the one grain measured to pay for threads (about
//! 1.8× on a 2-core host); extraction runs serially. This workspace
//! carries no external dependencies, so instead of rayon we provide one
//! small scoped-thread map. It returns results **in input order**, so
//! callers merge deterministically — a hard requirement for
//! byte-identical violation reports.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global worker-count cap: 0 means "auto" (host parallelism). Settable
/// so determinism regression tests can pin the serial and threaded
/// paths against each other on any host.
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Caps the worker count for [`par_map`]. `0` restores the default (one
/// worker per available core). Parallel results are merged in input
/// order, so this must never change any result — the determinism
/// regression suite runs hierarchical DRC at 1 and N workers and diffs
/// the reports byte for byte.
pub fn set_max_workers(n: usize) {
    MAX_WORKERS.store(n, Ordering::SeqCst);
}

/// The current worker cap (0 = auto).
#[must_use]
pub fn max_workers() -> usize {
    MAX_WORKERS.load(Ordering::SeqCst)
}

/// Number of worker threads to use for `n` items.
fn workers_for(n: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cap = MAX_WORKERS.load(Ordering::SeqCst);
    let hw = if cap == 0 { hw } else { hw.min(cap) };
    hw.min(n)
}

/// Applies `f` to every item, in parallel, returning results in input
/// order. Scheduling is dynamic (an atomic work counter), so uneven item
/// costs balance well; determinism comes from writing each result into
/// its input slot.
///
/// Falls back to a serial loop for small inputs or single-core hosts.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with_workers(workers_for(items.len()), items, f)
}

/// [`par_map`] with an explicit worker count (also exercised by tests,
/// which must cover the threaded path even on single-core hosts).
fn par_map_with_workers<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<OnceLock<R>> = (0..items.len()).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let _ = slots[i].set(f(i, item));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<i64> = (0..257).collect();
        let out = par_map(&items, |i, &x| x * 2 + i as i64);
        let want: Vec<i64> = items.iter().enumerate().map(|(i, &x)| x * 2 + i as i64).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn threaded_path_matches_serial() {
        // Force real worker threads regardless of host core count.
        let items: Vec<i64> = (0..1023).collect();
        let serial = par_map_with_workers(1, &items, |i, &x| x * 3 - i as i64);
        for workers in [2, 4, 8] {
            let threaded = par_map_with_workers(workers, &items, |i, &x| x * 3 - i as i64);
            assert_eq!(threaded, serial, "{workers} workers");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map::<i64, i64, _>(&[], |_, &x| x), Vec::<i64>::new());
        assert_eq!(par_map(&[7i64], |_, &x| x + 1), vec![8]);
    }
}

//! A binned spatial index over rectangles.
//!
//! DRC and extraction repeatedly ask "which shapes are near this one?".
//! A uniform-bin index is ample for chip-sized rectangle sets and keeps
//! the implementation transparent.
//!
//! The index is the universal backbone of the flatten-once geometry
//! pipeline: build it once per layer ([`RectIndex::bulk_build`] picks a
//! bin size from the data), then run many queries. Hot loops should use
//! [`RectIndex::query_with`] with a reusable [`QueryScratch`] — a
//! stamped-deduplication path that performs no per-query allocation once
//! the scratch has warmed up.

use crate::Rect;

/// Reusable scratch state for [`RectIndex::query_with`].
///
/// Queries visit every bin the window covers; a rectangle spanning
/// several bins appears in each of them, so the query must deduplicate.
/// Instead of a per-query hash set, the scratch keeps one stamp per
/// stored slot and a monotonically increasing epoch: a slot is fresh for
/// this query iff its stamp differs from the current epoch. After warmup
/// (one allocation sized to the index), queries allocate nothing.
///
/// A single scratch may be reused across indexes of different sizes; it
/// grows to the largest index it has served.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// `stamp[slot] == epoch` iff the slot was already seen this query.
    stamp: Vec<u32>,
    /// Current query epoch; bumped by every `begin`.
    epoch: u32,
    /// Slots collected this query, sorted before yielding.
    slots: Vec<u32>,
}

impl QueryScratch {
    /// Creates an empty scratch.
    #[must_use]
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// Prepares for a query against an index holding `n` slots.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        // On epoch wraparound every stamp could spuriously equal the new
        // epoch; clear once every 2³² queries to stay correct.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.slots.clear();
    }

    /// Marks a slot; true if it was not yet seen this query.
    fn mark(&mut self, slot: u32) -> bool {
        let s = &mut self.stamp[slot as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            true
        }
    }
}

/// A uniform-grid spatial index mapping bins to rectangle ids.
///
/// Ids are indices into the caller's rectangle storage; the index itself
/// stores copies of the rectangles for overlap confirmation.
///
/// # Examples
///
/// ```
/// use bristle_geom::{Rect, RectIndex};
///
/// let mut idx = RectIndex::new(16);
/// idx.insert(0, Rect::new(0, 0, 4, 4));
/// idx.insert(1, Rect::new(100, 100, 104, 104));
/// let near: Vec<_> = idx.query(Rect::new(2, 2, 6, 6)).collect();
/// assert_eq!(near, vec![(0, Rect::new(0, 0, 4, 4))]);
/// ```
#[derive(Debug, Clone)]
pub struct RectIndex {
    bin: i64,
    items: Vec<(usize, Rect)>,
    bins: std::collections::HashMap<(i64, i64), Vec<u32>>,
}

impl RectIndex {
    /// Creates an index with the given bin size (λ). Bin sizes around the
    /// typical shape pitch (8–32 λ) work well.
    ///
    /// # Panics
    ///
    /// Panics if `bin_size` is not positive.
    #[must_use]
    pub fn new(bin_size: i64) -> RectIndex {
        assert!(bin_size > 0, "bin size must be positive, got {bin_size}");
        RectIndex {
            bin: bin_size,
            items: Vec::new(),
            bins: std::collections::HashMap::new(),
        }
    }

    /// Builds an index from a rectangle set in one pass, choosing the bin
    /// size from the data: roughly the mean side length of the input,
    /// clamped to a sane range. This keeps bin occupancy near one shape
    /// per bin across workloads from 2λ contacts to wide power rails.
    #[must_use]
    pub fn bulk_build(rects: impl IntoIterator<Item = (usize, Rect)>) -> RectIndex {
        let items: Vec<(usize, Rect)> = rects.into_iter().collect();
        let bin = if items.is_empty() {
            16
        } else {
            let sum: i64 = items
                .iter()
                .map(|&(_, r)| (r.width() + r.height()) / 2)
                .sum();
            (sum / items.len() as i64).clamp(8, 128)
        };
        let mut idx = RectIndex {
            bin,
            items: Vec::with_capacity(items.len()),
            bins: std::collections::HashMap::with_capacity(items.len()),
        };
        for (id, r) in items {
            idx.insert(id, r);
        }
        idx
    }

    /// The bin size in λ.
    #[must_use]
    pub fn bin_size(&self) -> i64 {
        self.bin
    }

    /// Number of rectangles stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no rectangles are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn bin_range(&self, r: &Rect) -> ((i64, i64), (i64, i64)) {
        (
            (r.x0.div_euclid(self.bin), r.y0.div_euclid(self.bin)),
            (r.x1.div_euclid(self.bin), r.y1.div_euclid(self.bin)),
        )
    }

    /// Inserts a rectangle with a caller-chosen id.
    pub fn insert(&mut self, id: usize, r: Rect) {
        let slot = self.items.len() as u32;
        self.items.push((id, r));
        let ((bx0, by0), (bx1, by1)) = self.bin_range(&r);
        for bx in bx0..=bx1 {
            for by in by0..=by1 {
                self.bins.entry((bx, by)).or_default().push(slot);
            }
        }
    }

    /// All rectangles whose bounding boxes **touch** the query window
    /// (overlap or share an edge/corner). Each stored rectangle is yielded
    /// at most once, in insertion order.
    ///
    /// Allocates per query; hot loops should prefer
    /// [`RectIndex::query_with`] and a reused [`QueryScratch`].
    pub fn query(&self, window: Rect) -> impl Iterator<Item = (usize, Rect)> + '_ {
        let mut scratch = QueryScratch::new();
        let mut hits: Vec<(usize, Rect)> = Vec::new();
        self.query_with(window, &mut scratch, |id, r| hits.push((id, r)));
        hits.into_iter()
    }

    /// Stamped-dedup query: calls `f(id, rect)` for every stored rectangle
    /// that touches `window`, in insertion order, deduplicating via
    /// `scratch` without allocating (after scratch warmup).
    pub fn query_with(
        &self,
        window: Rect,
        scratch: &mut QueryScratch,
        mut f: impl FnMut(usize, Rect),
    ) {
        scratch.begin(self.items.len());
        let ((bx0, by0), (bx1, by1)) = self.bin_range(&window);
        for bx in bx0..=bx1 {
            for by in by0..=by1 {
                if let Some(v) = self.bins.get(&(bx, by)) {
                    for &s in v {
                        if scratch.mark(s) {
                            scratch.slots.push(s);
                        }
                    }
                }
            }
        }
        scratch.slots.sort_unstable();
        for &s in &scratch.slots {
            let (id, r) = self.items[s as usize];
            if r.touches(&window) {
                f(id, r);
            }
        }
    }

    /// The **earliest-inserted** match: the first rectangle in insertion
    /// order that touches `window` and satisfies `pred`, with its id.
    /// (When ids are inserted in ascending order — as the extraction and
    /// DRC pipelines do — this is also the smallest matching id.) A
    /// scratch-based point/area probe for terminal lookup.
    pub fn first_match(
        &self,
        window: Rect,
        scratch: &mut QueryScratch,
        mut pred: impl FnMut(usize, Rect) -> bool,
    ) -> Option<(usize, Rect)> {
        let mut found: Option<(usize, Rect)> = None;
        self.query_with(window, scratch, |id, r| {
            if found.is_none() && pred(id, r) {
                found = Some((id, r));
            }
        });
        found
    }

    /// Iterates over all stored `(id, rect)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Rect)> + '_ {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_finds_touching() {
        let mut idx = RectIndex::new(8);
        idx.insert(7, Rect::new(0, 0, 4, 4));
        idx.insert(8, Rect::new(4, 0, 8, 4)); // shares an edge with the window below
        idx.insert(9, Rect::new(50, 50, 54, 54));
        let hits: Vec<usize> = idx.query(Rect::new(0, 0, 4, 4)).map(|(i, _)| i).collect();
        assert_eq!(hits, vec![7, 8]);
    }

    #[test]
    fn no_duplicates_across_bins() {
        let mut idx = RectIndex::new(4);
        // Spans many bins.
        idx.insert(1, Rect::new(0, 0, 40, 2));
        let hits: Vec<usize> = idx.query(Rect::new(0, 0, 40, 2)).map(|(i, _)| i).collect();
        assert_eq!(hits, vec![1]);
    }

    #[test]
    fn negative_coordinates() {
        let mut idx = RectIndex::new(8);
        idx.insert(0, Rect::new(-20, -20, -10, -10));
        assert_eq!(idx.query(Rect::new(-15, -15, -12, -12)).count(), 1);
        assert_eq!(idx.query(Rect::new(0, 0, 4, 4)).count(), 0);
    }

    #[test]
    fn len_and_iter() {
        let mut idx = RectIndex::new(8);
        assert!(idx.is_empty());
        idx.insert(3, Rect::new(0, 0, 1, 1));
        idx.insert(4, Rect::new(2, 2, 3, 3));
        assert_eq!(idx.len(), 2);
        let all: Vec<usize> = idx.iter().map(|(i, _)| i).collect();
        assert_eq!(all, vec![3, 4]);
    }

    #[test]
    #[should_panic(expected = "bin size must be positive")]
    fn zero_bin_panics() {
        let _ = RectIndex::new(0);
    }

    #[test]
    fn bulk_build_matches_incremental() {
        let rects = [
            Rect::new(0, 0, 4, 4),
            Rect::new(4, 0, 8, 4),
            Rect::new(-30, 2, -26, 40),
            Rect::new(100, 100, 160, 104),
        ];
        let bulk = RectIndex::bulk_build(rects.iter().copied().enumerate());
        let mut inc = RectIndex::new(bulk.bin_size());
        for (i, r) in rects.iter().enumerate() {
            inc.insert(i, *r);
        }
        for window in [
            Rect::new(0, 0, 8, 8),
            Rect::new(-40, -40, 200, 200),
            Rect::new(99, 99, 101, 101),
        ] {
            let a: Vec<_> = bulk.query(window).collect();
            let b: Vec<_> = inc.query(window).collect();
            assert_eq!(a, b, "window {window}");
        }
    }

    #[test]
    fn scratch_reuse_across_queries_and_indexes() {
        let mut small = RectIndex::new(8);
        small.insert(0, Rect::new(0, 0, 2, 2));
        let mut big = RectIndex::new(8);
        for i in 0..100 {
            big.insert(i, Rect::new(3 * i as i64, 0, 3 * i as i64 + 2, 2));
        }
        let mut scratch = QueryScratch::new();
        for _ in 0..3 {
            let mut hits = 0;
            small.query_with(Rect::new(0, 0, 2, 2), &mut scratch, |_, _| hits += 1);
            assert_eq!(hits, 1);
            let mut hits = 0;
            big.query_with(Rect::new(0, 0, 300, 2), &mut scratch, |_, _| hits += 1);
            assert_eq!(hits, 100);
        }
    }

    #[test]
    fn first_match_returns_lowest_id() {
        let mut idx = RectIndex::new(8);
        idx.insert(5, Rect::new(0, 0, 10, 10));
        idx.insert(2, Rect::new(0, 0, 10, 10));
        let mut scratch = QueryScratch::new();
        // Insertion order, not id order: slot for id 5 precedes id 2, but
        // ids sort by slot, so the first yielded is id 5 (inserted first).
        let hit = idx.first_match(Rect::new(1, 1, 2, 2), &mut scratch, |_, _| true);
        assert_eq!(hit.map(|(i, _)| i), Some(5));
    }
}

//! A minimal scoped-thread chunked worker pool.
//!
//! The sharded phase of the pipeline (the per-trajectory local
//! mechanism) has a simple shape: cut a slice into contiguous
//! near-equal chunks, evaluate a pure function on each chunk
//! concurrently, and combine the per-chunk results in chunk order. [`map_chunks`] provides exactly that on std
//! scoped threads — no work stealing, no channels, no dependencies
//! beyond the vendored workspace crates — so results are a pure function
//! of `(items, f)` and never of thread scheduling.

/// Splits `len` items into at most `workers` contiguous chunks of
/// near-equal size, returned as `(start, end)` ranges covering `0..len`
/// exactly. With `len == 0` a single empty range is returned; a `workers`
/// of 0 is treated as 1.
pub fn chunk_ranges(len: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1).min(len.max(1));
    let base = len / workers;
    let extra = len % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Applies `f` to each contiguous chunk of `items` on up to `workers`
/// scoped threads, returning the per-chunk results **in chunk order**.
///
/// `f` receives the chunk's starting offset within `items` and the chunk
/// itself. With `workers <= 1` (or a single chunk) `f` runs inline on
/// the calling thread, so the serial path pays no spawn cost and the
/// parallel path is observationally identical to it whenever `f` is
/// pure.
pub fn map_chunks<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    let ranges = chunk_ranges(items.len(), workers);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(|(lo, hi)| f(lo, &items[lo..hi])).collect();
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> =
            ranges.iter().map(|&(lo, hi)| s.spawn(move || f(lo, &items[lo..hi]))).collect();
        handles.into_iter().map(|h| h.join().expect("pool worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 5, 7, 100] {
            for workers in [0usize, 1, 2, 3, 8, 200] {
                let chunks = chunk_ranges(len, workers);
                assert!(chunks.len() <= workers.max(1));
                let mut expected = 0;
                for &(lo, hi) in &chunks {
                    assert_eq!(lo, expected, "len {len} workers {workers}");
                    assert!(hi >= lo);
                    expected = hi;
                }
                assert_eq!(expected, len, "len {len} workers {workers}");
            }
        }
    }

    #[test]
    fn chunk_sizes_are_balanced() {
        let chunks = chunk_ranges(10, 4);
        let sizes: Vec<usize> = chunks.iter().map(|&(lo, hi)| hi - lo).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn map_chunks_preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..57).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 2).collect();
        for workers in [0usize, 1, 2, 3, 8, 64] {
            let doubled: Vec<u64> =
                map_chunks(workers, &items, |_, chunk| chunk.iter().map(|x| x * 2).collect())
                    .into_iter()
                    .flat_map(|v: Vec<u64>| v)
                    .collect();
            assert_eq!(doubled, expected, "{workers} workers");
        }
    }

    #[test]
    fn map_chunks_reports_offsets() {
        let items = [0u8; 10];
        let offsets: Vec<usize> = map_chunks(3, &items, |lo, _| lo);
        assert_eq!(offsets, vec![0, 4, 7]);
    }

    #[test]
    fn map_chunks_on_empty_slice() {
        let items: [u32; 0] = [];
        let out: Vec<usize> = map_chunks(4, &items, |_, chunk| chunk.len());
        assert_eq!(out, vec![0]);
    }
}

//! Thread-chunk partitioning (the "multi-layered partitioning" of
//! Sec. III-B.2) and the codec layer's one fork-join.
//!
//! The input of `n` elements is split into `nchunks` contiguous ranges of
//! `n / nchunks` elements each; the final chunk additionally absorbs the
//! `n % nchunks` remainder, exactly as the paper assigns the last `D % N`
//! points to thread `N-1`. Chunks are independent behind the header's offset
//! table, so every compress, decompress and homomorphic entry point is the
//! same shape: cut the work into jobs and [`fork_join`] them. A producer of
//! a stream does that through [`Stream::assemble`], whose jobs write their
//! payloads straight into the stream when they run on the calling thread.
//!
//! [`Stream::assemble`]: crate::stream::Stream::assemble

use std::sync::OnceLock;

/// The element range a single thread-chunk covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Index of the first element.
    pub start: usize,
    /// Number of elements.
    pub len: usize,
}

/// Compute the effective chunk count for `n` elements and a requested thread
/// count: never more chunks than elements, at least one chunk when `n > 0`,
/// and zero chunks for empty input.
pub(crate) fn effective_chunks(n: usize, threads: usize) -> usize {
    if n == 0 {
        0
    } else {
        threads.max(1).min(n)
    }
}

/// The chunk spans for `n` elements split into `nchunks` chunks, in order.
///
/// `nchunks` must be a stream's chunk count (`effective_chunks`); panics if a
/// chunk would be empty.
pub fn chunk_spans(n: usize, nchunks: usize) -> impl ExactSizeIterator<Item = ChunkSpan> + Clone {
    assert!(nchunks > 0 || n == 0, "zero chunks only valid for empty input");
    let base = n.checked_div(nchunks).unwrap_or(0);
    assert!(nchunks == 0 || base > 0, "more chunks than elements");
    (0..nchunks).map(move |t| {
        let start = t * base;
        ChunkSpan { start, len: if t + 1 == nchunks { n - start } else { base } }
    })
}

/// Split `data` into the sub-slices of its `nchunks` [`chunk_spans`], in
/// order.
pub(crate) fn split_mut<T>(
    mut data: &mut [T],
    nchunks: usize,
) -> impl ExactSizeIterator<Item = &mut [T]> {
    chunk_spans(data.len(), nchunks).map(move |span| {
        let (head, tail) = std::mem::take(&mut data).split_at_mut(span.len);
        data = tail;
        head
    })
}

/// Lengths of the small blocks covering `len` elements: `block_len` each,
/// the last one shorter.
pub fn block_lens(len: usize, block_len: usize) -> impl Iterator<Item = usize> {
    (0..len).step_by(block_len).map(move |start| block_len.min(len - start))
}

/// Deal `items` round-robin into `hands` hands: hand `h` gets items
/// `h, h + hands, h + 2·hands, …` in order — how `ompSZp`'s decompression
/// hands each thread group its block-cyclically owned output blocks, and how
/// [`fork_join`] shares jobs among workers.
pub fn deal<T>(items: impl Iterator<Item = T>, hands: usize) -> Vec<Vec<T>> {
    let each = items.size_hint().0.div_ceil(hands.max(1));
    let mut dealt: Vec<Vec<T>> = (0..hands).map(|_| Vec::with_capacity(each)).collect();
    for (i, item) in items.enumerate() {
        dealt[i % hands].push(item);
    }
    dealt
}

/// How many threads [`fork_join`] runs `total` jobs on: one, the calling
/// thread, for a single job or on a one-core host; else one worker per job,
/// up to the host's cores.
pub(crate) fn workers(total: usize) -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores =
        || *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()));
    if total > 1 {
        total.min(cores())
    } else {
        1
    }
}

/// Run `run(i, job)` for every job and collect the results, in job order,
/// into whatever the caller asks for: a `Vec`, or a `Result` that stops at
/// the first error and allocates nothing when there is nothing to keep.
///
/// One job (or any number on a one-core host) runs on the calling thread — a
/// single-thread-mode codec call inside a collective hop must not pay for a
/// thread. More run on scoped workers, never more of them than the host has
/// cores: a stream header received from the wire chooses the job count, and
/// it must not be able to ask the OS for more threads than it will give.
pub fn fork_join<J: Send, R: Send, C, I>(jobs: I, run: impl Fn(usize, J) -> R + Sync) -> C
where
    I: IntoIterator<Item = J>,
    I::IntoIter: ExactSizeIterator,
    C: FromIterator<R>,
{
    let jobs = jobs.into_iter().enumerate();
    let total = jobs.len();
    let workers = workers(total);
    if workers == 1 {
        return jobs.map(|(i, job)| run(i, job)).collect();
    }
    let run = &run;
    let mut done: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = deal(jobs, workers)
            .into_iter()
            .map(|hand| {
                s.spawn(move || hand.into_iter().map(|(i, job)| run(i, job)).collect::<Vec<R>>())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("codec worker panicked").into_iter()).collect()
    });
    (0..total).map(|i| done[i % workers].next().expect("one result per job")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_tile_the_input() {
        for n in [1usize, 2, 31, 32, 100, 101, 1024] {
            for t in [1usize, 2, 3, 7, 16] {
                let nchunks = effective_chunks(n, t);
                let spans = chunk_spans(n, nchunks);
                assert_eq!(spans.len(), nchunks);
                let mut next = 0;
                for s in spans {
                    assert_eq!(s.start, next);
                    assert!(s.len > 0);
                    next += s.len;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn last_chunk_absorbs_remainder() {
        let spans: Vec<_> = chunk_spans(10, 3).collect();
        assert_eq!(spans[0].len, 3);
        assert_eq!(spans[1].len, 3);
        assert_eq!(spans[2].len, 4);
    }

    #[test]
    fn empty_input_has_no_chunks() {
        assert_eq!(effective_chunks(0, 8), 0);
        assert_eq!(chunk_spans(0, 0).len(), 0);
    }

    #[test]
    fn more_threads_than_elements_is_clamped() {
        assert_eq!(effective_chunks(3, 16), 3);
        assert!(chunk_spans(3, 3).all(|s| s.len == 1));
    }

    #[test]
    fn split_mut_matches_spans() {
        let mut v: Vec<u32> = (0..10).collect();
        let parts: Vec<_> = split_mut(&mut v, 3).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &[0, 1, 2]);
        assert_eq!(parts[2], &[6, 7, 8, 9]);
        assert_eq!(split_mut(&mut [0u8; 0], 0).len(), 0);
    }

    #[test]
    fn block_lens_cover_the_chunk() {
        assert_eq!(block_lens(0, 32).count(), 0);
        assert_eq!(block_lens(32, 32).collect::<Vec<_>>(), [32]);
        assert_eq!(block_lens(70, 32).collect::<Vec<_>>(), [32, 32, 6]);
    }

    #[test]
    fn deal_is_block_cyclic() {
        assert_eq!(deal(0..7, 3), [vec![0, 3, 6], vec![1, 4], vec![2, 5]]);
        assert_eq!(deal(0..0, 2), [vec![], vec![]]);
    }

    #[test]
    fn fork_join_keeps_job_order_for_any_job_count() {
        for k in [0usize, 1, 2, 3, 8, 1000] {
            let mut cells = vec![0usize; k];
            // jobs may own disjoint mutable borrows
            let out: Vec<usize> = fork_join(cells.iter_mut(), |i, cell| {
                *cell = i + 1;
                i * i
            });
            assert_eq!(out, (0..k).map(|i| i * i).collect::<Vec<_>>());
            assert!(cells.iter().enumerate().all(|(i, &c)| c == i + 1));
        }
    }

    #[test]
    fn fork_join_into_a_result_reports_the_first_error_in_job_order() {
        for k in [1usize, 2, 3, 8, 1000] {
            let got: Result<Vec<usize>, usize> =
                fork_join(0..k, |i, _| if i % 3 == 2 || i + 1 == k { Err(i) } else { Ok(i) });
            assert_eq!(got, Err(2.min(k - 1)), "{k} jobs");
            let all: Result<(), usize> = fork_join(0..k, |_, _| Ok(()));
            assert_eq!(all, Ok(()));
        }
    }
}

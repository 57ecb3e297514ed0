//! Parallel parameter sweeps.
//!
//! Every simulation run is independent, so sweeps are embarrassingly
//! parallel. Items are pre-split into contiguous chunks; workers claim
//! whole chunks through one shared atomic index and hand the produced
//! results back through their scoped join handles, so the only
//! synchronisation on the work path is a single `fetch_add` per chunk —
//! no per-item locks, no channels.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chunk inbox for the workers. Each slot is taken exactly once, by
/// whichever worker wins that index from the shared atomic counter.
struct ChunkSlots<T>(Vec<UnsafeCell<Option<Vec<T>>>>);

// SAFETY: slot `i` is touched only by the single worker that received
// index `i` from the shared `fetch_add`, so no two threads ever access
// the same `UnsafeCell` (see the claim loop in `par_map`).
unsafe impl<T: Send> Sync for ChunkSlots<T> {}

/// Map `f` over `items` in parallel, preserving order. Uses up to
/// `threads` workers (defaults to the available parallelism).
///
/// A panic inside `f` is propagated to the caller after the remaining
/// workers finish their in-flight chunks.
pub fn par_map<T, R, F>(items: Vec<T>, threads: Option<usize>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        })
        .clamp(1, n);
    if workers == 1 {
        return items.into_iter().map(f).collect();
    }
    // More chunks than workers keeps one slow item from serialising the
    // tail of the sweep, while claiming stays one fetch_add per chunk.
    let chunk_count = (workers * 4).min(n);
    let chunk_size = n.div_ceil(chunk_count);
    let mut items = items;
    let mut chunks = Vec::with_capacity(chunk_count);
    while !items.is_empty() {
        let rest = items.split_off(chunk_size.min(items.len()));
        chunks.push(items);
        items = rest;
    }
    let nchunks = chunks.len();
    let slots = ChunkSlots(
        chunks
            .into_iter()
            .map(|c| UnsafeCell::new(Some(c)))
            .collect(),
    );
    let next = AtomicUsize::new(0);
    let (slots, next, f) = (&slots, &next, &f);
    let mut out: Vec<Option<Vec<R>>> = (0..nchunks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut produced: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= nchunks {
                            break;
                        }
                        // SAFETY: the fetch_add above handed index `i` to
                        // this worker alone; no other thread reads or
                        // writes slot `i`.
                        let chunk = unsafe { (*slots.0[i].get()).take() }
                            .expect("each chunk claimed exactly once");
                        produced.push((i, chunk.into_iter().map(f).collect()));
                    }
                    produced
                })
            })
            .collect();
        for h in handles {
            let produced = h
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, rs) in produced {
                out[i] = Some(rs);
            }
        }
    });
    out.into_iter()
        .flat_map(|c| c.expect("every chunk index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..100).collect(), Some(8), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_order_with_uneven_chunks() {
        // 103 items over 8 workers: 32 chunk slots, ragged final chunk.
        let out = par_map((0..103).collect(), Some(8), |x: i32| x - 7);
        assert_eq!(out, (0..103).map(|x| x - 7).collect::<Vec<_>>());
        // Fewer items than workers: every chunk is a single item.
        let out = par_map((0..3).collect(), Some(8), |x: i32| x + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = par_map(Vec::<i32>::new(), None, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_fallback() {
        let out = par_map(vec![1, 2, 3], Some(1), |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn propagates_worker_panics() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map((0..64).collect(), Some(4), |x: i32| {
                assert_ne!(x, 13, "unlucky");
                x
            })
        }));
        assert!(result.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn actually_runs_concurrently() {
        use std::sync::atomic::AtomicUsize;
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        par_map((0..16).collect(), Some(4), |_: i32| {
            let live = LIVE.fetch_add(1, Ordering::SeqCst) + 1;
            PEAK.fetch_max(live, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(20));
            LIVE.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(PEAK.load(Ordering::SeqCst) >= 2, "no observed overlap");
    }

    #[test]
    fn works_with_simulation_runs() {
        use crate::scenario::{Scenario, Strategy};
        use noc_traffic::AppSpec;
        let mut scenarios = Vec::new();
        for seed in 0..4u64 {
            let mut sc =
                Scenario::paper_default(AppSpec::ferret(), Strategy::Unprotected).with_seed(seed);
            sc.warmup = 50;
            sc.inject_until = 150;
            sc.max_cycles = 3000;
            scenarios.push(sc);
        }
        let results = par_map(scenarios, None, |sc| crate::experiment::run_scenario(&sc));
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.drained));
    }
}

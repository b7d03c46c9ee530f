//! Parallel job executor.
//!
//! [`execute_ordered`] runs a list of independent jobs across worker
//! threads and returns results **in job order**, regardless of which
//! worker finished which job when. Combined with the pure per-run seed
//! derivation in [`crate::seeds`], this makes parallel campaign execution
//! bit-identical to serial: job *inputs* don't depend on scheduling, and
//! job *outputs* are re-ordered back to the deterministic submission order
//! before anything aggregates them.
//!
//! Every call knows all of its jobs up front, so the whole schedule is one
//! shared cursor over the chunk list: each worker takes the next chunk
//! until none are left.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The default worker count: the machine's available parallelism
/// (`repro --jobs` overrides it).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What the completion hook of [`execute_ordered`] learns when a worker
/// finishes one chunk.
///
/// Everything here describes *scheduling*, not run content: which worker
/// finished which chunk when, how much wall time it took, and how deep
/// the queue still is. Hook consumers must keep this out of anything
/// digested (the observatory records it under the `executor.` instrument
/// prefix, which fingerprints skip).
#[derive(Debug)]
pub struct ChunkDone<'a, R> {
    /// Index of the worker thread that ran the chunk (0-based).
    pub worker: usize,
    /// Chunk index in submission order (`chunk * batch` is the first
    /// job's index).
    pub chunk: usize,
    /// The chunk's results, in chunk order.
    pub results: &'a [R],
    /// Chunks not yet completed anywhere after this one (a queue-depth
    /// proxy; includes chunks currently executing on other workers).
    pub pending: usize,
    /// Wall-clock nanoseconds this worker spent executing the chunk.
    pub busy_ns: u64,
}

/// Runs jobs in chunks of `batch` on `workers` threads and returns the
/// results in the order the jobs were given.
///
/// Jobs are chunked in submission order into groups of `batch` (the tail
/// chunk clamps to the jobs remaining; `batch` 0 counts as 1), and
/// `run_chunk` maps a chunk to its results, one per job, in chunk order.
/// `workers` is clamped to `1..=chunks`; one worker runs every chunk on the
/// calling thread without a spawn, more run under [`std::thread::scope`].
///
/// `on_chunk` fires on the worker thread right after each chunk finishes,
/// in completion order (not submission order — it is the streaming side
/// channel the campaign observatory folds summaries through while the
/// ordered result vector is still being assembled). It observes; it cannot
/// reorder. Callers with nothing to observe pass `|_| {}`.
///
/// # Panics
///
/// A panic in `run_chunk` or `on_chunk` reaches the caller with its own
/// payload, after every worker has stopped. Panics if `run_chunk` returns
/// a different number of results than jobs it was given.
pub fn execute_ordered<J, R, F, H>(
    jobs: Vec<J>,
    workers: usize,
    batch: usize,
    run_chunk: F,
    on_chunk: H,
) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(Vec<J>) -> Vec<R> + Sync,
    H: Fn(ChunkDone<'_, R>) + Sync,
{
    let batch = batch.max(1);
    let mut chunks: Vec<Vec<J>> = Vec::new();
    let mut jobs = jobs.into_iter();
    loop {
        let chunk: Vec<J> = jobs.by_ref().take(batch).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let total = chunks.len();
    if total == 0 {
        return Vec::new();
    }
    let completed = AtomicUsize::new(0);
    let run = |worker: usize, index: usize, chunk: Vec<J>| -> Vec<R> {
        let n = chunk.len();
        let started = Instant::now();
        let results = run_chunk(chunk);
        let busy_ns = started.elapsed().as_nanos() as u64;
        assert_eq!(results.len(), n, "run_chunk must return one result per job");
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        on_chunk(ChunkDone {
            worker,
            chunk: index,
            results: &results,
            pending: total - done,
            busy_ns,
        });
        results
    };

    let workers = workers.clamp(1, total);
    if workers == 1 {
        return chunks
            .into_iter()
            .enumerate()
            .flat_map(|(index, chunk)| run(0, index, chunk))
            .collect();
    }

    let cursor = Mutex::new(chunks.into_iter().enumerate());
    let mut indexed: Vec<(usize, Vec<R>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (cursor, run) = (&cursor, &run);
                scope.spawn(move || {
                    let mut done: Vec<(usize, Vec<R>)> = Vec::new();
                    loop {
                        // The guard drops before the chunk runs, so a
                        // panicking job cannot poison the cursor.
                        let next = cursor.lock().expect("chunk cursor lock").next();
                        let Some((index, chunk)) = next else {
                            return done;
                        };
                        done.push((index, run(worker, index, chunk)));
                    }
                })
            })
            .collect();
        let mut indexed = Vec::with_capacity(total);
        let mut panicked = None;
        for handle in handles {
            match handle.join() {
                Ok(done) => indexed.extend(done),
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
        indexed
    });

    debug_assert_eq!(indexed.len(), total, "every chunk must produce results");
    indexed.sort_unstable_by_key(|(index, _)| *index);
    indexed
        .into_iter()
        .flat_map(|(_, results)| results)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One job per chunk, no hook: `f` applied to every job.
    fn each<J: Send, R: Send>(jobs: Vec<J>, workers: usize, f: impl Fn(J) -> R + Sync) -> Vec<R> {
        execute_ordered(
            jobs,
            workers,
            1,
            |chunk| chunk.into_iter().map(&f).collect(),
            |_| {},
        )
    }

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 4, 7] {
            let results = each(jobs.clone(), workers, |j| j * 3);
            assert_eq!(
                results,
                (0..100).map(|j| j * 3).collect::<Vec<u64>>(),
                "order broken at {workers} workers"
            );
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let results = each((0..257).collect::<Vec<usize>>(), 4, |j| {
            counter.fetch_add(1, Ordering::Relaxed);
            j
        });
        assert_eq!(counter.load(Ordering::Relaxed), 257);
        assert_eq!(results.len(), 257);
    }

    #[test]
    fn uneven_job_costs_still_produce_ordered_results() {
        // Early jobs sleep so late jobs finish first: completion order is
        // roughly reversed, output order must not be.
        let results = each((0..16u64).collect::<Vec<_>>(), 4, |j| {
            if j < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            j * j
        });
        assert_eq!(results, (0..16u64).map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_job_edge_cases() {
        let none: Vec<u32> = each(Vec::<u32>::new(), 8, |j| j);
        assert!(none.is_empty());
        assert_eq!(each(vec![5u32], 8, |j| j + 1), vec![6]);
    }

    #[test]
    fn worker_count_defaults_are_sane() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn batched_results_keep_job_order_for_any_shape() {
        let jobs: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j * 7).collect();
        // Batch sizes that divide, don't divide, exceed, and degenerate.
        for batch in [0, 1, 2, 4, 5, 37, 100] {
            for workers in [1, 3] {
                let got = execute_ordered(
                    jobs.clone(),
                    workers,
                    batch,
                    |chunk| chunk.into_iter().map(|j| j * 7).collect(),
                    |_| {},
                );
                assert_eq!(got, expect, "batch {batch}, workers {workers}");
            }
        }
    }

    #[test]
    fn batch_clamps_to_remaining_jobs() {
        // 5 jobs at batch 4 → chunks of 4 and 1; at batch 100 → one chunk
        // of all 5. The chunk shapes are observable through run_chunk.
        for (batch, expect) in [(4, vec![4, 1]), (100, vec![5])] {
            let shapes = Mutex::new(Vec::new());
            let _ = execute_ordered(
                (0..5).collect::<Vec<u32>>(),
                1,
                batch,
                |chunk| {
                    shapes.lock().unwrap().push(chunk.len());
                    chunk
                },
                |_| {},
            );
            assert_eq!(shapes.into_inner().unwrap(), expect, "batch {batch}");
        }
    }

    #[test]
    #[should_panic(expected = "one result per job")]
    fn short_batch_results_panic() {
        let _ = execute_ordered(
            vec![1u32, 2, 3],
            1,
            2,
            |mut chunk| {
                chunk.pop();
                chunk
            },
            |_| {},
        );
    }

    #[test]
    fn a_job_panic_reaches_the_caller_with_its_payload() {
        for workers in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                each((0..12u32).collect::<Vec<_>>(), workers, |j| {
                    if j == 5 {
                        panic!("job {j} failed");
                    }
                    j
                })
            });
            let payload = caught.expect_err("the job's panic must propagate");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("job 5 failed"),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn hook_fires_once_per_chunk_with_sane_fields() {
        let jobs: Vec<u64> = (0..23).collect();
        let expect: Vec<u64> = jobs.iter().map(|j| j + 100).collect();
        for workers in [1, 4] {
            let seen: Mutex<Vec<(usize, usize, usize, usize)>> = Mutex::new(Vec::new());
            let got = execute_ordered(
                jobs.clone(),
                workers,
                5,
                |chunk| chunk.into_iter().map(|j| j + 100).collect(),
                |done: ChunkDone<'_, u64>| {
                    seen.lock().unwrap().push((
                        done.worker,
                        done.chunk,
                        done.results.len(),
                        done.pending,
                    ));
                },
            );
            assert_eq!(got, expect, "workers {workers}");
            let mut seen = seen.into_inner().unwrap();
            // 23 jobs at batch 5 → 5 chunks (4×5 + 1×3).
            assert_eq!(seen.len(), 5, "workers {workers}");
            assert!(seen.iter().all(|&(w, ..)| w < workers));
            // Every chunk index appears exactly once and its result count
            // matches the chunk shape.
            seen.sort_unstable_by_key(|&(_, chunk, ..)| chunk);
            let shapes: Vec<(usize, usize)> = seen.iter().map(|&(_, c, n, _)| (c, n)).collect();
            assert_eq!(shapes, vec![(0, 5), (1, 5), (2, 5), (3, 5), (4, 3)]);
            // Pending counts are a permutation of 0..chunks (each completion
            // decrements by one, in some completion order).
            let mut pending: Vec<usize> = seen.iter().map(|&(.., p)| p).collect();
            pending.sort_unstable();
            assert_eq!(pending, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn hook_sees_results_the_caller_gets() {
        let streamed: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let got = execute_ordered(
            (0..17u64).collect::<Vec<_>>(),
            3,
            4,
            |chunk| chunk.into_iter().map(|j| j * j).collect(),
            |done: ChunkDone<'_, u64>| {
                streamed.lock().unwrap().extend_from_slice(done.results);
            },
        );
        let mut streamed = streamed.into_inner().unwrap();
        streamed.sort_unstable();
        let mut sorted = got.clone();
        sorted.sort_unstable();
        // Completion order differs, content does not.
        assert_eq!(streamed, sorted);
        assert_eq!(got, (0..17u64).map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn hooked_empty_input_is_a_no_op() {
        let calls = AtomicUsize::new(0);
        let got: Vec<u32> = execute_ordered(
            Vec::<u32>::new(),
            4,
            8,
            |chunk| chunk,
            |_done: ChunkDone<'_, u32>| {
                calls.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert!(got.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }
}

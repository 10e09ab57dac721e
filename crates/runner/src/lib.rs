//! # accturbo-runner
//!
//! A dependency-free `std::thread` worker-pool for fanning out
//! independent experiment jobs (figure × seed × scale) while keeping the
//! *observable* output deterministic: results are delivered to the
//! caller **by job index, not by completion order**, so a parallel run
//! is byte-identical to a serial one.
//!
//! Scheduling is a shared atomic job counter — each idle worker claims
//! the next unclaimed index, which self-balances uneven job costs the
//! same way work stealing does, without per-worker deques. The caller's
//! thread is the single consumer: it sleeps on a condvar and drains
//! finished jobs in index order, so `consume` needs neither `Send` nor
//! any locking of its own.
//!
//! ```
//! let squares = accturbo_runner::run(4, 8, |i| i * i);
//! assert_eq!(squares.iter().map(|j| j.output).collect::<Vec<_>>(),
//!            vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```
//!
//! Panics inside a job are caught on the worker, carried to the caller,
//! and resumed on the consuming thread at that job's position in the
//! delivery order, so a failing job cannot deadlock the pool.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One finished job: its output plus wall-clock span data relative to
/// the pool's start (for per-job trace spans and speedup reports).
#[derive(Debug, Clone)]
pub struct JobResult<T> {
    /// The job's index in `0..n_jobs` — also its delivery position.
    pub index: usize,
    /// The worker thread (0-based) that ran the job.
    pub worker: usize,
    /// What the job closure returned.
    pub output: T,
    /// Start of the job, measured from the pool's launch.
    pub started_at: Duration,
    /// Wall-clock time the job took.
    pub elapsed: Duration,
}

type JobSlot<T> = Option<Result<JobResult<T>, Box<dyn std::any::Any + Send>>>;

/// The number of worker threads to use when the caller does not say:
/// the machine's available parallelism (1 if unknown).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `n_jobs` jobs on up to `threads` workers and hands each
/// [`JobResult`] to `consume` **in job-index order** on the calling
/// thread, as soon as every earlier job has been delivered. With
/// `threads <= 1` the jobs run inline on the caller, no threads spawned
/// — both paths produce the same delivery sequence.
pub fn run_streaming<T, F, C>(threads: usize, n_jobs: usize, job: F, mut consume: C)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(JobResult<T>),
{
    let epoch = Instant::now();
    let threads = threads.max(1).min(n_jobs);
    if threads <= 1 {
        for index in 0..n_jobs {
            let started_at = epoch.elapsed();
            let output = job(index);
            consume(JobResult {
                index,
                worker: 0,
                output,
                started_at,
                elapsed: epoch.elapsed().saturating_sub(started_at),
            });
        }
        return;
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<JobSlot<T>>> = Mutex::new((0..n_jobs).map(|_| None).collect());
    let ready = Condvar::new();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let (next, slots, ready, job) = (&next, &slots, &ready, &job);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n_jobs {
                    break;
                }
                let started_at = epoch.elapsed();
                let outcome = catch_unwind(AssertUnwindSafe(|| job(index)));
                let elapsed = epoch.elapsed().saturating_sub(started_at);
                let finished = outcome.map(|output| JobResult {
                    index,
                    worker,
                    output,
                    started_at,
                    elapsed,
                });
                let poisoned = finished.is_err();
                {
                    let mut guard = slots.lock().unwrap();
                    guard[index] = Some(finished);
                }
                ready.notify_all();
                if poisoned {
                    // Stop claiming work after a panic; the caller will
                    // re-raise it once delivery reaches this index.
                    break;
                }
            });
        }

        let mut delivered = 0usize;
        let mut guard = slots.lock().unwrap();
        while delivered < n_jobs {
            match guard[delivered].take() {
                Some(Ok(result)) => {
                    drop(guard);
                    consume(result);
                    delivered += 1;
                    guard = slots.lock().unwrap();
                }
                Some(Err(panic)) => {
                    drop(guard);
                    // Let the remaining workers drain their current jobs
                    // before re-raising, so the scope can join them.
                    next.store(n_jobs, Ordering::Relaxed);
                    resume_unwind(panic);
                }
                None => guard = ready.wait(guard).unwrap(),
            }
        }
    });
}

/// [`run_streaming`], collecting the results into a `Vec` ordered by job
/// index.
pub fn run<T, F>(threads: usize, n_jobs: usize, job: F) -> Vec<JobResult<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut results = Vec::with_capacity(n_jobs);
    run_streaming(threads, n_jobs, job, |r| results.push(r));
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_arrive_in_index_order_even_when_completion_inverts() {
        // Later jobs finish first (earlier jobs sleep longer); delivery
        // must still be 0, 1, 2, ...
        let n = 12;
        let mut order = Vec::new();
        run_streaming(
            4,
            n,
            |i| {
                std::thread::sleep(Duration::from_millis(((n - i) as u64) * 3));
                i * 10
            },
            |r| order.push((r.index, r.output)),
        );
        assert_eq!(order, (0..n).map(|i| (i, i * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_outputs_match() {
        let f = |i: usize| format!("job-{i}:{}", i * i);
        let serial: Vec<String> = run(1, 20, f).into_iter().map(|r| r.output).collect();
        let parallel: Vec<String> = run(8, 20, f).into_iter().map(|r| r.output).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        run(7, 100, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn zero_jobs_is_a_no_op() {
        let results = run(4, 0, |_| unreachable!("no jobs to run"));
        assert!(results.is_empty());
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let results = run(64, 3, |i| i);
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn job_spans_are_recorded() {
        let results = run(2, 4, |_| std::thread::sleep(Duration::from_millis(5)));
        for r in &results {
            assert!(r.elapsed >= Duration::from_millis(4), "job {}", r.index);
        }
        // With 2 workers and 4 equal jobs, some job must start after
        // another finished (they cannot all start at once).
        let max_start = results.iter().map(|r| r.started_at).max().unwrap();
        assert!(max_start >= Duration::from_millis(4));
    }

    #[test]
    fn worker_ids_stay_within_the_pool() {
        let results = run(3, 30, |i| i);
        assert!(results.iter().all(|r| r.worker < 3));
    }

    #[test]
    fn a_panicking_job_propagates_to_the_caller() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run(4, 8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        }));
        let panic = caught.expect_err("panic must propagate");
        let msg = panic
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("(non-str panic)");
        assert!(msg.contains("job 5 exploded"), "{msg}");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}

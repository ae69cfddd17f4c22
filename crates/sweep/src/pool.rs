//! The sweep's fan-out: independent jobs over scoped worker threads.
//!
//! The conformance sweep's unit of work is coarse — one seeded simulator run
//! plus its certification, tens to hundreds of milliseconds — so the loop is
//! as simple as it can be: jobs are dense indices, and every worker claims
//! the next unclaimed index from one shared `AtomicUsize` cursor until none
//! is left. A worker stuck on a long job holds only that job; the others
//! keep draining the cursor.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job(i)` for every `i in 0..jobs` on `threads.max(1).min(jobs)`
/// scoped workers, each claiming the next unclaimed index from one shared
/// cursor, and returns the results in job order. One worker runs the jobs
/// on the calling thread without spawning. A panicking job panics the call.
pub(crate) fn run_jobs<R, F>(jobs: usize, threads: usize, job: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = threads.max(1).min(jobs);
    if workers <= 1 {
        return (0..jobs).map(job).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claim = || -> Vec<(usize, R)> {
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor only hands out indices; the results reach
            // the caller through `join`, which synchronizes.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                return done;
            }
            done.push((i, job(i)));
        }
    };
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        handles.into_iter().flat_map(|h| h.join().unwrap_or_else(|e| resume_unwind(e))).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_job_exactly_once_in_order() {
        let calls: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let results = run_jobs(100, 4, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1), "{calls:?}");
        assert_eq!(results, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        // More threads than jobs: the worker count is clamped to the jobs.
        assert_eq!(run_jobs(3, 16, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn single_thread_and_empty_inputs() {
        // One thread (or a zero count, clamped to one) spawns nothing: every
        // job runs on the caller's thread.
        let caller = std::thread::current().id();
        for threads in [0, 1] {
            let on_caller = run_jobs(5, threads, |_| std::thread::current().id() == caller);
            assert_eq!(on_caller, [true; 5], "threads = {threads}");
        }
        assert_eq!(run_jobs(5, 1, |i| i + 1), vec![1, 2, 3, 4, 5]);
        // No jobs, with or without threads.
        assert!(run_jobs(0, 8, |i| i).is_empty());
        assert!(run_jobs(0, 0, |i| i).is_empty());
    }

    #[test]
    fn unbalanced_jobs_complete_under_stealing() {
        // A few heavy jobs at the front of the index space; with four workers
        // the idle ones take every later job from the cursor while the heavy
        // ones run. The assertion is correctness (every result present, in
        // order), not timing.
        let results = run_jobs(64, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(results, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn results_can_borrow_the_environment() {
        let inputs: Vec<String> = (0..10).map(|i| format!("job-{i}")).collect();
        let lens = run_jobs(inputs.len(), 3, |i| inputs[i].len());
        assert_eq!(lens, inputs.iter().map(String::len).collect::<Vec<_>>());
    }
}

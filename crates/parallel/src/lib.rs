//! # samplecf-parallel
//!
//! The shared strided-worker fan-out behind the workspace's two parallel
//! stages: the index bulk loader's encode, radix-partitioned sort and leaf
//! pack, and the offline trial runner.  Nothing else in a request fans out.
//!
//! Worker `w` of `t` handles jobs `w, w + t, w + 2t, …`; results are
//! reassembled in job order, so as long as the per-job function is pure the
//! output is independent of the thread count — the determinism contract all
//! call sites advertise.  There is no persistent pool: workers are scoped
//! threads, so borrowed job inputs need no `'static` bound and nothing
//! outlives the call.
//!
//! ```
//! let squares = samplecf_parallel::parallel_indexed_map(8, 0, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

/// Resolve a configured thread count (0 = all available parallelism) against
/// the number of jobs.
#[must_use]
pub fn resolve_threads(threads: usize, jobs: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
    .min(jobs.max(1))
}

/// Run `f(0..jobs)` across `threads` scoped workers (0 = all available) and
/// return the results in job order.
///
/// With one effective worker the jobs run inline on the calling thread — no
/// spawn, no join — so a `threads = 1` caller pays nothing over a plain loop.
pub fn parallel_indexed_map<T, F>(jobs: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = resolve_threads(threads, jobs);
    if threads <= 1 {
        return (0..jobs).map(f).collect();
    }
    let f = &f;
    let mut indexed: Vec<(usize, T)> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for worker in 0..threads {
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                let mut i = worker;
                while i < jobs {
                    local.push((i, f(i)));
                    i += threads;
                }
                local
            }));
        }
        for h in handles {
            indexed.extend(h.join().expect("parallel worker panicked"));
        }
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order_for_any_thread_count() {
        for threads in [0, 1, 3, 16] {
            let out = parallel_indexed_map(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(parallel_indexed_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn thread_resolution_clamps_to_jobs() {
        assert_eq!(resolve_threads(8, 3), 3);
        assert_eq!(resolve_threads(2, 100), 2);
        assert!(resolve_threads(0, 100) >= 1);
        assert_eq!(resolve_threads(0, 0), 1);
    }

    #[test]
    fn borrowed_inputs_need_no_static_bound() {
        let data: Vec<String> = (0..10).map(|i| format!("v{i}")).collect();
        let out = parallel_indexed_map(data.len(), 4, |i| data[i].len());
        assert_eq!(out, vec![2; 10]);
    }
}

//! Scoped fan-out over the crossbeam channel substrate.
//!
//! [`parallel_map`] is the execution model behind parallel frontier
//! construction ([`crate::FrontierSolver::characterize_all`]): a scoped
//! worker pool pulls item indices from a shared crossbeam channel and
//! sends index-tagged results back, so independent per-pipeline solves
//! run concurrently while results land in input order. Scoped threads
//! mean no `'static` bounds — borrowed [`crate::PlanContext`]s flow
//! straight into the workers — and a panicking worker propagates its
//! panic to the caller when the scope joins.

/// Applies `f` to every item on a scoped worker pool and returns the
/// results in input order.
///
/// Work is distributed dynamically (a shared index channel), so uneven
/// per-item cost — short and long pipeline sweeps mixed — balances
/// automatically. With zero or one item, or on a single-core host, `f`
/// runs inline on the caller's thread.
///
/// # Panics
///
/// Re-raises the first panic from `f` after the scope joins.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let (task_tx, task_rx) = crossbeam::channel::unbounded::<usize>();
    let (done_tx, done_rx) = crossbeam::channel::unbounded::<(usize, R)>();
    for i in 0..n {
        task_tx.send(i).expect("receiver alive until scope end");
    }
    // Closing the task channel is what terminates the workers' recv loops.
    drop(task_tx);

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let task_rx = task_rx.clone();
            let done_tx = done_tx.clone();
            let f = &f;
            scope.spawn(move || {
                while let Ok(i) = task_rx.recv() {
                    // A send can only fail if the collector bailed out
                    // (a sibling panicked); stop producing and let the
                    // scope surface that panic.
                    if done_tx.send((i, f(&items[i]))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done_tx);
        drop(task_rx);
        // Drains until every worker has dropped its sender — i.e. all
        // tasks are finished or a worker died.
        while let Ok((i, r)) = done_rx.recv() {
            results[i] = Some(r);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("scope joined cleanly, so every index was delivered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::parallel_map;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map::<u32, u32, _>(&[], |&x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn borrows_caller_state() {
        let base = [10u64, 20, 30];
        let items = [0usize, 1, 2];
        let out = parallel_map(&items, |&i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&items, |&x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }
}

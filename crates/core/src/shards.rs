//! Work-stealing index distribution, and the one ordered parallel map
//! every module driver runs on ([`WorkShards::map_ordered`]).
//!
//! The first parallel drivers handed out function indices through a single
//! `AtomicUsize::fetch_add` — fair, but every worker contends on one cache
//! line, and a worker that draws a string of heavyweight functions cannot
//! shed them. [`WorkShards`] replaces that with per-worker deques seeded
//! with **contiguous chunks** of the index space: each worker drains its
//! own shard from the front (preserving module order locally, which keeps
//! the per-function clone/optimize loop cache-friendly) and, when empty,
//! steals from the **back** of a sibling's shard — so thieves take the
//! work farthest from where the owner is currently operating.
//!
//! Determinism of the drivers is unaffected: [`WorkShards::map_ordered`]
//! lands results in per-index slots and returns them in index order, so
//! the stealing schedule can never leak into the output. Every index in
//! `0..items` is produced exactly once across all workers.

use std::collections::VecDeque;
use std::sync::Mutex;

/// A sharded work list of indices `0..items` for `workers` cooperating
/// threads.
///
/// ```
/// use epre::WorkShards;
///
/// let shards = WorkShards::new(5, 2);
/// let mut seen: Vec<usize> = std::iter::from_fn(|| shards.pop(0)).collect();
/// seen.sort_unstable();
/// assert_eq!(seen, vec![0, 1, 2, 3, 4]); // owner drains its shard, then steals
/// ```
#[derive(Debug)]
pub struct WorkShards {
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl WorkShards {
    /// Split `0..items` into `workers` contiguous shards (the first
    /// `items % workers` shards get one extra index).
    pub fn new(items: usize, workers: usize) -> Self {
        let workers = workers.max(1);
        let base = items / workers;
        let extra = items % workers;
        let mut queues = Vec::with_capacity(workers);
        let mut next = 0usize;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            queues.push(Mutex::new((next..next + len).collect()));
            next += len;
        }
        debug_assert_eq!(next, items);
        WorkShards { queues }
    }

    /// Map `item` over `0..items` on up to `jobs` scoped worker threads
    /// and return the results in index order.
    ///
    /// Each worker calls `init` once, on its own thread, and threads the
    /// state it returns through every item it takes (a driver builds its
    /// pass list there, once per worker rather than once per function).
    /// With `jobs <= 1`, or at most one item, everything runs inline on
    /// the caller's thread with a single state. A panic in `item`
    /// propagates to the caller once every worker has stopped; drivers
    /// that contain panics catch them inside `item`.
    ///
    /// ```
    /// use epre::WorkShards;
    ///
    /// let squares = WorkShards::map_ordered(6, 3, || (), |(), i| i * i);
    /// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
    /// ```
    pub fn map_ordered<S, R: Send>(
        items: usize,
        jobs: usize,
        init: impl Fn() -> S + Sync,
        item: impl Fn(&mut S, usize) -> R + Sync,
    ) -> Vec<R> {
        let workers = jobs.min(items);
        if workers <= 1 {
            let mut state = init();
            return (0..items).map(|i| item(&mut state, i)).collect();
        }
        let shards = WorkShards::new(items, workers);
        let slots: Vec<Mutex<Option<R>>> = (0..items).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for w in 0..workers {
                let (shards, slots, init, item) = (&shards, &slots, &init, &item);
                s.spawn(move || {
                    let mut state = init();
                    while let Some(i) = shards.pop(w) {
                        let r = item(&mut state, i);
                        *slots[i].lock().expect("result slot poisoned") = Some(r);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("result slot poisoned").expect("worker filled slot"))
            .collect()
    }

    /// Number of shards (== workers at construction).
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Take the next index for `worker`: front of its own shard, else the
    /// back of the first non-empty sibling (scanning from `worker + 1`,
    /// wrapping). `None` means all shards are drained and the worker can
    /// exit.
    pub fn pop(&self, worker: usize) -> Option<usize> {
        let w = worker % self.queues.len();
        if let Some(i) = self.queues[w].lock().expect("shard poisoned").pop_front() {
            return Some(i);
        }
        for off in 1..self.queues.len() {
            let victim = (w + off) % self.queues.len();
            if let Some(i) = self.queues[victim].lock().expect("shard poisoned").pop_back() {
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_index_exactly_once_single_worker() {
        let shards = WorkShards::new(7, 3);
        let mut seen = Vec::new();
        while let Some(i) = shards.pop(0) {
            seen.push(i);
        }
        let set: HashSet<usize> = seen.iter().copied().collect();
        assert_eq!(seen.len(), 7);
        assert_eq!(set.len(), 7);
        assert!(set.contains(&0) && set.contains(&6));
    }

    #[test]
    fn owner_takes_front_thief_takes_back() {
        let shards = WorkShards::new(8, 2); // shards: [0..4), [4..8)
        assert_eq!(shards.pop(0), Some(0)); // owner front
        assert_eq!(shards.pop(1), Some(4)); // owner front
        // Drain worker 0's shard, then it must steal from the BACK of 1's.
        assert_eq!(shards.pop(0), Some(1));
        assert_eq!(shards.pop(0), Some(2));
        assert_eq!(shards.pop(0), Some(3));
        assert_eq!(shards.pop(0), Some(7)); // stolen
        assert_eq!(shards.pop(1), Some(5)); // owner unaffected at the front
    }

    #[test]
    fn more_workers_than_items_and_empty() {
        let shards = WorkShards::new(2, 8);
        let mut seen: Vec<usize> = std::iter::from_fn(|| shards.pop(5)).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(shards.pop(0), None);
        let empty = WorkShards::new(0, 4);
        assert_eq!(empty.pop(0), None);
        // workers = 0 clamps to 1.
        let one = WorkShards::new(3, 0);
        assert_eq!(one.workers(), 1);
        assert_eq!(one.pop(0), Some(0));
    }

    #[test]
    fn map_ordered_returns_index_order_with_per_worker_state() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        for jobs in [0, 1, 2, 4, 64] {
            let inits = AtomicUsize::new(0);
            let out = WorkShards::map_ordered(
                50,
                jobs,
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, i| i * 10,
            );
            assert_eq!(out, (0..50).map(|i| i * 10).collect::<Vec<_>>(), "jobs {jobs}");
            // One state per worker: inline below two jobs, never more
            // states than items.
            assert_eq!(inits.into_inner(), jobs.clamp(1, 50), "jobs {jobs}");
        }
        assert!(WorkShards::map_ordered(0, 4, || (), |(), i| i).is_empty());
    }

    #[test]
    fn map_ordered_inline_path_runs_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let ids = WorkShards::map_ordered(3, 1, || (), |(), _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn concurrent_drain_produces_each_index_once() {
        let shards = WorkShards::new(1000, 4);
        let collected: Vec<Vec<usize>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|w| {
                    let shards = &shards;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        while let Some(i) = shards.pop(w) {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
        });
        let all: Vec<usize> = collected.into_iter().flatten().collect();
        let set: HashSet<usize> = all.iter().copied().collect();
        assert_eq!(all.len(), 1000);
        assert_eq!(set.len(), 1000);
    }
}

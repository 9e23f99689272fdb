//! A small scoped thread pool for embarrassingly parallel sweeps.
//!
//! The benchmark harness runs `schemes × workloads` matrices and
//! sensitivity sweeps whose tasks are independent, CPU-bound, and
//! deterministic given their inputs. This crate provides exactly the
//! primitive that needs — [`Pool::map`]: fan a list of items out to a
//! fixed set of `std::thread` workers and hand the results back **in input
//! order**, no matter which worker finished first — with zero external
//! dependencies (std threads and channels only).
//!
//! # Worker count
//!
//! The caller picks the width: [`Pool::new`] takes it explicitly, and
//! the crate reads no environment. `Pool::new(1)` is the strictly
//! sequential path: items run on the calling thread, in order, with no
//! worker threads spawned at all — useful both for debugging and as the
//! reference ordering that the parallel path must reproduce.
//!
//! # Determinism
//!
//! `map` promises `results[i] == f(i, items[i])` with results positioned
//! by input index. As long as `f` itself is deterministic (the harness
//! seeds every task's RNG from its input, never from global state), the
//! output of a parallel run is bit-for-bit identical to a sequential run.
//! The scheduling order of tasks across workers is *not* specified.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// A fixed-width scoped thread pool.
///
/// The pool holds no threads between calls: each [`map`] spawns scoped
/// workers, drains the task list, and joins them before returning, so
/// borrowed data (traces, configs) can be captured by reference without
/// `'static` bounds.
///
/// [`map`]: Pool::map
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with an explicit worker count (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Number of workers `map` will use.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// With one worker (or zero/one items) this runs sequentially on the
    /// calling thread. Otherwise scoped workers pull items off a shared
    /// cursor and send `(index, result)` pairs back over a channel; the
    /// caller reassembles them by index, so completion order never leaks
    /// into the output.
    ///
    /// # Panics
    ///
    /// Panics if `f` panics on any item (the panic is propagated when the
    /// scope joins its workers).
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| {
                    let _task = readduo_telemetry::trace::phase("pool.task");
                    let out = f(i, item);
                    readduo_telemetry::metrics::counter_add("pool.tasks", 1);
                    out
                })
                .collect();
        }
        // Hand items to workers through per-slot mutexes: the atomic cursor
        // assigns each index to exactly one worker, which then takes the
        // item out of its slot. No unsafe, no cloning, no 'static bound.
        let slots: Vec<Mutex<Option<I>>> =
            items.into_iter().map(|item| Mutex::new(Some(item))).collect();
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
        std::thread::scope(|scope| {
            for w in 0..self.workers.min(n) {
                let tx = tx.clone();
                let slots = &slots;
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || {
                    // Each worker owns one wall-clock telemetry track; the
                    // per-task spans on it visualise pool utilisation (gaps
                    // = idle workers). All of this is a no-op by default.
                    readduo_telemetry::trace::name_this_thread(&format!("worker-{w}"));
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let item = slots[i]
                            .lock()
                            .expect("task slot poisoned")
                            .take()
                            .expect("task slot claimed twice");
                        let task = readduo_telemetry::trace::phase("pool.task");
                        let result = f(i, item);
                        drop(task);
                        readduo_telemetry::metrics::counter_add("pool.tasks", 1);
                        // If the receiver is gone the run is unwinding; stop.
                        if tx.send((i, result)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (i, value) in rx {
                out[i] = Some(value);
            }
        });
        out.into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("task {i} produced no result")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn map_preserves_input_order_sequentially() {
        let p = Pool::new(1);
        assert_eq!(p.workers(), 1);
        let out = p.map(vec![1, 2, 3, 4], |i, x| (i, x * 10));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn ordered_results_survive_out_of_order_completion() {
        // Early tasks sleep longest, so later tasks finish first; the
        // output must still come back in input order.
        let p = Pool::new(4);
        let items: Vec<u64> = (0..8).collect();
        let out = p.map(items, |i, x| {
            std::thread::sleep(Duration::from_millis(40u64.saturating_sub(5 * i as u64)));
            x * x
        });
        assert_eq!(out, (0..8).map(|x: u64| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_sequential() {
        let work = |i: usize, x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(i as u32);
        let items: Vec<u64> = (0..100).collect();
        let seq = Pool::new(1).map(items.clone(), work);
        let par = Pool::new(7).map(items, work);
        assert_eq!(seq, par);
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Pool::new(3).map((0..64).collect::<Vec<i32>>(), |_, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 64);
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn borrows_without_static_lifetime() {
        // Results may borrow the captured context: the scope guarantees
        // workers join before `map` returns.
        let context: Vec<String> = (0..6).map(|i| format!("w{i}")).collect();
        let out = Pool::new(2).map((0..6usize).collect(), |_, i| context[i].as_str());
        assert_eq!(out[5], "w5");
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let p = Pool::new(8);
        assert_eq!(p.map(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(p.map(vec![9], |i, x| x + i as i32), vec![9]);
    }

    #[test]
    fn worker_count_clamped_to_one() {
        assert_eq!(Pool::new(0).workers(), 1);
    }
}

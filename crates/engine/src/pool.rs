//! A fixed-size worker pool with per-worker sharded queues.
//!
//! The serving layer needs long-lived threads for two jobs: handling
//! connections (`ddc-server`) and executing the shards of
//! [`crate::Engine::search_batch_parallel_with`]. Both are throughput work —
//! many independent tasks — so the pool deliberately skips work stealing:
//! each worker owns one queue, submitters place each task once (on the
//! least-loaded queue, ties broken round-robin), and a task never
//! migrates after placement. That keeps the hot path to one mutex +
//! condvar per task with zero cross-worker coordination, while the load
//! signal steers short tasks away from workers pinned by long-running
//! ones (an idle keep-alive connection, a slow shard).
//!
//! Deadlock note: jobs must not *block* on other jobs in the same pool.
//! The parallel batch path obeys this by construction — the submitting
//! thread participates in its own batch (claiming shards from a shared
//! cursor), so every batch completes even when all workers are busy.
//!
//! ```
//! use ddc_engine::WorkerPool;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//!
//! let pool = WorkerPool::new(2);
//! let hits = Arc::new(AtomicUsize::new(0));
//! for _ in 0..16 {
//!     let hits = hits.clone();
//!     pool.submit(Box::new(move || {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     }));
//! }
//! drop(pool); // joins the workers, draining every queued job first
//! assert_eq!(hits.load(Ordering::Relaxed), 16);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The unit of pool work: a boxed, owned closure.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct ShardState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    available: Condvar,
    /// Queued plus in-flight jobs — the placement signal. A worker pinned
    /// by a long-running job (e.g. an idle keep-alive connection) keeps a
    /// nonzero load, steering new work to free workers.
    load: AtomicUsize,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            state: Mutex::new(ShardState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            load: AtomicUsize::new(0),
        }
    }
}

/// Fixed-size thread pool: `n` workers, `n` queues, least-loaded
/// placement (round-robin tie-break), no work stealing.
///
/// Dropping the pool shuts it down gracefully: every already-queued job
/// still runs, then the workers exit and are joined.
pub struct WorkerPool {
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped up to 1).
    pub fn new(threads: usize) -> WorkerPool {
        let threads = threads.max(1);
        let shards: Vec<Arc<Shard>> = (0..threads).map(|_| Arc::new(Shard::new())).collect();
        let workers = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                std::thread::Builder::new()
                    .name(format!("ddc-pool-{i}"))
                    .spawn(move || worker_loop(&shard))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shards,
            workers,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job on the least-loaded queue (ties broken round-robin).
    ///
    /// Placement is final — there is no stealing — so the load signal
    /// (queued + in-flight per worker) is what keeps short jobs from
    /// queueing behind a worker pinned by a long-running one. Jobs run in
    /// submission order within one queue; ordering across queues is
    /// unspecified.
    pub fn submit(&self, job: Job) {
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        let n = self.shards.len();
        let mut best = start % n;
        let mut best_load = self.shards[best].load.load(Ordering::Relaxed);
        for off in 1..n {
            let i = (start + off) % n;
            let load = self.shards[i].load.load(Ordering::Relaxed);
            if load < best_load {
                best = i;
                best_load = load;
            }
        }
        let shard = &self.shards[best];
        shard.load.fetch_add(1, Ordering::Relaxed);
        let mut state = shard.state.lock().expect("pool queue poisoned");
        state.queue.push_back(job);
        drop(state);
        shard.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for shard in &self.shards {
            if let Ok(mut state) = shard.state.lock() {
                state.shutdown = true;
            }
            shard.available.notify_all();
        }
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            // The pool can be dropped *from inside a job* — e.g. when the
            // last owner of a server's shared state is a connection job.
            // Joining the current thread would deadlock it forever; skip
            // it (this worker exits on its own right after this drop, and
            // dropping its handle detaches it).
            if worker.thread().id() == me {
                continue;
            }
            // A worker that died to a panicking job already surfaced the
            // panic message; don't double-panic the pool teardown.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shard: &Shard) {
    let mut state = shard.state.lock().expect("pool queue poisoned");
    loop {
        if let Some(job) = state.queue.pop_front() {
            drop(state);
            // One panicking job must not retire the worker: the pool is
            // fixed-size, so a lost thread is lost capacity forever.
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                eprintln!("ddc-engine worker: job panicked (worker continues)");
            }
            shard.load.fetch_sub(1, Ordering::Relaxed);
            state = shard.state.lock().expect("pool queue poisoned");
        } else if state.shutdown {
            return;
        } else {
            state = shard.available.wait(state).expect("pool queue poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_jobs_across_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let count = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let count = count.clone();
            pool.submit(Box::new(move || {
                count.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool);
        assert_eq!(count.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        pool.submit(Box::new(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }));
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(Box::new(|| panic!("job goes down")));
        let ran = Arc::new(AtomicUsize::new(0));
        let r = ran.clone();
        pool.submit(Box::new(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }));
        drop(pool);
        assert_eq!(ran.load(Ordering::Relaxed), 1, "worker survived the panic");
    }

    #[test]
    fn dropping_the_pool_from_inside_a_worker_does_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let inner = Arc::clone(&pool);
        pool.submit(Box::new(move || {
            // Give the main thread time to drop its Arc so this job holds
            // the last one and WorkerPool::drop runs on a worker thread.
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(inner);
            tx.send(()).unwrap();
        }));
        drop(pool);
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("pool drop inside a worker deadlocked");
    }

    #[test]
    fn jobs_on_one_queue_run_in_submission_order() {
        // One worker → one queue → strict FIFO.
        let pool = WorkerPool::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let log = log.clone();
            pool.submit(Box::new(move || log.lock().unwrap().push(i)));
        }
        drop(pool);
        assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }
}

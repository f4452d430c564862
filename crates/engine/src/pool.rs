//! A fixed-size worker pool over one shared FIFO queue.
//!
//! The server runs every request handler as a pool job. One queue shared
//! by all workers means a job waits only while *every* worker is busy: a
//! search never queues behind an `/admin/swap` rebuild or an
//! `/admin/compact` on one worker while another sits idle. Jobs start in
//! submission order; a job must not block on another job of the same
//! pool.
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
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The unit of pool work: a boxed, owned closure.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    available: Condvar,
}

/// Fixed-size thread pool: `n` workers taking jobs from one FIFO queue.
///
/// Dropping the pool shuts it down gracefully: every already-queued job
/// still runs, then the workers exit and are joined.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
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
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ddc-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job at the back of the queue; the next free worker
    /// takes it.
    pub fn submit(&self, job: Job) {
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        queue.jobs.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Ok(mut queue) = self.shared.queue.lock() {
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        let me = std::thread::current().id();
        for worker in self.workers.drain(..) {
            // The pool can be dropped *from inside a job* — e.g. when the
            // last owner of a server's shared state is a handler job.
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

fn worker_loop(shared: &Shared) {
    let mut queue = shared.queue.lock().expect("pool queue poisoned");
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            // One panicking job must not retire the worker: the pool is
            // fixed-size, so a lost thread is lost capacity forever.
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                eprintln!("ddc-engine worker: job panicked (worker continues)");
            }
            queue = shared.queue.lock().expect("pool queue poisoned");
        } else if queue.shutdown {
            return;
        } else {
            queue = shared.available.wait(queue).expect("pool queue poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

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
        // One worker → strict FIFO.
        let pool = WorkerPool::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let log = log.clone();
            pool.submit(Box::new(move || log.lock().unwrap().push(i)));
        }
        drop(pool);
        assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn a_queued_job_takes_the_first_worker_that_frees_up() {
        // Worker A stays pinned; worker B is busy until the third job is
        // queued, then frees up. The third job must run on B, not wait
        // behind A.
        let pool = WorkerPool::new(2);
        let (release_a, pinned) = mpsc::channel::<()>();
        let (release_b, busy) = mpsc::channel::<()>();
        let (done, ran) = mpsc::channel::<()>();
        pool.submit(Box::new(move || {
            let _ = pinned.recv_timeout(Duration::from_secs(20));
        }));
        pool.submit(Box::new(move || {
            let _ = busy.recv_timeout(Duration::from_secs(20));
        }));
        pool.submit(Box::new(move || done.send(()).unwrap()));
        release_b.send(()).unwrap();
        let outcome = ran.recv_timeout(Duration::from_secs(10));
        release_a.send(()).unwrap();
        outcome.expect("the job waited behind the pinned worker");
    }
}

//! A fixed-size worker thread pool fed by an `mpsc` channel.
//!
//! std-only: a shared `Mutex<Receiver>` gives "multiple consumer" semantics
//! on top of the standard single-consumer channel. Workers exit when every
//! sender is dropped and the queue is drained, which is exactly the shape
//! graceful shutdown needs: drop the sender, then [`WorkerPool::join`].

use crate::sync::{rank, OrderedMutex};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A fixed set of worker threads applying one job function to queued items.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads running `job` on submitted items.
    ///
    /// Returns the pool and the sending half used to submit work. The queue
    /// is bounded at `2 * workers` pending items, so producers get
    /// backpressure (`send` blocks, `try_send` errors) instead of an
    /// unbounded buffer. Workers stop once every clone of the sender is
    /// dropped and the queue is empty.
    ///
    /// Errors if the OS refuses to spawn a worker thread; already spawned
    /// workers wind down through the usual channel-disconnect path once the
    /// returned sender (never handed out on error) is dropped.
    pub fn spawn<T, F>(workers: usize, job: F) -> std::io::Result<(WorkerPool, SyncSender<T>)>
    where
        T: Send + 'static,
        F: Fn(T) + Send + Sync + 'static,
    {
        let (sender, receiver): (SyncSender<T>, Receiver<T>) = sync_channel(workers.max(1) * 2);
        let receiver = Arc::new(OrderedMutex::new(rank::RECEIVER, "receiver", receiver));
        let job = Arc::new(job);
        let handles = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let job = Arc::clone(&job);
                std::thread::Builder::new()
                    .name(format!("vaq-service-worker-{i}"))
                    .spawn(move || loop {
                        // Take the lock only to pop one item, then release it
                        // before running the job so workers serve in parallel.
                        let item = receiver.lock().recv();
                        match item {
                            Ok(item) => job(item),
                            Err(_) => break,
                        }
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok((WorkerPool { handles }, sender))
    }

    /// Waits for every worker to exit. Callers must drop all senders first,
    /// or this blocks forever.
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn all_submitted_items_are_processed() {
        let counter = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&counter);
        let (pool, sender) = WorkerPool::spawn(4, move |n: usize| {
            seen.fetch_add(n, Ordering::SeqCst);
        })
        .expect("spawning the pool");
        for i in 0..100 {
            sender.send(i).unwrap();
        }
        drop(sender);
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), (0..100).sum::<usize>());
    }

    #[test]
    fn worker_count_clamps_to_one() {
        // A pool asked for zero workers still runs what it is sent.
        let ran = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&ran);
        let (pool, sender) = WorkerPool::spawn(0, move |_: u8| {
            seen.fetch_add(1, Ordering::SeqCst);
        })
        .expect("spawning the pool");
        sender.send(0).unwrap();
        drop(sender);
        pool.join();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn items_run_concurrently_across_workers() {
        // Two items that each wait for the other prove two workers run at
        // once; with a single worker this would deadlock (bounded by a
        // timeout channel instead of hanging the suite).
        use std::sync::mpsc::channel;
        let (a_tx, a_rx) = channel::<()>();
        let (b_tx, b_rx) = channel::<()>();
        let rendezvous = Arc::new(Mutex::new(Some((a_tx, b_rx))));
        let other = Arc::new(Mutex::new(Some((b_tx, a_rx))));
        let (pool, sender) = WorkerPool::spawn(2, move |which: u8| {
            let slot = if which == 0 { &rendezvous } else { &other };
            let (tx, rx) = slot.lock().unwrap().take().expect("one item per side");
            tx.send(()).unwrap();
            rx.recv_timeout(std::time::Duration::from_secs(5))
                .expect("the other worker must be running concurrently");
        })
        .expect("spawning the pool");
        sender.send(0).unwrap();
        sender.send(1).unwrap();
        drop(sender);
        pool.join();
    }
}

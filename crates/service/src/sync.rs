//! Rank-ordered locking.
//!
//! Every mutex in `vaq-service` carries a **rank**, one of the [`rank`]
//! constants below. A thread may only acquire locks in strictly increasing
//! rank order, which makes the whole-program lock graph acyclic by
//! construction — the property whose absence produced the PR 2 shutdown
//! deadlock. [`OrderedMutex`] asserts the rule on every `debug_assertions`
//! run, so a mis-ordered nesting, however it is reached, dies loudly in
//! tests with a rank diagnostic instead of hanging.
//!
//! In release builds the rank bookkeeping compiles away entirely:
//! [`OrderedMutex::lock`] is a plain `Mutex::lock` plus a poison check.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard};

/// Lock ranks for every lock in `vaq-service`: the only place a lock's
/// rank is declared.
///
/// Lower ranks are acquired first. Gaps of 10 leave room to slot new locks
/// between existing ones without renumbering.
pub mod rank {
    /// The currently serving prover/server snapshot.
    pub const SERVING: u32 = 20;
    /// The signed shard map republished to shard-map requests.
    pub const SHARD_MAP: u32 = 30;
    /// A publication's response cache.
    pub const CACHE: u32 = 40;
    /// The in-memory slow-log capture buffer.
    pub const BUFFER: u32 = 70;
}

#[cfg(debug_assertions)]
mod held {
    //! Per-thread stack of currently held ranked locks.

    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn acquire(rank: u32, name: &'static str) {
        HELD.with(|held| {
            let mut held = held.borrow_mut();
            if let Some(&(top_rank, top_name)) = held.last() {
                assert!(
                    rank > top_rank,
                    "lock-order violation: acquiring '{name}' (rank {rank}) while holding \
                     '{top_name}' (rank {top_rank}); ranks must strictly increase \
                     (see vaq_service::sync::rank)"
                );
            }
            held.push((rank, name));
        });
    }

    pub(super) fn release(rank: u32, name: &'static str) {
        HELD.with(|held| {
            let popped = held.borrow_mut().pop();
            // Ranks strictly increase inward, so guards drop innermost-first
            // and the popped entry must be the one being released. Skip the
            // check while unwinding: a poisoned-lock panic already owns the
            // thread and a double panic would abort without a message.
            if !std::thread::panicking() {
                assert_eq!(
                    popped,
                    Some((rank, name)),
                    "lock-order tracking desync releasing '{name}' (rank {rank})"
                );
            }
        });
    }
}

/// A [`Mutex`] that participates in the workspace lock-rank order.
///
/// Under `debug_assertions`, [`lock`](Self::lock) panics if the calling
/// thread already holds a lock of equal or higher rank; in release builds
/// the check compiles away. Poisoned locks panic in both profiles: a peer
/// thread died mid-update, and serving with a possibly torn invariant is
/// worse than dying loudly.
pub struct OrderedMutex<T> {
    rank: u32,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex with the given rank and diagnostic name.
    ///
    /// `rank` should be one of the [`rank`] constants and `name` that
    /// constant's name in lower case.
    pub fn new(rank: u32, name: &'static str, value: T) -> Self {
        OrderedMutex {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, asserting rank order in debug builds.
    pub fn lock(&self) -> OrderedGuard<'_, T> {
        // Register before blocking: if this acquisition is mis-ordered we
        // want the rank panic, not a silent deadlock while waiting.
        #[cfg(debug_assertions)]
        held::acquire(self.rank, self.name);
        let inner = self.inner.lock();
        #[cfg(debug_assertions)]
        if inner.is_err() {
            held::release(self.rank, self.name);
        }
        #[expect(
            clippy::panic,
            reason = "a peer panicked mid-update; serving torn state is worse than dying"
        )]
        let inner = inner.unwrap_or_else(|_| panic!("lock '{}' is poisoned", self.name));
        OrderedGuard { lock: self, inner }
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("name", &self.name)
            .field("rank", &self.rank)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for an [`OrderedMutex`]; unlocks (and pops the rank stack) on
/// drop.
pub struct OrderedGuard<'a, T> {
    lock: &'a OrderedMutex<T>,
    inner: MutexGuard<'a, T>,
}

impl<T> Deref for OrderedGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T> Drop for OrderedGuard<'_, T> {
    fn drop(&mut self) {
        // The rank stack pops here; the std guard unlocks when the field
        // drops right after.
        #[cfg(debug_assertions)]
        held::release(self.lock.rank, self.lock.name);
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedGuard")
            .field("name", &self.lock.name)
            .field("value", &**self)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_through_semantics() {
        let lock = OrderedMutex::new(rank::CACHE, "cache", 41u32);
        {
            let mut guard = lock.lock();
            assert_eq!(*guard, 41);
            *guard += 1;
        }
        assert_eq!(*lock.lock(), 42);
        assert!(format!("{lock:?}").contains("cache"));
    }

    #[test]
    fn ascending_nesting_is_permitted() {
        let low = OrderedMutex::new(rank::SERVING, "serving", 1u32);
        let high = OrderedMutex::new(rank::CACHE, "cache", 2u32);
        let a = low.lock();
        let b = high.lock();
        assert_eq!(*a + *b, 3);
        // Drop order does not matter for correctness, only acquire order;
        // out-of-order drops are rejected by the tracking, so release
        // innermost-first here.
        drop(b);
        drop(a);
        // Re-acquiring after release works (the stack is empty again).
        let _ = high.lock();
    }

    #[test]
    fn ranks_are_strictly_ordered_along_the_nesting_chain() {
        // The deepest legal nesting chain in vaq-service; strictly increasing
        // ranks are what make the lock graph acyclic.
        let chain = [rank::SERVING, rank::SHARD_MAP, rank::CACHE, rank::BUFFER];
        for pair in chain.windows(2) {
            assert!(pair[0] < pair[1], "ranks must strictly increase: {chain:?}");
        }
    }

    #[cfg(debug_assertions)]
    mod rank_violations {
        use super::*;

        fn panic_message(result: std::thread::Result<()>) -> String {
            let payload = result.expect_err("nesting should have panicked");
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }

        #[test]
        fn descending_nesting_panics_with_rank_diagnostic() {
            let message = panic_message(
                std::thread::spawn(|| {
                    let high = OrderedMutex::new(rank::BUFFER, "buffer", ());
                    let low = OrderedMutex::new(rank::SHARD_MAP, "shard_map", ());
                    let _outer = high.lock();
                    let _inner = low.lock();
                })
                .join(),
            );
            assert!(
                message.contains("lock-order violation"),
                "unexpected panic message: {message}"
            );
            assert!(message.contains("'shard_map' (rank 30)"), "{message}");
            assert!(message.contains("'buffer' (rank 70)"), "{message}");
        }

        #[test]
        fn equal_rank_reentry_panics() {
            let message = panic_message(
                std::thread::spawn(|| {
                    let a = OrderedMutex::new(rank::BUFFER, "buffer", ());
                    let b = OrderedMutex::new(rank::BUFFER, "buffer", ());
                    let _outer = a.lock();
                    let _inner = b.lock();
                })
                .join(),
            );
            assert!(message.contains("lock-order violation"), "{message}");
        }

        /// The PR 2 shutdown deadlock, replayed through ranked locks.
        ///
        /// The original bug: shutdown held the serving snapshot lock and
        /// then reached for a worker-side lock, while a worker held that
        /// lock and wanted the serving snapshot — a classic AB/BA hang that
        /// froze the suite until a timeout. Under ranked locks the very
        /// first mis-ordered acquisition (cache → serving, rank 40 → 20)
        /// aborts immediately with a diagnostic naming both locks and
        /// ranks, in a single thread, with no second thread needed to
        /// exhibit the hang.
        #[test]
        fn pr2_shutdown_shaped_nesting_aborts_with_diagnostic() {
            let message = panic_message(
                std::thread::spawn(|| {
                    let cache = OrderedMutex::new(rank::CACHE, "cache", ());
                    let serving = OrderedMutex::new(rank::SERVING, "serving", ());
                    // Worker-shaped order: worker-side lock first, snapshot
                    // second. Shutdown orders them the other way.
                    let _cache = cache.lock();
                    let _snapshot = serving.lock();
                })
                .join(),
            );
            assert!(message.contains("lock-order violation"), "{message}");
            assert!(message.contains("'serving' (rank 20)"), "{message}");
            assert!(message.contains("'cache' (rank 40)"), "{message}");
        }

        #[test]
        fn rank_stack_resets_after_violation_panic() {
            // A violation panics before pushing, so the same thread can
            // keep using correctly-ordered locks afterwards.
            let low = OrderedMutex::new(rank::SERVING, "serving", ());
            let high = OrderedMutex::new(rank::CACHE, "cache", ());
            {
                let _outer = high.lock();
                let inner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = low.lock();
                }));
                assert!(inner.is_err(), "descending acquisition must panic");
            }
            // Fresh locks, correct order: must succeed on this same thread.
            let _a = low.lock();
            let _b = high.lock();
        }
    }
}

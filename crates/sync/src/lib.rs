//! Std-only synchronisation primitives for the DPX10 workspace.
//!
//! The repository builds in fully offline environments, so the runtime
//! cannot pull `crossbeam` or `parking_lot` from a registry. This crate
//! provides the small API surface those crates were used for, built on
//! `std::sync` alone:
//!
//! * [`Mutex`] / [`Condvar`] — `parking_lot`-style (no lock poisoning,
//!   `lock()` returns the guard directly).
//! * [`channel`] — multi-producer single-consumer channels with the
//!   `crossbeam-channel` calling conventions (`Sender` is `Clone`,
//!   `recv_timeout`, `len`).
//!
//! The implementations favour simplicity and correctness over raw
//! throughput; every queue is a `VecDeque` behind a `Mutex`, and a
//! channel wakes only a thread blocked on it, so an uncontended hop
//! makes no syscall. dpxbench's probes on a 2-vCPU x86-64 host: a
//! [`Mutex`] lock/unlock 20 ns; a channel hop 48–51 ns on one thread
//! (490–580 ns when every send made a `futex` call), 190–330 ns between
//! two. Neither is paid per local vertex: a worker owns its shard. The
//! runtime takes a [`Mutex`] or [`Condvar`] only off the vertex path
//! (mailboxes, the coalescer, membership, checkpoint files), and a
//! channel hop per message: a socket frame pays two, the sending
//! worker's into its link's outbox and the receiving socket reader's
//! into its run's channel.

#![warn(missing_docs)]

pub mod channel;

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// A mutual-exclusion lock in the `parking_lot` style: `lock()` returns
/// the guard directly and panicking while holding the lock does not
/// poison it for other threads.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// The guard is stored as an `Option` so [`Condvar::wait`] can hand it
/// to `std::sync::Condvar` (which consumes and returns guards by value)
/// while our API takes `&mut` like `parking_lot`. The option is only
/// ever `None` transiently inside `Condvar` methods.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(p) => p.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(match self.inner.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            }),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard present outside wait")
    }
}

/// A condition variable paired with [`Mutex`], mirroring the
/// `parking_lot` API (`wait` takes the guard by `&mut`).
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Blocks until notified, releasing the guard while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let owned = guard.inner.take().expect("guard present outside wait");
        guard.inner = Some(match self.inner.wait(owned) {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        });
    }

    /// Blocks until notified or `timeout` elapses. Returns `true` when
    /// the wait **timed out** (matching `parking_lot::WaitTimeoutResult`).
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        let owned = guard.inner.take().expect("guard present outside wait");
        let (fresh, timed_out) = match self.inner.wait_timeout(owned, timeout) {
            Ok((g, res)) => (g, res.timed_out()),
            Err(p) => {
                let (g, res) = p.into_inner();
                (g, res.timed_out())
            }
        };
        guard.inner = Some(fresh);
        timed_out
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiting thread.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

/// An unbounded MPMC queue (stand-in for `crossbeam::queue::SegQueue`).
/// The runtime no longer uses it; it is kept for dpxbench's
/// `sync.segqueue_ns` probe alone.
#[doc(hidden)]
pub struct SegQueue<T> {
    items: Mutex<VecDeque<T>>,
    len: AtomicUsize,
}

impl<T> SegQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        SegQueue {
            items: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// Appends an element to the back of the queue.
    pub fn push(&self, value: T) {
        self.items.lock().push_back(value);
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Pops an element from the front of the queue.
    pub fn pop(&self) -> Option<T> {
        let popped = self.items.lock().pop_front();
        if popped.is_some() {
            self.len.fetch_sub(1, Ordering::Relaxed);
        }
        popped
    }

    /// Number of queued elements (racy snapshot, like crossbeam's).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the queue is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for SegQueue<T> {
    fn default() -> Self {
        SegQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_and_condvar_signal() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let h = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        thread::sleep(Duration::from_millis(10));
        *pair.0.lock() = true;
        pair.1.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)));
    }

    #[test]
    fn segqueue_fifo_across_threads() {
        let q = Arc::new(SegQueue::new());
        let q2 = q.clone();
        let h = thread::spawn(move || {
            for i in 0..1000u32 {
                q2.push(i);
            }
        });
        h.join().unwrap();
        assert_eq!(q.len(), 1000);
        let mut last = None;
        while let Some(v) = q.pop() {
            if let Some(prev) = last {
                assert!(v > prev);
            }
            last = Some(v);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn mutex_survives_holder_panic() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("drop while locked");
        })
        .join();
        assert_eq!(*m.lock(), 7);
    }
}

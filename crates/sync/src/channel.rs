//! Multi-producer single-consumer channels with `crossbeam-channel`
//! calling conventions, built on `Mutex` + `Condvar`.
//!
//! [`Sender`] is `Clone`; [`Receiver`] is not: every queue in the
//! runtime has one reader. Disconnection follows crossbeam's rules: a
//! receive on an empty channel whose senders are all gone fails with
//! `Disconnected`; a send into a channel whose receiver is gone fails
//! with [`SendError`].
//!
//! **Notify only under a counted waiter.** A thread counts itself into
//! `recv_waiting` or `send_waiting` under the queue lock before its
//! `Condvar` wait, and out after it; a push notifies only while
//! `recv_waiting` is non-zero, a pop only while `send_waiting` is. A
//! counted waiter is already inside its wait (the wait released the
//! lock it was counted under), so no wakeup is lost, and an uncontended
//! hop makes no `futex` call (std's condvar makes one per notify, waiter
//! or not). Disconnection notifies every waiter unconditionally.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{Condvar, Mutex};

/// Error returned by [`Sender::send`] when every receiver is gone; the
/// unsent message is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sending on a disconnected channel")
    }
}

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// every sender is gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "receiving on an empty, disconnected channel")
    }
}

/// Error returned by [`Receiver::try_recv`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty but senders remain.
    Empty,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// The channel is empty and every sender is gone.
    Disconnected,
}

/// The queued messages and the threads blocked on them, under one lock.
struct Queue<T> {
    items: VecDeque<T>,
    /// Receivers inside a `not_empty` wait.
    recv_waiting: usize,
    /// Senders inside a `not_full` wait.
    send_waiting: usize,
}

struct Chan<T> {
    queue: Mutex<Queue<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: Option<usize>,
    senders: AtomicUsize,
    receiver_gone: AtomicBool,
}

impl<T> Chan<T> {
    fn no_senders(&self) -> bool {
        self.senders.load(Ordering::Acquire) == 0
    }
    fn no_receiver(&self) -> bool {
        self.receiver_gone.load(Ordering::Acquire)
    }

    /// Pops the oldest message; wakes a blocked sender (rare: under the lock).
    fn pop(&self, queue: &mut Queue<T>) -> Option<T> {
        let value = queue.items.pop_front()?;
        if queue.send_waiting > 0 {
            self.not_full.notify_one();
        }
        Some(value)
    }
}

/// The sending half of a channel. Cloneable.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

/// The receiving half of a channel: the queue's one reader.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded channel: `send` blocks while `cap` messages are
/// queued. A capacity of zero is rounded up to one (our engines never
/// rely on rendezvous semantics).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap.max(1)))
}

fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let chan = Arc::new(Chan {
        queue: Mutex::new(Queue {
            items: VecDeque::new(),
            recv_waiting: 0,
            send_waiting: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        cap,
        senders: AtomicUsize::new(1),
        receiver_gone: AtomicBool::new(false),
    });
    (Sender { chan: chan.clone() }, Receiver { chan })
}

impl<T> Sender<T> {
    /// Sends a message, blocking while a bounded channel is full.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let chan = &*self.chan;
        let mut queue = chan.queue.lock();
        loop {
            if chan.no_receiver() {
                return Err(SendError(value));
            }
            match chan.cap {
                Some(cap) if queue.items.len() >= cap => {
                    // Re-check disconnection at least every 10ms so a
                    // send into a full, abandoned channel cannot hang.
                    queue.send_waiting += 1;
                    chan.not_full
                        .wait_for(&mut queue, Duration::from_millis(10));
                    queue.send_waiting -= 1;
                }
                _ => break,
            }
        }
        queue.items.push_back(value);
        // Notify after unlocking, or the woken receiver blocks on the
        // lock this thread still holds.
        let wake = queue.recv_waiting > 0;
        drop(queue);
        if wake {
            chan.not_empty.notify_one();
        }
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.queue.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.chan.senders.fetch_add(1, Ordering::AcqRel);
        Sender {
            chan: self.chan.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.chan.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender gone: wake every blocked receiver. Taking the
            // queue lock first serialises with a receiver's
            // check-then-wait, so the notification cannot fall between
            // its disconnect check and its wait.
            let guard = self.chan.queue.lock();
            drop(guard);
            self.chan.not_empty.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one arrives or every sender
    /// is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let chan = &*self.chan;
        let mut queue = chan.queue.lock();
        loop {
            if let Some(v) = chan.pop(&mut queue) {
                return Ok(v);
            }
            if chan.no_senders() {
                return Err(RecvError);
            }
            queue.recv_waiting += 1;
            chan.not_empty.wait(&mut queue);
            queue.recv_waiting -= 1;
        }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let chan = &*self.chan;
        if let Some(v) = chan.pop(&mut chan.queue.lock()) {
            return Ok(v);
        }
        if chan.no_senders() {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Receives with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let chan = &*self.chan;
        let mut queue = chan.queue.lock();
        loop {
            if let Some(v) = chan.pop(&mut queue) {
                return Ok(v);
            }
            if chan.no_senders() {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            queue.recv_waiting += 1;
            chan.not_empty.wait_for(&mut queue, deadline - now);
            queue.recv_waiting -= 1;
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.chan.queue.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        // Wake every blocked sender (same lock-then-notify ordering as
        // the sender side).
        self.chan.receiver_gone.store(true, Ordering::Release);
        let guard = self.chan.queue.lock();
        drop(guard);
        self.chan.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let h = thread::spawn(move || tx.send(3));
        assert_eq!(rx.recv(), Ok(1));
        h.join().unwrap().unwrap();
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn recv_timeout_and_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_when_receivers_gone() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }
}

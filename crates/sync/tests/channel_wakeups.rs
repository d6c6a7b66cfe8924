//! A channel wakes only a thread that is counted as blocked, so a
//! wakeup it skips must never be one a thread was waiting for. Each
//! case runs on its own threads under a wall-clock deadline: a lost
//! wakeup fails the test instead of hanging it.

use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

use dpx10_sync::channel::{bounded, unbounded, Receiver, Sender};

const MESSAGES: u32 = 100_000;

/// Generous for every case here (each takes well under a second
/// optimised); a lost wakeup in a blocking `recv` never returns, and
/// one in a bounded `send` costs its 10 ms re-check per message.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `case` on a thread of its own and fails if it does not finish
/// within [`DEADLINE`].
fn within_deadline(what: &str, case: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    thread::spawn(move || {
        case();
        let _ = done.send(());
    });
    finished
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what}: no progress within {DEADLINE:?}: a lost wakeup"));
}

/// Bounces `MESSAGES` values between two threads: each side blocks in
/// `recv` (through `get`) for the other's reply.
fn ping_pong(
    (to_b, at_b): (Sender<u32>, Receiver<u32>),
    (to_a, at_a): (Sender<u32>, Receiver<u32>),
    get: fn(&Receiver<u32>) -> u32,
) {
    let echo = thread::spawn(move || {
        for _ in 0..MESSAGES {
            to_a.send(get(&at_b) + 1).unwrap();
        }
    });
    let mut last = 0;
    for k in 0..MESSAGES {
        to_b.send(k * 2).unwrap();
        last = get(&at_a);
        assert_eq!(last, k * 2 + 1);
    }
    echo.join().unwrap();
    assert_eq!(last, (MESSAGES - 1) * 2 + 1);
}

#[test]
fn blocking_recv_ping_pong_loses_no_wakeup() {
    within_deadline("recv", || {
        ping_pong(unbounded(), unbounded(), |rx| rx.recv().unwrap());
    });
}

#[test]
fn recv_timeout_ping_pong_loses_no_wakeup() {
    within_deadline("recv_timeout", || {
        // Longer than the deadline: a missed wakeup is not rescued by
        // the timeout.
        let get = |rx: &Receiver<u32>| rx.recv_timeout(Duration::from_secs(120)).unwrap();
        ping_pong(unbounded(), unbounded(), get);
    });
}

#[test]
fn a_full_bounded_send_is_woken_by_the_pop() {
    within_deadline("bounded(1) send", || {
        let (tx, rx) = bounded::<u32>(1);
        let producer = thread::spawn(move || {
            for k in 0..MESSAGES {
                tx.send(k).unwrap();
            }
        });
        for k in 0..MESSAGES {
            assert_eq!(rx.recv().unwrap(), k);
        }
        producer.join().unwrap();
    });
}

#[test]
fn a_send_racing_a_receiver_entering_its_wait_is_seen() {
    within_deadline("send vs entering recv", || {
        const ROUNDS: u32 = 20_000;
        let (tx, rx) = unbounded::<u32>();
        let start = Arc::new(Barrier::new(2));
        let go = start.clone();
        let receiver = thread::spawn(move || {
            for k in 0..ROUNDS {
                go.wait();
                assert_eq!(rx.recv().unwrap(), k);
            }
        });
        for k in 0..ROUNDS {
            start.wait();
            // Spin a varying while so the send lands before, inside and
            // after the receiver's check-then-wait.
            for _ in 0..k % 64 {
                std::hint::spin_loop();
            }
            tx.send(k).unwrap();
        }
        receiver.join().unwrap();
    });
}

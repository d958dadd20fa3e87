//! Loom model of the coalesced wake handshake between `TpcServer` workers
//! (DESIGN.md §16.1).
//!
//! Compiled and run only under `RUSTFLAGS="--cfg loom"` (the `loom` CI
//! job). A worker's inbox and wake pipe are reduced to two counters, and
//! the flag is the real [`WakeFlag`] over `kvstore::sync::atomic`:
//!
//! - a sender queues its message, then writes a wake byte only when
//!   `raise` says it raised the flag (`Worker::send` + `wake_peers`);
//! - the receiver runs only when poll would report its pipe readable, and
//!   then reads every pending byte, lowers the flag and drains its inbox
//!   (`WakePipe::drain` then `Worker::drain_inbox`).
//!
//! At quiescence nothing may be stranded: a queued message has a byte
//! pending that will wake the receiver, and a raised flag has a byte
//! pending (otherwise every later sender would skip its byte).
//!
//! | model | protocol checked |
//! |---|---|
//! | `one_sender_two_messages` | one peer sending twice against three receiver rounds |
//! | `two_senders_one_message_each` | two peers racing to raise the same flag |
//! | `seeded_lower_after_inbox_is_caught` | non-vacuity: lowering the flag after the inbox drain strands a message |
//! | `seeded_lower_before_read_is_caught` | non-vacuity: lowering the flag before the read leaves it raised with no byte |
#![cfg(loom)]

use kvstore::reactor::WakeFlag;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Where the receiver lowers the flag within one round.
#[derive(Clone, Copy)]
enum Lower {
    /// After reading the pipe, before the inbox drain (the server's order).
    AfterRead,
    /// Seeded bug: after the inbox drain.
    AfterInbox,
    /// Seeded bug: before reading the pipe.
    BeforeRead,
}

/// One worker's receiving side.
#[derive(Default)]
struct Peer {
    flag: WakeFlag,
    /// Messages in the inbox.
    queued: AtomicUsize,
    /// Wake bytes in the pipe.
    bytes: AtomicUsize,
}

impl Peer {
    fn send(&self) {
        self.queued.fetch_add(1, Ordering::SeqCst);
        if self.flag.raise() {
            self.bytes.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// One wakeup of the receiver; it sleeps in poll while no byte is
    /// pending, so a round without one does nothing.
    fn round(&self, lower: Lower) {
        if self.bytes.load(Ordering::SeqCst) == 0 {
            return;
        }
        if let Lower::BeforeRead = lower {
            self.flag.lower();
        }
        self.bytes.swap(0, Ordering::SeqCst);
        if let Lower::AfterRead = lower {
            self.flag.lower();
        }
        self.queued.swap(0, Ordering::SeqCst);
        if let Lower::AfterInbox = lower {
            self.flag.lower();
        }
    }
}

/// With one message already sent (its wake byte pending), `senders`
/// threads each send `sends` more while the receiver runs `rounds`
/// wakeups; then checks that nothing is stranded.
fn handshake(senders: usize, sends: usize, rounds: usize, lower: Lower) {
    loom::model(move || {
        let peer = Arc::new(Peer::default());
        peer.send();
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                let peer = Arc::clone(&peer);
                loom::thread::spawn(move || {
                    for _ in 0..sends {
                        peer.send();
                    }
                })
            })
            .collect();
        for _ in 0..rounds {
            peer.round(lower);
        }
        for h in handles {
            h.join().expect("sender");
        }
        let pending = peer.bytes.load(Ordering::SeqCst) > 0;
        assert!(
            pending || peer.queued.load(Ordering::SeqCst) == 0,
            "a message is queued with no wake byte pending"
        );
        // A probe send: `raise` returns false only when the flag is up.
        assert!(
            pending || peer.flag.raise(),
            "the flag is up with no wake byte pending: later sends are silent"
        );
    });
}

#[test]
fn one_sender_two_messages() {
    handshake(1, 2, 3, Lower::AfterRead);
}

#[test]
fn two_senders_one_message_each() {
    handshake(2, 1, 2, Lower::AfterRead);
}

#[test]
fn seeded_lower_after_inbox_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        handshake(1, 1, 2, Lower::AfterInbox);
    }));
    assert!(
        result.is_err(),
        "loom failed to catch a flag lowered after the inbox drain — the model is vacuous"
    );
}

#[test]
fn seeded_lower_before_read_is_caught() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        handshake(1, 1, 2, Lower::BeforeRead);
    }));
    assert!(
        result.is_err(),
        "loom failed to catch a flag lowered before the read — the model is vacuous"
    );
}

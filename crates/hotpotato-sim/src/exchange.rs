//! Single-mutex snapshot exchange between a simulation and readers.
//!
//! The engine's step loop is a hot path (`// lint: hot-path` in
//! [`crate::soa`]): it must never block on, or allocate for, an
//! observer. Yet a monitoring service wants a *consistent* view of the
//! live metrics mid-run. This module provides that handoff:
//!
//! * [`SnapshotPublisher`] — the writer half, owned by the simulation
//!   thread. [`SnapshotPublisher::publish_with`] refreshes the snapshot
//!   in place using only `try_lock`: if a reader holds the lock the
//!   publish is *skipped*, never waited on. The step loop therefore runs
//!   at full speed whether or not anyone is scraping.
//! * [`SnapshotReader`] — the (clonable) reader half, handed to HTTP
//!   handler threads. [`SnapshotReader::acquire`] runs the reader's
//!   closure under the same lock.
//!
//! # Protocol
//!
//! One `Mutex<(seq, T)>`. Every write of the snapshot and of its
//! sequence number happens under it, and so does every read, so a torn
//! read is impossible by construction. The sequence number counts the
//! fills that landed (0 is the seed), and a reader's consecutive
//! acquires see it only go up. The price of the single buffer is that a
//! reader holding the lock makes a concurrent publish skip; the next
//! publish after it carries every change, so a skip only delays the
//! reader's view by one publish interval.

use std::sync::{Arc, LockResult, Mutex, PoisonError};

/// The shared snapshot: the number of fills that landed, and the value.
struct Stamped<T> {
    /// 0 while the value is still the seed.
    seq: u64,
    value: T,
}

/// Ignore lock poisoning: a reader closure never writes, and the fills
/// are plain copies that do not panic, so the value under a poisoned lock
/// is still one some fill wrote in full; serving it beats killing every
/// reader.
fn relax<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Writer half of the exchange; owned by the simulation thread.
///
/// Not clonable: exactly one writer exists per exchange.
pub struct SnapshotPublisher<T> {
    shared: Arc<Mutex<Stamped<T>>>,
}

/// Reader half of the exchange; clonable, one per consumer thread.
pub struct SnapshotReader<T> {
    shared: Arc<Mutex<Stamped<T>>>,
}

impl<T> Clone for SnapshotReader<T> {
    fn clone(&self) -> Self {
        SnapshotReader {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Creates an exchange whose readers observe `seed` under sequence
/// number 0 until the first publish lands.
pub fn snapshot_exchange<T>(seed: T) -> (SnapshotPublisher<T>, SnapshotReader<T>) {
    let shared = Arc::new(Mutex::new(Stamped {
        seq: 0,
        value: seed,
    }));
    (
        SnapshotPublisher {
            shared: Arc::clone(&shared),
        },
        SnapshotReader { shared },
    )
}

impl<T> SnapshotPublisher<T> {
    /// Refreshes the snapshot in place via `fill` without ever blocking.
    /// Returns `true` if the fill landed, `false` if a reader held the
    /// lock and this publish was skipped.
    // lint: hot-path
    // lint: no-panic
    pub fn publish_with(&mut self, fill: impl FnOnce(&mut T)) -> bool {
        match self.shared.try_lock() {
            Ok(mut stamped) => {
                fill(&mut stamped.value);
                stamped.seq += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// *Blocking* publish: waits for any in-flight reader, then fills.
    /// After `flush_with` returns, every acquire observes the flushed
    /// snapshot. Never called from a step loop: a live run flushes once,
    /// after it completes, and the fleet coordinator, whose cadence is
    /// one update per run, flushes every update in place.
    // lint: no-panic
    pub fn flush_with(&mut self, fill: impl FnOnce(&mut T)) {
        let mut stamped = relax(self.shared.lock());
        fill(&mut stamped.value);
        stamped.seq += 1;
    }
}

impl<T> SnapshotReader<T> {
    /// Runs `f` over the current snapshot (sequence number first), under
    /// the lock every fill takes, so `f` observes exactly what one fill
    /// wrote. Sequence number 0 means the seed value — nothing has been
    /// published yet.
    ///
    /// A publish that meets a reader inside `f` is skipped, so `f`
    /// should copy what it needs and return.
    // lint: no-panic
    pub fn acquire<R>(&self, f: impl FnOnce(u64, &T) -> R) -> R {
        let stamped = relax(self.shared.lock());
        f(stamped.seq, &stamped.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// Calls `publish` (which reports whether its fill landed) until at
    /// least `min` fills landed and 100 publishes were skipped, so fills
    /// and skips interleave; gives up after 1000 × `min` calls, when no
    /// reader is left to race.
    fn publish_racing(min: u64, mut publish: impl FnMut() -> bool) {
        let (mut calls, mut fills, mut skips) = (0, 0, 0);
        while (fills < min || skips < 100) && calls < 1000 * min {
            calls += 1;
            if publish() {
                fills += 1;
            } else {
                skips += 1;
            }
        }
    }

    /// Keeps a reader inside the lock a little while, as a renderer does,
    /// so the writer meets contention.
    fn linger() {
        for _ in 0..50 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn seed_is_visible_at_seq_zero() {
        let (_pub, reader) = snapshot_exchange(7u32);
        assert_eq!(reader.acquire(|seq, v| (seq, *v)), (0, 7));
    }

    #[test]
    fn publish_makes_value_visible_with_monotone_seq() {
        let (mut publisher, reader) = snapshot_exchange(0u32);
        for i in 1..=5u32 {
            assert!(publisher.publish_with(|v| *v = i * 10));
            assert_eq!(reader.acquire(|seq, v| (seq, *v)), (u64::from(i), i * 10));
        }
    }

    #[test]
    fn publish_skips_while_a_reader_holds_the_lock() {
        let (mut publisher, reader) = snapshot_exchange(0u32);
        reader.acquire(|_, _| assert!(!publisher.publish_with(|v| *v = 1)));
        assert_eq!(reader.acquire(|seq, v| (seq, *v)), (0, 0));
    }

    /// A writer that keeps the pair equal to its fill count, published
    /// at least 10k times against 4 readers: every read shows equal
    /// halves that also equal the sequence number the read came with.
    #[test]
    fn concurrent_reader_never_sees_torn_pair() {
        const DONE: u64 = u64::MAX;
        let (mut publisher, reader) = snapshot_exchange((0u64, 0u64));
        let start = Barrier::new(5);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let (reader, start) = (reader.clone(), &start);
                    scope.spawn(move || {
                        start.wait();
                        loop {
                            let (seq, a, b) = reader.acquire(|seq, &(a, b)| {
                                linger();
                                (seq, a, b)
                            });
                            assert_eq!(a, b, "torn pair at seq {seq}");
                            if a == DONE {
                                break;
                            }
                            assert_eq!(a, seq, "pair from another fill than its seq");
                        }
                    })
                })
                .collect();
            start.wait();
            let mut fills = 0u64;
            publish_racing(10_000, || {
                let next = fills + 1;
                let landed = publisher.publish_with(|v| *v = (next, next));
                if landed {
                    fills = next;
                }
                landed
            });
            publisher.flush_with(|v| *v = (DONE, DONE));
            for handle in readers {
                handle.join().unwrap();
            }
        });
    }

    /// `flush_with` waits out a reader that holds the lock, and once it
    /// returns every reader clone sees the flushed value.
    #[test]
    fn flush_is_final_and_readers_see_it() {
        let (mut publisher, reader) = snapshot_exchange(0u32);
        publisher.publish_with(|v| *v = 10);
        let (holding_tx, holding_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (flushed_tx, flushed_rx) = mpsc::channel();
        let racer = reader.clone();
        let holder = std::thread::spawn(move || {
            racer.acquire(|_, v| {
                holding_tx.send(*v).unwrap();
                release_rx.recv().unwrap();
            });
        });
        assert_eq!(holding_rx.recv().unwrap(), 10);
        let flusher = std::thread::spawn(move || {
            publisher.flush_with(|v| *v = 99);
            flushed_tx.send(()).unwrap();
        });
        assert!(
            flushed_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "flush returned while a reader held the lock"
        );
        release_tx.send(()).unwrap();
        flushed_rx.recv().unwrap();
        let clones: Vec<_> = (0..8).map(|_| reader.clone()).collect();
        for clone in clones.iter().chain([&reader]) {
            assert_eq!(clone.acquire(|seq, v| (seq, *v)), (2, 99));
        }
        holder.join().unwrap();
        flusher.join().unwrap();
    }

    /// The sequence number one reader sees across consecutive acquires
    /// never drops, through at least 100k racing publishes and the final
    /// flush. (A two-buffer exchange, whose reader can lock a slot filled
    /// ahead of the index it read, fails this.)
    #[test]
    fn a_readers_seq_never_drops() {
        const DONE: u64 = u64::MAX;
        let (mut publisher, reader) = snapshot_exchange(0u64);
        let start = Barrier::new(5);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let (reader, start) = (reader.clone(), &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut last = 0;
                        loop {
                            let (seq, v) = reader.acquire(|seq, &v| {
                                linger();
                                (seq, v)
                            });
                            assert!(seq >= last, "seq dropped from {last} to {seq}");
                            last = seq;
                            if v == DONE {
                                break;
                            }
                        }
                    })
                })
                .collect();
            start.wait();
            let mut i = 0;
            publish_racing(100_000, || {
                i += 1;
                publisher.publish_with(|v| *v = i)
            });
            publisher.flush_with(|v| *v = DONE);
            for handle in readers {
                handle.join().unwrap();
            }
        });
    }

    /// 8 readers, a writer and the final flush all run to completion: no
    /// interleaving leaves a thread waiting on a lock forever.
    #[test]
    fn many_readers_writer_and_flush_run_to_completion() {
        const DONE: u64 = u64::MAX;
        let (finished_tx, finished_rx) = mpsc::channel();
        let scenario = std::thread::spawn(move || {
            let (mut publisher, reader) = snapshot_exchange(0u64);
            let start = Arc::new(Barrier::new(9));
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    let (reader, start) = (reader.clone(), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        while reader.acquire(|_, &v| {
                            linger();
                            v
                        }) != DONE
                        {}
                    })
                })
                .collect();
            start.wait();
            let mut i = 0;
            publish_racing(10_000, || {
                i += 1;
                publisher.publish_with(|v| *v = i)
            });
            publisher.flush_with(|v| *v = DONE);
            let all_joined = readers.into_iter().all(|handle| handle.join().is_ok());
            finished_tx.send(all_joined).unwrap();
        });
        // A deadlocked scenario is left running: joining it would hang.
        let finished = finished_rx.recv_timeout(Duration::from_secs(60));
        assert_eq!(finished, Ok(true), "a thread never finished");
        scenario.join().unwrap();
    }
}

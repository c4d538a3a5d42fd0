//! Double-buffered snapshot exchange between a simulation and readers.
//!
//! The engine's step loop is a hot path (`// lint: hot-path` in
//! [`crate::soa`]): it must never block on, or allocate for, an
//! observer. Yet a monitoring service wants a *consistent* view of the
//! live metrics mid-run. This module provides that handoff:
//!
//! * [`SnapshotPublisher`] — the writer half, owned by the simulation
//!   thread. [`SnapshotPublisher::publish_with`] refreshes a snapshot
//!   using only `try_lock`: if a reader momentarily holds a buffer the
//!   publish is *skipped* (and counted), never waited on. The step loop
//!   therefore runs at full speed whether or not anyone is scraping.
//! * [`SnapshotReader`] — the (clonable) reader half, handed to HTTP
//!   handler threads. [`SnapshotReader::acquire`] always observes an
//!   *untorn* snapshot: the value passed to the closure was written in
//!   full under the same lock the reader now holds.
//!
//! # Protocol
//!
//! Two buffer slots plus a front index:
//!
//! ```text
//! slots[0]: Mutex<(seq, T)>   ┐ one is "front" (readers), the other
//! slots[1]: Mutex<(seq, T)>   ┘ "back" (writer fills it)
//! front:    Mutex<usize>      which slot readers should take
//! ```
//!
//! The writer fills the back slot (`try_lock`; skip on contention),
//! stamps a sequence number, releases it, then flips `front` to the
//! freshly filled slot (`try_lock` again; on contention the flip is
//! retried on the next publish — the data is already in place). The
//! reader locks `front`, reads the index, *drops* the front guard, then
//! locks the indicated slot. No thread ever holds two locks at once, so
//! no lock ordering exists to violate and deadlock is impossible by
//! construction. Torn reads are impossible because every read of a
//! buffer happens under the same mutex every write of it happens under.
//!
//! One documented relaxation: a reader that races the flip may lock the
//! slot *after* the writer has started refilling it — the `try_lock`
//! writer then skips, so the reader still sees a complete (possibly
//! one-publish-stale) snapshot. Consequently the sequence number a
//! single reader observes across consecutive acquires is not strictly
//! monotone; it can step back by one around a flip. Readers that need
//! monotone views keep the max of the sequence numbers they have seen.
//!
//! Its `Arc`/`Mutex` resolve to the vendored `loom` workalike under
//! `--cfg loom`, so `crates/serve/tests/loom_serve.rs` can model-check
//! publish/read races, torn-snapshot impossibility, and shutdown under
//! the vendored bounded-exhaustive scheduler.

#[cfg(loom)]
use loom::sync::{Arc, Mutex};
#[cfg(not(loom))]
use std::sync::{Arc, Mutex};

use std::sync::{LockResult, PoisonError};

/// One buffered snapshot: a sequence number and the payload.
struct Slot<T> {
    /// 0 while the slot still holds its seed value; then the publish
    /// counter at the time the slot was last filled.
    seq: u64,
    value: T,
}

/// State shared between the publisher and every reader.
struct Shared<T> {
    slots: [Mutex<Slot<T>>; 2],
    /// Index of the slot readers should acquire.
    front: Mutex<usize>,
}

/// Ignore lock poisoning: a panicked writer leaves a complete snapshot
/// (it is only ever mutated inside `fill`, and a panicking `fill` aborts
/// the publish), and the vendored loom never poisons at all.
fn relax<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Writer half of the exchange; owned by the simulation thread.
///
/// Not clonable: exactly one writer exists per exchange, which is what
/// makes the skip-on-contention protocol race-free.
pub struct SnapshotPublisher<T> {
    shared: Arc<Shared<T>>,
    /// The slot the writer fills next (always `1 - front` once steady).
    back: usize,
    /// Publish counter; the next successful fill stamps `next_seq + 1`.
    next_seq: u64,
    /// Back slot holds a filled snapshot the front flip hasn't shown yet.
    pending_flip: bool,
    skipped_fills: u64,
    skipped_flips: u64,
}

/// Reader half of the exchange; clonable, one per consumer thread.
pub struct SnapshotReader<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for SnapshotReader<T> {
    fn clone(&self) -> Self {
        SnapshotReader {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// Creates an exchange seeded with two buffers (sequence number 0).
///
/// The two seeds should be indistinguishable "empty" snapshots: until
/// the first publish lands, readers observe `seed_front` under sequence
/// number 0.
pub fn snapshot_exchange<T>(
    seed_front: T,
    seed_back: T,
) -> (SnapshotPublisher<T>, SnapshotReader<T>) {
    let shared = Arc::new(Shared {
        slots: [
            Mutex::new(Slot {
                seq: 0,
                value: seed_front,
            }),
            Mutex::new(Slot {
                seq: 0,
                value: seed_back,
            }),
        ],
        front: Mutex::new(0),
    });
    (
        SnapshotPublisher {
            shared: Arc::clone(&shared),
            back: 1,
            next_seq: 0,
            pending_flip: false,
            skipped_fills: 0,
            skipped_flips: 0,
        },
        SnapshotReader { shared },
    )
}

impl<T> SnapshotPublisher<T> {
    /// Refreshes the back buffer via `fill` and flips it to the front —
    /// without ever blocking. Returns `true` if readers can now see a
    /// newer snapshot than before the call.
    ///
    /// On contention (a reader holds the back slot, or the front index)
    /// the corresponding half is skipped and counted; a skipped flip is
    /// retried automatically on the next publish, a skipped fill simply
    /// means this snapshot is dropped and the next one will be fresher.
    // lint: hot-path
    // lint: no-panic
    pub fn publish_with(&mut self, fill: impl FnOnce(&mut T)) -> bool {
        // lint: allow-panic(slots has fixed arity 2; back is always 0 or 1)
        match self.shared.slots[self.back].try_lock() {
            Ok(mut slot) => {
                fill(&mut slot.value);
                self.next_seq += 1;
                slot.seq = self.next_seq;
                self.pending_flip = true;
            }
            Err(_) => self.skipped_fills += 1,
        }
        if self.pending_flip {
            match self.shared.front.try_lock() {
                Ok(mut front) => {
                    *front = self.back;
                    self.back = 1 - self.back;
                    self.pending_flip = false;
                    return true;
                }
                Err(_) => self.skipped_flips += 1,
            }
        }
        false
    }

    /// Final, *blocking* publish for quiesce/shutdown: waits for any
    /// in-flight reader, fills the back buffer, and flips it front.
    /// After `flush_with` returns, every subsequent acquire observes the
    /// flushed snapshot (or a newer one). Never called from the step
    /// loop — only once, after the run completes.
    // lint: no-panic
    pub fn flush_with(&mut self, fill: impl FnOnce(&mut T)) {
        {
            // lint: allow-panic(slots has fixed arity 2; back is always 0 or 1)
            let mut slot = relax(self.shared.slots[self.back].lock());
            fill(&mut slot.value);
            self.next_seq += 1;
            slot.seq = self.next_seq;
        }
        let mut front = relax(self.shared.front.lock());
        *front = self.back;
        drop(front);
        self.back = 1 - self.back;
        self.pending_flip = false;
    }

    /// Sequence number of the most recently *filled* snapshot (0 if no
    /// publish has succeeded yet). Readers may still be one behind if
    /// the latest flip was skipped.
    pub fn seq(&self) -> u64 {
        self.next_seq
    }

    /// `(skipped_fills, skipped_flips)` — publishes dropped because a
    /// reader momentarily held the back slot or the front index.
    pub fn skipped(&self) -> (u64, u64) {
        (self.skipped_fills, self.skipped_flips)
    }
}

impl<T> SnapshotReader<T> {
    /// Runs `f` over the current front snapshot (sequence number first).
    /// The snapshot is untorn: `f` observes exactly what one
    /// `publish_with`/`flush_with` fill wrote. Sequence number 0 means
    /// the seed value — nothing has been published yet.
    ///
    /// Holding the slot only for the duration of `f` keeps writer skips
    /// rare; `f` should copy what it needs and return.
    // lint: no-panic
    pub fn acquire<R>(&self, f: impl FnOnce(u64, &T) -> R) -> R {
        let front = *relax(self.shared.front.lock());
        // Front guard dropped here: never hold two locks at once.
        // lint: allow-panic(slots has fixed arity 2; front is always 0 or 1)
        let slot = relax(self.shared.slots[front].lock());
        f(slot.seq, &slot.value)
    }

    /// Convenience: the sequence number currently visible to readers.
    pub fn seq(&self) -> u64 {
        self.acquire(|seq, _| seq)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn seed_is_visible_at_seq_zero() {
        let (_pub, reader) = snapshot_exchange(7u32, 7u32);
        assert_eq!(reader.acquire(|seq, v| (seq, *v)), (0, 7));
    }

    #[test]
    fn publish_makes_value_visible_with_monotone_seq() {
        let (mut publisher, reader) = snapshot_exchange(0u32, 0u32);
        for i in 1..=5u32 {
            assert!(publisher.publish_with(|v| *v = i * 10));
            assert_eq!(reader.acquire(|seq, v| (seq, *v)), (u64::from(i), i * 10));
        }
        assert_eq!(publisher.skipped(), (0, 0));
    }

    #[test]
    fn flush_is_final_and_readers_see_it() {
        let (mut publisher, reader) = snapshot_exchange(0u32, 0u32);
        publisher.publish_with(|v| *v = 1);
        publisher.flush_with(|v| *v = 99);
        assert_eq!(reader.acquire(|seq, v| (seq, *v)), (2, 99));
        let other = reader.clone();
        assert_eq!(other.acquire(|_, v| *v), 99);
    }

    #[test]
    fn concurrent_reader_never_sees_torn_pair() {
        // The payload is a pair the writer always keeps equal; a torn
        // read would observe unequal halves.
        let (mut publisher, reader) = snapshot_exchange((0u64, 0u64), (0u64, 0u64));
        let t = std::thread::spawn(move || {
            for _ in 0..200 {
                let (seq, ok) = reader.acquire(|seq, &(a, b)| (seq, a == b));
                assert!(ok, "torn snapshot at seq {seq}");
            }
        });
        for i in 1..=200u64 {
            publisher.publish_with(|v| *v = (i, i));
        }
        publisher.flush_with(|v| *v = (9999, 9999));
        t.join().unwrap();
    }
}

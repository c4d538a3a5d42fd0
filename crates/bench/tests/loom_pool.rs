//! Loom model of the sweep worker pool (`bench::pool_core`).
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`; each test explores
//! every bounded thread schedule of a small pool interaction and must
//! hold in all of them:
//!
//! * submit/drain — jobs submitted before `wait` all run, exactly once;
//! * shutdown — queued jobs still run before workers exit, and joining
//!   never deadlocks;
//! * panic propagation — a panicking job still hits the completion
//!   latch (so the submitter cannot hang) and its payload is captured;
//! * worker contention — two workers sharing the queue mutex never
//!   deadlock or drop a job.
//!
//! Plus the band handoff (`BandResults`, the rendezvous of sharded
//! trace verification):
//!
//! * band isolation — a worker posting into an already-filled slot
//!   panics under every schedule (two workers can never both claim a
//!   band without tripping the overlap assertion);
//! * reduction order — `wait_all` returns outputs in band-index order
//!   regardless of which worker finished first, so the merge that
//!   consumes them is schedule-independent.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p bench --test loom_pool`
#![cfg(loom)]

use bench::pool_core::{BandResults, CompletionLatch, PanicSlot, PoolCore};
use loom::sync::{Arc, Mutex};

fn noop_worker_init() {}

#[test]
fn submitted_jobs_all_run_before_wait_returns() {
    loom::model(|| {
        let pool = PoolCore::new(1, noop_worker_init);
        let latch = Arc::new(CompletionLatch::new(2));
        let hits = Arc::new(Mutex::new(0u32));
        for _ in 0..2 {
            let latch = Arc::clone(&latch);
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move || {
                *hits.lock().unwrap() += 1;
                latch.complete_one();
            }))
            .unwrap();
        }
        latch.wait();
        assert_eq!(*hits.lock().unwrap(), 2, "every submitted job ran");
        pool.shutdown();
    });
}

#[test]
fn shutdown_drains_queued_jobs_then_joins() {
    loom::model(|| {
        let pool = PoolCore::new(1, noop_worker_init);
        let hits = Arc::new(Mutex::new(0u32));
        for _ in 0..2 {
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move || {
                *hits.lock().unwrap() += 1;
            }))
            .unwrap();
        }
        // No latch: shutdown alone must guarantee the queue is drained
        // (disconnection only surfaces to a worker after the last job).
        pool.shutdown();
        assert_eq!(*hits.lock().unwrap(), 2, "shutdown ran the queued jobs");
    });
}

#[test]
fn panicking_job_reaches_latch_and_payload_survives() {
    loom::model(|| {
        let pool = PoolCore::new(1, noop_worker_init);
        let latch = Arc::new(CompletionLatch::new(1));
        let slot = Arc::new(PanicSlot::new());
        {
            let latch = Arc::clone(&latch);
            let slot = Arc::clone(&slot);
            // Mirrors the runner's job wrapper: user code is caught, the
            // payload recorded, and the latch hit unconditionally.
            pool.submit(Box::new(move || {
                let r = std::panic::catch_unwind(|| panic!("sweep job boom"));
                if let Err(payload) = r {
                    slot.record(payload);
                }
                latch.complete_one();
            }))
            .unwrap();
        }
        latch.wait();
        let payload = slot.take().expect("panic payload captured");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "sweep job boom");
        pool.shutdown();
    });
}

#[test]
fn band_results_preserve_reduction_order_under_any_schedule() {
    loom::model(|| {
        // Two "band workers" post their band id in racing order; the
        // coordinator must still receive [10, 20] — slot order, never
        // completion order. This is the property that makes the sharded
        // step's merge (and therefore the routed trace) deterministic.
        let results = Arc::new(BandResults::new(2));
        let handles: Vec<_> = [(0usize, 10u32), (1, 20)]
            .into_iter()
            .map(|(band, value)| {
                let results = Arc::clone(&results);
                loom::thread::spawn(move || results.post(band, value))
            })
            .collect();
        let outputs = results.wait_all();
        assert_eq!(outputs, vec![10, 20], "reduction is in band-index order");
        for h in handles {
            h.join().unwrap();
        }
        // The slots reset: the next step reuses the same rendezvous.
        results.post(0, 7);
        results.post(1, 8);
        assert_eq!(results.wait_all(), vec![7, 8]);
    });
}

#[test]
fn band_results_overlap_is_caught_under_any_schedule() {
    loom::model(|| {
        // Two workers erroneously claim the same band. Whichever posts
        // second must hit the overlap assertion — under every
        // interleaving, never silently losing a result. The panic is the
        // guarantee: band partitions that overlap cannot go unnoticed.
        let results = Arc::new(BandResults::<u32>::new(1));
        let racer = {
            let results = Arc::clone(&results);
            loom::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| results.post(0, 1)))
                    .is_err()
            })
        };
        let here_panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| results.post(0, 2))).is_err();
        let racer_panicked = racer.join().unwrap();
        assert!(
            here_panicked ^ racer_panicked,
            "exactly one of the two same-band posts must trip the overlap assertion"
        );
    });
}

#[test]
fn two_workers_share_the_queue_without_deadlock() {
    loom::model(|| {
        let pool = PoolCore::new(2, noop_worker_init);
        let latch = Arc::new(CompletionLatch::new(2));
        let hits = Arc::new(Mutex::new(0u32));
        for _ in 0..2 {
            let latch = Arc::clone(&latch);
            let hits = Arc::clone(&hits);
            pool.submit(Box::new(move || {
                *hits.lock().unwrap() += 1;
                latch.complete_one();
            }))
            .unwrap();
        }
        latch.wait();
        assert_eq!(*hits.lock().unwrap(), 2);
        pool.shutdown();
    });
}

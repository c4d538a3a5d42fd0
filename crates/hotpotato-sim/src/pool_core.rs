//! The concurrency core of the worker pools, written once against
//! primitives that resolve to `std::sync`/`std::thread` in production
//! and to the vendored `loom` workalike under `--cfg loom`.
//!
//! The split exists so the loom models (`bench/tests/loom_pool.rs`)
//! verify *this* code — the channel/mutex/condvar protocols that the
//! bench sweep runner's `parallel_map`, the fleet workers and the
//! sharded trace verifier build on — rather than a lookalike.
//! Everything schedule-sensitive lives here: worker
//! spawn/dequeue/shutdown ([`PoolCore`]), sweep completion signaling
//! ([`CompletionLatch`]), first-panic capture ([`PanicSlot`]), and the
//! per-band result handoff of sharded trace verification
//! ([`BandResults`]). The consumers keep the parts the models do not
//! need: chunking, result slots, and (bench only) the lifetime-erasing
//! transmute.
//!
//! `bench` re-exports this module under the `bench::pool_core` path.

#[cfg(loom)]
use loom::{
    sync::{mpsc, Arc, Condvar, Mutex},
    thread,
};
#[cfg(not(loom))]
use std::{
    sync::{mpsc, Arc, Condvar, Mutex},
    thread,
};

/// A unit of work shipped to a worker.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads draining one shared job queue.
///
/// Workers take the queue mutex only to dequeue, run the job unlocked,
/// and exit when the channel disconnects (every sender dropped). In
/// production the pool lives in a `OnceLock` and is never shut down;
/// [`PoolCore::shutdown`] exists for tests and the loom model, where
/// clean termination of every interleaving is part of what is verified.
pub struct PoolCore {
    sender: Option<mpsc::Sender<Job>>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl PoolCore {
    /// Spawns `workers` threads. `on_worker_start` runs first on each
    /// worker (the runner uses it to mark pool threads so nested sweeps
    /// inline instead of deadlocking the pool against itself).
    pub fn new(workers: usize, on_worker_start: fn()) -> PoolCore {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let receiver = Arc::clone(&receiver);
            handles.push(spawn_worker(i, move || {
                on_worker_start();
                loop {
                    // Hold the queue lock only while dequeueing.
                    let job = match receiver.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => break, // channel closed: shut down
                    }
                }
            }));
        }
        PoolCore {
            sender: Some(sender),
            handles,
        }
    }

    /// Enqueues a job; fails only if the pool is shutting down.
    pub fn submit(&self, job: Job) -> Result<(), mpsc::SendError<Job>> {
        self.sender.as_ref().expect("pool is live").send(job)
    }

    /// Disconnects the queue and joins every worker. Queued jobs still
    /// run: disconnection surfaces on a worker's `recv` only once the
    /// queue is drained.
    pub fn shutdown(mut self) {
        self.sender = None; // drop the sender: workers' recv() errors out
        for h in self.handles.drain(..) {
            h.join().expect("sweep worker panicked");
        }
    }
}

#[cfg(not(loom))]
fn spawn_worker(i: usize, body: impl FnOnce() + Send + 'static) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name(format!("hotpotato-sweep-{i}"))
        .spawn(body)
        .expect("spawn sweep worker")
}

#[cfg(loom)]
fn spawn_worker(_i: usize, body: impl FnOnce() + Send + 'static) -> thread::JoinHandle<()> {
    thread::spawn(body)
}

/// Counts completed jobs up to a known total; the submitting thread
/// blocks on [`CompletionLatch::wait`] until every job reported in.
pub struct CompletionLatch {
    total: usize,
    done: Mutex<usize>,
    cv: Condvar,
}

impl CompletionLatch {
    /// A latch expecting `total` completions.
    pub fn new(total: usize) -> CompletionLatch {
        CompletionLatch {
            total,
            done: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Records one completion. Must be called exactly once per job —
    /// including jobs that panic, or `wait` never returns.
    pub fn complete_one(&self) {
        *self.done.lock().expect("latch counter") += 1;
        self.cv.notify_all();
    }

    /// Blocks until `total` completions have been recorded.
    pub fn wait(&self) {
        let mut done = self.done.lock().expect("latch counter");
        while *done < self.total {
            done = self.cv.wait(done).expect("latch counter");
        }
    }
}

/// Captures the first panic payload of a job batch so the submitting
/// thread can resume it after the sweep settles.
pub struct PanicSlot {
    slot: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl PanicSlot {
    /// An empty slot.
    pub fn new() -> PanicSlot {
        PanicSlot {
            slot: Mutex::new(None),
        }
    }

    /// Stores `payload` unless a panic was already recorded.
    pub fn record(&self, payload: Box<dyn std::any::Any + Send>) {
        self.slot.lock().expect("panic slot").get_or_insert(payload);
    }

    /// Takes the recorded payload, if any.
    pub fn take(&self) -> Option<Box<dyn std::any::Any + Send>> {
        self.slot.lock().expect("panic slot").take()
    }
}

impl Default for PanicSlot {
    fn default() -> Self {
        Self::new()
    }
}

/// The worker-thread budget shared by every pool in the workspace: the
/// `HOTPOTATO_THREADS` environment variable when set to a positive
/// integer, otherwise the machine's available parallelism. Read on every
/// call, so tests and operators can retune a running process.
#[cfg(not(loom))]
pub fn configured_threads() -> usize {
    match std::env::var("HOTPOTATO_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
    {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(4, std::num::NonZero::get),
    }
}

/// Under loom the thread budget is a fixed small constant: models pick
/// their own thread counts explicitly, and `available_parallelism` is
/// outside the modeled world.
#[cfg(loom)]
pub fn configured_threads() -> usize {
    2
}

/// Per-band result slots for a sharded job (sharded trace
/// verification): band `b` posts its output into slot `b`, and the
/// coordinating thread blocks until every slot is filled, then consumes
/// them **in band-index order** — the fixed reduction order that makes
/// the sharded result deterministic regardless of which worker
/// finishes first.
pub struct BandResults<T> {
    total: usize,
    slots: Mutex<Vec<Option<T>>>,
    filled: Mutex<usize>,
    cv: Condvar,
}

impl<T> BandResults<T> {
    /// Slots for `bands` bands, all empty.
    pub fn new(bands: usize) -> BandResults<T> {
        BandResults {
            total: bands,
            slots: Mutex::new((0..bands).map(|_| None).collect()),
            filled: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    /// Posts band `band`'s output. Each band must post exactly once;
    /// double-posting a slot panics (it would mean two workers processed
    /// the same band — the overlap the loom model rules out).
    pub fn post(&self, band: usize, value: T) {
        {
            let mut slots = self.slots.lock().expect("band slots");
            assert!(
                slots[band].replace(value).is_none(),
                "band {band} posted twice: bands must not overlap"
            );
        }
        *self.filled.lock().expect("band fill counter") += 1;
        self.cv.notify_all();
    }

    /// Blocks until every band has posted, then returns the outputs in
    /// band-index order (slot order, not completion order), resetting the
    /// slots for reuse on the next step.
    pub fn wait_all(&self) -> Vec<T> {
        {
            let mut filled = self.filled.lock().expect("band fill counter");
            while *filled < self.total {
                filled = self.cv.wait(filled).expect("band fill counter");
            }
            *filled = 0;
        }
        let mut slots = self.slots.lock().expect("band slots");
        slots
            .iter_mut()
            .map(|s| s.take().expect("every band posted"))
            .collect()
    }
}

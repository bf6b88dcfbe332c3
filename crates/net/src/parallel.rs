//! A persistent worker pool for server-side cryptography.
//!
//! The paper's servers are 36-core machines that parallelise the
//! per-request Diffie-Hellman work ("Each 36-core machine can perform
//! about 340,000 Curve25519 Diffie-Hellman operations per second", §8.2).
//! The original implementation here spawned fresh OS threads inside
//! every `parallel_map` call via `std::thread::scope`; at one call per
//! server per round direction that put thread spawn/join latency on the
//! round's critical path. [`WorkerPool`] replaces it:
//!
//! * **spawn once** — a fixed set of worker threads is created the first
//!   time the pool is touched and reused for every subsequent round;
//! * **chunked stride scheduling** — each call publishes a single atomic
//!   cursor over `0..n`; workers (and the calling thread, which always
//!   participates) repeatedly claim `chunk`-sized index ranges until the
//!   cursor runs past `n`, so load balances even when some onions fail
//!   fast (malformed input) and others run full crypto;
//! * **zero-copy slicing** — [`WorkerPool::map_strides_mut`] hands each
//!   worker disjoint `&mut` windows of one flat buffer, which is what the
//!   round pipeline's `RoundBuffer` arena needs; no per-item `Vec`s cross
//!   threads.
//!
//! [`parallel_map`] keeps its original order-preserving signature but now
//! runs on the shared pool.
//!
//! This module contains the workspace's only `unsafe` code, confined to
//! the classic scoped-execution argument: a call's closure and buffers
//! are borrowed only between enqueue and the completion wait in the same
//! stack frame, and the completion wait does not return until every index
//! has been processed and no worker will touch the call's data again
//! (workers only reach the data through index ranges claimed *before*
//! the cursor ran out). Disjointness of `&mut` windows is guaranteed by
//! handing each index to exactly one worker.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Type-erased parallel call state shared between the caller and the
/// workers. `ctx` points at a closure living in the caller's stack frame;
/// see the module docs for the lifetime argument.
struct Call {
    /// Invokes the caller's closure for one index.
    invoke: unsafe fn(*const (), usize),
    ctx: *const (),
    /// Next unclaimed index.
    cursor: AtomicUsize,
    total: usize,
    /// Indices claimed per `fetch_add`.
    chunk: usize,
    /// Items not yet finished; completion signal when it reaches zero.
    pending: AtomicUsize,
    /// Threads currently working this call (the submitting caller counts
    /// as one). Workers join a call only while this is below
    /// `max_strands`, so concurrent submissions — one per server node
    /// — share the pool instead of the first call monopolising it.
    strands: AtomicUsize,
    /// The submitting stage's parallelism budget.
    max_strands: usize,
    /// The first panic message from any worker, re-raised by the caller.
    panic_msg: Mutex<Option<String>>,
    done: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `ctx` is only dereferenced through `invoke`, which was
// instantiated for a `Sync` closure type, and only while the owning call
// frame is blocked in `run` (see module docs).
unsafe impl Send for Call {}
unsafe impl Sync for Call {}

impl Call {
    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Acquire) >= self.total
    }

    /// Tries to reserve a strand slot on this call; a worker that gets
    /// `true` must [`Call::leave`] when it stops working the call.
    fn try_join(&self) -> bool {
        let mut current = self.strands.load(Ordering::Acquire);
        loop {
            if current >= self.max_strands {
                return false;
            }
            match self.strands.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    fn leave(&self) {
        self.strands.fetch_sub(1, Ordering::AcqRel);
    }

    /// Claims and processes chunks until the cursor runs out.
    fn work(&self) {
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::AcqRel);
            if start >= self.total {
                return;
            }
            let end = (start + self.chunk).min(self.total);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for i in start..end {
                    // SAFETY: each index is claimed by exactly one thread,
                    // and the caller keeps the closure alive until
                    // `pending` reaches zero.
                    unsafe { (self.invoke)(self.ctx, i) };
                }
            }));
            if let Err(payload) = outcome {
                // Keep the original message so the caller's re-panic is as
                // informative as the scoped-thread join it replaced.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                let mut slot = self.panic_msg.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(msg);
            }
            if self.pending.fetch_sub(end - start, Ordering::AcqRel) == end - start {
                // Last items completed: wake the caller. Taking the lock
                // orders the wake after the caller's `pending` check.
                let _guard = self.done.lock().unwrap_or_else(|e| e.into_inner());
                self.done_cv.notify_all();
            }
        }
    }
}

struct PoolShared {
    queue: Mutex<VecDeque<Arc<Call>>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
}

/// A persistent pool of worker threads; see the module docs.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` worker threads (the calling thread of
    /// every operation also works, so total parallelism is `threads + 1`).
    #[must_use]
    pub fn new(threads: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vuvuzela-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            threads,
            handles,
        }
    }

    /// The process-wide shared pool, spawned on first use and sized to
    /// the machine (`available_parallelism − 1` workers + the caller).
    ///
    /// All mix servers in a simulated deployment share this pool: the
    /// chain processes rounds strictly sequentially (§8.2), so per-server
    /// pools would only oversubscribe the machine.
    pub fn shared() -> &'static WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED.get_or_init(|| WorkerPool::new(default_workers().saturating_sub(1)))
    }

    /// Worker-thread count (excluding the participating caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Core primitive: invokes `f(i)` for every `i` in `0..total` across
    /// the pool, claiming `chunk` indices at a time. Blocks until all
    /// indices are processed. `parallelism` caps how many chunks exist
    /// (use `usize::MAX` for "whole pool").
    fn run<F: Fn(usize) + Sync>(&self, total: usize, parallelism: usize, f: &F) {
        if total == 0 {
            return;
        }
        let parallelism = parallelism.clamp(1, self.threads + 1);
        // Several chunks per strand, so threads that draw cheap work (e.g.
        // onions that fail authentication immediately) come back for more
        // instead of idling behind one static partition.
        const CHUNKS_PER_STRAND: usize = 4;
        let chunk = total.div_ceil(parallelism * CHUNKS_PER_STRAND).max(1);
        if parallelism == 1 || total <= chunk {
            for i in 0..total {
                f(i);
            }
            return;
        }

        unsafe fn invoke<F: Fn(usize)>(ctx: *const (), i: usize) {
            // SAFETY: `ctx` was created from `&F` below and is still live
            // (the caller is blocked in this frame).
            let f = unsafe { &*ctx.cast::<F>() };
            f(i);
        }

        let call = Arc::new(Call {
            invoke: invoke::<F>,
            ctx: (f as *const F).cast(),
            cursor: AtomicUsize::new(0),
            total,
            chunk,
            pending: AtomicUsize::new(total),
            // The caller below occupies the first strand.
            strands: AtomicUsize::new(1),
            max_strands: parallelism,
            panic_msg: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
        });

        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.push_back(Arc::clone(&call));
            self.shared.work_cv.notify_all();
        }

        // The caller is a worker too.
        call.work();

        // Wait for stragglers.
        {
            let mut guard = call.done.lock().unwrap_or_else(|e| e.into_inner());
            while call.pending.load(Ordering::Acquire) != 0 {
                guard = call.done_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
        }

        // Tidy the queue (workers also skip exhausted calls lazily).
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.retain(|c| !Arc::ptr_eq(c, &call));
        }

        let panic_msg = call
            .panic_msg
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(msg) = panic_msg {
            panic!("worker pool closure panicked: {msg}");
        }
    }

    /// Applies `f` to every `stride`-sized window of `data` in parallel
    /// and returns `f`'s results in window order. Window `i` is
    /// `data[i * stride .. (i + 1) * stride]`; a final partial window is
    /// passed as-is. This is the zero-copy entry point the round
    /// pipeline's flat buffers use.
    ///
    /// `parallelism` caps concurrency (the configured per-server worker
    /// count); results are in window order regardless.
    pub fn map_strides_mut<R, F>(
        &self,
        data: &mut [u8],
        stride: usize,
        parallelism: usize,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut [u8]) -> R + Sync,
    {
        assert!(stride > 0, "stride must be positive");
        let total = data.len().div_ceil(stride);
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(total, || None);

        {
            let base = SendPtr(data.as_mut_ptr());
            let len = data.len();
            let results_ptr = SendPtr(results.as_mut_ptr());
            let worker = |i: usize| {
                let start = i * stride;
                let end = (start + stride).min(len);
                // SAFETY: windows are disjoint (one per index, each index
                // claimed once) and `data` outlives the blocking `run`.
                let window =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                let r = f(i, window);
                // SAFETY: slot `i` is written by exactly one thread.
                unsafe { *results_ptr.get().add(i) = Some(r) };
            };
            self.run(total, parallelism, &worker);
        }

        results
            .into_iter()
            .map(|r| r.expect("every window processed"))
            .collect()
    }

    /// Like [`WorkerPool::map_strides_mut`], but hands each worker a
    /// window of up to `chunk_slots` **contiguous** stride-windows at a
    /// time and expects one result per slot back. This is the entry point
    /// for per-slot crypto that amortises work across neighbouring slots
    /// — the onion peeler batches its field inversions at exactly this
    /// granularity (Montgomery's trick over a worker chunk).
    ///
    /// `f(first_slot, window)` receives the index of the window's first
    /// slot and the window itself (`chunk_slots` full strides, except a
    /// shorter final window) and must return one `R` per slot it covers.
    /// Results are returned in slot order.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns the wrong number of results for a window.
    pub fn map_stride_chunks_mut<R, F>(
        &self,
        data: &mut [u8],
        stride: usize,
        chunk_slots: usize,
        parallelism: usize,
        f: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut [u8]) -> Vec<R> + Sync,
    {
        assert!(stride > 0, "stride must be positive");
        assert!(chunk_slots > 0, "chunk_slots must be positive");
        let total_slots = data.len().div_ceil(stride);
        let total_chunks = total_slots.div_ceil(chunk_slots);
        let mut results: Vec<Option<R>> = Vec::new();
        results.resize_with(total_slots, || None);

        {
            let base = SendPtr(data.as_mut_ptr());
            let len = data.len();
            let results_ptr = SendPtr(results.as_mut_ptr());
            let worker = |c: usize| {
                let first_slot = c * chunk_slots;
                let slots = chunk_slots.min(total_slots - first_slot);
                let start = first_slot * stride;
                let end = (start + slots * stride).min(len);
                // SAFETY: chunks are disjoint (one per index, each index
                // claimed once) and `data` outlives the blocking `run`.
                let window =
                    unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
                let rs = f(first_slot, window);
                assert_eq!(rs.len(), slots, "one result per slot in the chunk");
                for (j, r) in rs.into_iter().enumerate() {
                    // SAFETY: slot `first_slot + j` belongs to this chunk
                    // and is written by exactly one thread.
                    unsafe { *results_ptr.get().add(first_slot + j) = Some(r) };
                }
            };
            self.run(total_chunks, parallelism, &worker);
        }

        results
            .into_iter()
            .map(|r| r.expect("every slot processed"))
            .collect()
    }

    /// Order-preserving parallel map over an owned `Vec`.
    pub fn map_vec<T, U, F>(&self, mut items: Vec<T>, parallelism: usize, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let total = items.len();
        let mut slots: Vec<Option<T>> = items.drain(..).map(Some).collect();
        let mut results: Vec<Option<U>> = Vec::new();
        results.resize_with(total, || None);

        {
            let items_ptr = SendPtr(slots.as_mut_ptr());
            let results_ptr = SendPtr(results.as_mut_ptr());
            let worker = |i: usize| {
                // SAFETY: slot `i` is taken and written by exactly one
                // thread; both vectors outlive the blocking `run`.
                let item = unsafe { (*items_ptr.get().add(i)).take() }.expect("item present");
                let r = f(item);
                unsafe { *results_ptr.get().add(i) = Some(r) };
            };
            self.run(total, parallelism, &worker);
        }

        results
            .into_iter()
            .map(|r| r.expect("every item processed"))
            .collect()
    }
}

/// A raw pointer that asserts cross-thread usability; the pool's
/// disjoint-index discipline makes each use race-free.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let call = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue.retain(|c| !c.exhausted());
                // First call with strand capacity left: concurrent
                // submissions (one per active server node) each get at
                // most their own parallelism budget, so stages share the
                // pool without one oversubscribing it.
                if let Some(call) = queue.iter().find(|c| c.try_join()) {
                    break Arc::clone(call);
                }
                queue = shared
                    .work_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        call.work();
        call.leave();
        // A freed strand slot may unblock peers waiting to join another
        // call; wake them to re-scan.
        let _guard = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        shared.work_cv.notify_all();
    }
}

/// Applies `f` to every item, spreading the work across the shared
/// [`WorkerPool`] with at most `workers` concurrent strands, and returns
/// results in input order.
///
/// Falls back to a plain sequential map when `workers <= 1` or the input
/// is small enough that cross-thread handoff would dominate.
pub fn parallel_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    const MIN_ITEMS_PER_WORKER: usize = 32;
    let n = items.len();
    let workers = workers.clamp(1, n.max(1)).min(n / MIN_ITEMS_PER_WORKER + 1);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    WorkerPool::shared().map_vec(items, workers, f)
}

/// The number of workers to use by default: the machine's available
/// parallelism, as the paper's servers use all cores.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out = parallel_map(input.clone(), 4, |x| x * 2);
        let want: Vec<u64> = input.iter().map(|x| x * 2).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_matches() {
        let input: Vec<u32> = (0..100).collect();
        assert_eq!(
            parallel_map(input.clone(), 1, |x| x + 1),
            parallel_map(input, 8, |x| x + 1)
        );
    }

    #[test]
    fn small_inputs_do_not_over_spawn() {
        assert_eq!(parallel_map(vec![1, 2, 3], 8, |x| x), vec![1, 2, 3]);
    }

    #[test]
    fn large_parallel_equals_sequential() {
        let input: Vec<u64> = (0..10_000).collect();
        let seq: u64 = input.iter().map(|x| x % 7).sum();
        let par: u64 = parallel_map(input, default_workers(), |x| x % 7)
            .into_iter()
            .sum();
        assert_eq!(seq, par);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Two consecutive calls must not deadlock or leak work between
        // rounds — the shared pool's whole point.
        let a = parallel_map((0..500u64).collect::<Vec<_>>(), 4, |x| x + 1);
        let b = parallel_map((0..500u64).collect::<Vec<_>>(), 4, |x| x + 2);
        assert_eq!(a[499], 500);
        assert_eq!(b[499], 501);
    }

    #[test]
    fn map_strides_mut_mutates_disjoint_windows() {
        let pool = WorkerPool::shared();
        let mut data = vec![0u8; 64 * 10 + 7]; // final partial window
        let results = pool.map_strides_mut(&mut data, 64, usize::MAX, |i, window| {
            for b in window.iter_mut() {
                *b = i as u8 + 1;
            }
            window.len()
        });
        assert_eq!(results.len(), 11);
        assert_eq!(results[10], 7, "partial tail window length");
        for (i, chunk) in data.chunks(64).enumerate() {
            assert!(chunk.iter().all(|&b| b == i as u8 + 1), "window {i}");
        }
    }

    #[test]
    fn map_stride_chunks_mut_covers_every_slot() {
        let pool = WorkerPool::shared();
        let mut data = vec![0u8; 16 * 103]; // 103 slots, chunk 8 → partial tail
        let results = pool.map_stride_chunks_mut(&mut data, 16, 8, usize::MAX, |first, window| {
            let slots = window.len() / 16;
            for (j, slot) in window.chunks_mut(16).enumerate() {
                slot.fill((first + j) as u8);
            }
            (first..first + slots).collect()
        });
        assert_eq!(results, (0..103).collect::<Vec<_>>());
        for (i, slot) in data.chunks(16).enumerate() {
            assert!(slot.iter().all(|&b| b == i as u8), "slot {i}");
        }
    }

    #[test]
    fn concurrent_submissions_from_stage_threads_all_complete() {
        // Several "stages" submit to the shared pool at once, as the
        // streaming round scheduler's concurrent hops do; every call must
        // finish and respect its own parallelism budget.
        let results: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|stage| {
                    s.spawn(move || {
                        parallel_map((0..2_000u64).collect::<Vec<_>>(), 2, move |x| {
                            x.wrapping_mul(stage + 1) % 97
                        })
                        .into_iter()
                        .sum::<u64>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        for (stage, got) in results.iter().enumerate() {
            let want: u64 = (0..2_000u64)
                .map(|x| x.wrapping_mul(stage as u64 + 1) % 97)
                .sum();
            assert_eq!(*got, want, "stage {stage}");
        }
    }

    #[test]
    fn dedicated_pool_shuts_down_cleanly() {
        let pool = WorkerPool::new(2);
        let counter = AtomicU64::new(0);
        let items: Vec<u64> = (0..256).collect();
        let out = pool.map_vec(items, usize::MAX, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 256);
        assert_eq!(counter.load(Ordering::Relaxed), 256);
        drop(pool); // joins workers; must not hang
    }

    #[test]
    fn worker_panic_propagates_with_message() {
        let result = std::panic::catch_unwind(|| {
            parallel_map((0..200u64).collect::<Vec<_>>(), 4, |x| {
                assert!(x != 100, "boom at index 100");
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        // Sequential fallback propagates the raw payload (&str); the
        // pooled path re-raises with a formatted String. Both must carry
        // the original text.
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_default();
        assert!(
            msg.contains("boom at index 100"),
            "original panic message preserved, got: {msg}"
        );
    }
}

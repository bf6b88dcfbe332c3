//! The one fan-out for server and client cryptography.
//!
//! The paper's servers are 36-core machines that parallelise the
//! per-request Diffie-Hellman work ("Each 36-core machine can perform
//! about 340,000 Curve25519 Diffie-Hellman operations per second", §8.2).
//! [`WorkerPool::map_vec`] is how every part of the program does that:
//! an order-preserving map over owned items on `std::thread::scope`
//! threads. A round's flat arenas go through it as disjoint
//! `chunks_mut` windows, one item per chunk of slots, so no per-onion
//! `Vec` crosses a thread and the crate needs no `unsafe`.
//!
//! * **scoped strands** — each call spawns up to `min(parallelism,
//!   cores) − 1` helper threads and works on the calling thread too;
//!   the helpers are joined before the call returns. A helper the OS
//!   refuses to spawn is not an error: the strands that exist do its
//!   share.
//! * **claimed work** — items are claimed a few at a time from one
//!   shared iterator, several claims per strand, so a strand that draws
//!   cheap work (onions that fail authentication at once) comes back
//!   for more instead of idling behind a static partition.
//! * **panics** — a panic on any strand reaches the caller with its own
//!   payload.

use parking_lot::Mutex;
use std::sync::OnceLock;

/// The fan-out; see the module docs. It holds only the core count,
/// which caps how many threads one call runs on.
pub struct WorkerPool {
    cores: usize,
}

impl WorkerPool {
    /// The process-wide fan-out, sized to the machine on first use
    /// ([`default_workers`]).
    pub fn shared() -> &'static WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED.get_or_init(|| WorkerPool {
            cores: default_workers(),
        })
    }

    /// Applies `f` to every item on at most `min(parallelism, cores)`
    /// threads, the caller included, and returns the results in input
    /// order.
    ///
    /// # Panics
    ///
    /// Re-raises, with its original payload, a panic of `f` on any
    /// thread.
    pub fn map_vec<T, U, F>(&self, items: Vec<T>, parallelism: usize, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        // Several claims per strand, so load balances when items differ
        // in cost.
        const CLAIMS_PER_STRAND: usize = 4;
        let total = items.len();
        let strands = parallelism.clamp(1, self.cores);
        let claim = total.div_ceil(strands * CLAIMS_PER_STRAND).max(1);
        if strands == 1 || total <= claim {
            return items.into_iter().map(f).collect();
        }

        let queue = Mutex::new(items.into_iter().enumerate());
        let strand = || {
            let mut done = Vec::new();
            loop {
                let claimed: Vec<(usize, T)> = queue.lock().by_ref().take(claim).collect();
                if claimed.is_empty() {
                    return done;
                }
                done.extend(claimed.into_iter().map(|(i, item)| (i, f(item))));
            }
        };
        let mut results: Vec<Option<U>> = Vec::new();
        results.resize_with(total, || None);
        let mut place = |done: Vec<(usize, U)>| {
            for (i, r) in done {
                results[i] = Some(r);
            }
        };
        std::thread::scope(|s| {
            let helpers: Vec<_> = (1..strands)
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, strand).ok())
                .collect();
            place(strand());
            for helper in helpers {
                match helper.join() {
                    Ok(done) => place(done),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every item mapped"))
            .collect()
    }
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
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    fn pool() -> &'static WorkerPool {
        WorkerPool::shared()
    }

    #[test]
    fn preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out = pool().map_vec(input.clone(), 4, |x| x * 2);
        let want: Vec<u64> = input.iter().map(|x| x * 2).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u64> = pool().map_vec(Vec::<u64>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_matches() {
        let input: Vec<u32> = (0..100).collect();
        assert_eq!(
            pool().map_vec(input.clone(), 1, |x| x + 1),
            pool().map_vec(input, 8, |x| x + 1)
        );
    }

    #[test]
    fn small_inputs_do_not_over_spawn() {
        assert_eq!(pool().map_vec(vec![1, 2, 3], 8, |x| x), vec![1, 2, 3]);
    }

    #[test]
    fn large_parallel_equals_sequential() {
        // Every item is visited exactly once, whichever strand claims it.
        let visits: Vec<AtomicU64> = (0..10_000).map(|_| AtomicU64::new(0)).collect();
        let input: Vec<u64> = (0..10_000).collect();
        let seq: u64 = input.iter().map(|x| x % 7).sum();
        let par: u64 = pool()
            .map_vec(input, default_workers(), |x| {
                visits[x as usize].fetch_add(1, Ordering::Relaxed);
                x % 7
            })
            .into_iter()
            .sum();
        assert_eq!(seq, par);
        assert!(visits.iter().all(|v| v.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reused_across_calls() {
        // Two consecutive calls on the shared fan-out must not deadlock
        // or leak work from one into the other.
        let a = pool().map_vec((0..500u64).collect::<Vec<_>>(), 4, |x| x + 1);
        let b = pool().map_vec((0..500u64).collect::<Vec<_>>(), 4, |x| x + 2);
        assert_eq!(a[499], 500);
        assert_eq!(b[499], 501);
    }

    #[test]
    fn map_strides_mut_mutates_disjoint_windows() {
        // One item per window, as the reply wrap hands out its slots;
        // the final window is partial.
        let mut data = vec![0u8; 64 * 10 + 7];
        let items: Vec<(usize, &mut [u8])> = data.chunks_mut(64).enumerate().collect();
        let results = pool().map_vec(items, usize::MAX, |(i, window)| {
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
        // Arena chunks against the plain loop: 103 slots of 16 bytes in
        // chunks of 8, so the last chunk holds 7.
        const STRIDE: usize = 16;
        const CHUNK: usize = 8;
        let write = |slot: usize, bytes: &mut [u8]| {
            for b in bytes {
                *b = b.wrapping_add(slot as u8 + 1);
            }
            slot
        };
        let mut want = vec![0u8; STRIDE * 103];
        let want_slots: Vec<usize> = want
            .chunks_mut(STRIDE)
            .enumerate()
            .map(|(slot, bytes)| write(slot, bytes))
            .collect();

        let mut arena = vec![0u8; STRIDE * 103];
        let items: Vec<(usize, &mut [u8])> = arena.chunks_mut(STRIDE * CHUNK).enumerate().collect();
        assert_eq!(items.last().map(|(_, c)| c.len()), Some(7 * STRIDE));
        let slots: Vec<usize> = pool()
            .map_vec(items, usize::MAX, |(c, chunk)| {
                (c * CHUNK..)
                    .zip(chunk.chunks_mut(STRIDE))
                    .map(|(slot, bytes)| write(slot, bytes))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(slots, want_slots, "results in slot order");
        // A slot written twice would read 2·(slot + 1).
        assert_eq!(arena, want, "every slot written once");
    }

    #[test]
    fn dedicated_pool_shuts_down_cleanly() {
        // A call's helpers are its own: each is joined, thread-locals
        // dropped, before the call returns, so none outlives it.
        thread_local! {
            static HELD: std::cell::RefCell<Option<Arc<()>>> = const { std::cell::RefCell::new(None) };
        }
        let caller = std::thread::current().id();
        let helpers_exist = default_workers() > 1;
        let alive = Arc::new(());
        let counter = AtomicU64::new(0);
        for _ in 0..8 {
            // The caller's first item waits until a helper has run one.
            let helper_ran = AtomicBool::new(false);
            let out = pool().map_vec((0..256u64).collect::<Vec<_>>(), usize::MAX, |x| {
                if std::thread::current().id() == caller {
                    if x == 0 && helpers_exist {
                        wait_for(&helper_ran);
                    }
                } else {
                    HELD.with(|h| h.replace(Some(alive.clone())));
                    helper_ran.store(true, Ordering::Release);
                }
                counter.fetch_add(1, Ordering::Relaxed);
                x
            });
            assert_eq!(out, (0..256u64).collect::<Vec<_>>());
            assert_eq!(helper_ran.into_inner(), helpers_exist, "a helper ran");
            assert_eq!(Arc::strong_count(&alive), 1, "a helper outlived its call");
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 256);
    }

    #[test]
    fn concurrent_submissions_from_stage_threads_all_complete() {
        // Several "stages" call at once, as the streaming round
        // scheduler's concurrent hops do; every call must finish and
        // respect its own parallelism budget (1 or 2 here), its caller
        // included.
        let budget = |stage: u64| 1 + stage as usize % 2;
        let call = |stage: u64| {
            let threads: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
            let items = (0..2_000u64).collect::<Vec<_>>();
            let sum: u64 = pool()
                .map_vec(items, budget(stage), |x| {
                    // A strand's first item holds it until a thread beyond
                    // the budget joins (or 200 ms pass), so every thread
                    // the call starts gets to claim work.
                    if threads.lock().insert(std::thread::current().id()) {
                        let deadline = Instant::now() + Duration::from_millis(200);
                        while threads.lock().len() <= budget(stage) && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    x.wrapping_mul(stage + 1) % 97
                })
                .into_iter()
                .sum();
            (sum, threads.into_inner().len())
        };
        let results: Vec<(u64, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|stage| s.spawn(move || call(stage)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        for (stage, &(got, threads)) in (0..4u64).zip(&results) {
            let want: u64 = (0..2_000u64).map(|x| x.wrapping_mul(stage + 1) % 97).sum();
            assert_eq!(got, want, "stage {stage}");
            assert!(
                (1..=budget(stage)).contains(&threads),
                "stage {stage} ran on {threads} threads, budget {}",
                budget(stage)
            );
        }
    }

    fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_default()
    }

    /// Waits (bounded) until `flag` is set; a test that times out here
    /// fails on its own assertions, not by hanging.
    fn wait_for(flag: &AtomicBool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !flag.load(Ordering::Acquire) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn worker_panic_propagates_with_message() {
        let result = std::panic::catch_unwind(|| {
            pool().map_vec((0..200u64).collect::<Vec<_>>(), 4, |x| {
                assert!(x != 100, "boom at index 100");
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = panic_text(&*payload);
        assert!(
            msg.contains("boom at index 100"),
            "original panic message preserved, got: {msg}"
        );

        let caller = std::thread::current().id();
        let helpers_exist = default_workers() > 1;

        // The caller's own strand: it panics on the first item it runs,
        // while any helper waits until it has.
        let started = AtomicBool::new(false);
        let result = std::panic::catch_unwind(|| {
            pool().map_vec((0..64u64).collect::<Vec<_>>(), 2, |x| {
                if std::thread::current().id() == caller {
                    started.store(true, Ordering::Release);
                    panic!("boom on the caller's first item");
                }
                wait_for(&started);
                x
            })
        });
        let msg = panic_text(&*result.expect_err("caller panic must propagate"));
        assert_eq!(msg, "boom on the caller's first item");

        // A helper's strand: the helper waits until the caller holds a
        // claim (one of the first two), and the caller then waits until
        // the last item has started, so the helper runs it.
        let caller_started = AtomicBool::new(false);
        let last_started = AtomicBool::new(false);
        let last_thread: Mutex<Option<ThreadId>> = Mutex::new(None);
        let result = std::panic::catch_unwind(|| {
            pool().map_vec((0..64u64).collect::<Vec<_>>(), 2, |x| {
                let on_caller = std::thread::current().id() == caller;
                if x == 63 {
                    *last_thread.lock() = Some(std::thread::current().id());
                    last_started.store(true, Ordering::Release);
                    panic!("boom at the last item");
                }
                if helpers_exist && on_caller {
                    caller_started.store(true, Ordering::Release);
                    wait_for(&last_started);
                } else if helpers_exist {
                    wait_for(&caller_started);
                }
                x
            })
        });
        let msg = panic_text(&*result.expect_err("helper panic must propagate"));
        assert_eq!(msg, "boom at the last item");
        if helpers_exist {
            assert_ne!(
                *last_thread.lock(),
                Some(caller),
                "a helper ran the last item"
            );
        } else {
            eprintln!("SKIPPED helper-strand panic: one core, no helpers");
        }
    }
}

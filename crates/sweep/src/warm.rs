//! The warm-state cache: run each distinct warm-up once, fork every
//! dependent cell from the frozen state.
//!
//! Sweep grids repeat the same expensive warm-up (prefill + aging +
//! refresh churn) for every cell that differs only in a *post*-warm-up
//! axis — fault level, aging level, offered load. The cache keys warm
//! states by a caller-computed fingerprint of everything that *does*
//! influence the warm-up and holds each as a live value — for a sweep, a
//! frozen simulator and its traces — so N sibling cells cost one warm-up
//! and N − 1 copies.
//!
//! States live in two [`WarmTier`]s: complete warm states
//! ([`WarmTier::Full`]) and the shared prefixes they are built from
//! ([`WarmTier::Prefix`]) — the part of a warm-up that cells differing
//! only in their system column have in common.
//!
//! Guarantees:
//!
//! - **Single-flight**: when two workers need the same key concurrently,
//!   exactly one runs the build closure; the other blocks on a condvar
//!   until the state is ready. A build that panics wakes the waiters
//!   and lets the next claimant rebuild — no deadlock, no poisoned key.
//! - **Determinism-neutral**: every request for a key gets the value the
//!   build produced, and a fork of a frozen simulator continues byte for
//!   byte like the warm-up it replaces (fork → run ≡ restore → run ≡ keep
//!   running, `ida_ssd`'s differential tests), so the sweep's
//!   any-worker-count byte-identical aggregate is preserved.
//! - **Capture on demand**: a caller that knows its grid can
//!   [`WarmCache::plan`] how often each key will be asked for. The build
//!   of a key nobody else will fork is told not to capture, and a planned
//!   state leaves the cache with its last planned request, which can take
//!   it instead of copying it. Unplanned keys are always captured and
//!   never evicted.
//! - **In memory only**: no state leaves the process. A resumed sweep
//!   reads finished cells from its journal, so only the warm-ups of cells
//!   that were in flight when it was killed run again.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Which stage of a staged warm-up a state holds. The tiers have
/// separate key spaces and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarmTier {
    /// A complete warm state, ready to measure.
    Full,
    /// The system-independent prefix several full warm states fork from.
    Prefix,
}

/// One key's state in the in-memory table.
#[derive(Debug)]
enum Slot {
    /// Some worker is running the build closure right now.
    Building,
    /// The frozen state, shared by every forker, and its size in bytes.
    Ready(Arc<dyn Any + Send + Sync>, u64),
}

/// Hit/miss counters of one tier, snapshotted by [`WarmCache::stats`]
/// and [`WarmCache::prefix_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmStats {
    /// Served from memory (includes waits on an in-flight build).
    pub hits: u64,
    /// Always 0, like `remote_hits`: no state is ever read from disk.
    pub disk_hits: u64,
    /// Always 0: no state is ever served by another process. Both fields
    /// are kept so existing `WarmStats` literals still build.
    pub remote_hits: u64,
    /// The build closure ran.
    pub misses: u64,
}

impl WarmStats {
    /// Total states served without running a warm-up.
    pub fn total_hits(&self) -> u64 {
        self.hits
    }
}

/// Memory accounting of held states, snapshotted by [`WarmCache::memory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarmMemory {
    /// Full warm states built and captured.
    pub full_captures: u64,
    /// Prefixes built and captured.
    pub prefix_captures: u64,
    /// Bytes of the states held now, as their builds measured them.
    pub held_bytes: u64,
    /// The most bytes held at once.
    pub peak_bytes: u64,
}

/// Everything behind the cache's one mutex.
#[derive(Debug, Default)]
struct Table {
    slots: HashMap<(WarmTier, u64), Slot>,
    /// Planned requests not yet served per key; absent means unplanned.
    /// Counted down when a request is served, not when it arrives, so a
    /// request still waiting on a build keeps the state alive.
    plan: HashMap<(WarmTier, u64), u64>,
    stats: [WarmStats; 2],
    memory: WarmMemory,
}

impl Table {
    fn stats(&mut self, tier: WarmTier) -> &mut WarmStats {
        &mut self.stats[tier as usize]
    }

    /// Count one request for `id` as served. Returns whether it used up
    /// a planned request, and whether it was the last one — no planned
    /// request is left to fork the state (always false when unplanned).
    fn spend(&mut self, id: (WarmTier, u64)) -> (bool, bool) {
        match self.plan.get_mut(&id) {
            Some(left) => {
                let spent = *left > 0;
                *left = left.saturating_sub(1);
                (spent, *left == 0)
            }
            None => (false, false),
        }
    }

    fn hold(&mut self, id: (WarmTier, u64), state: Arc<dyn Any + Send + Sync>, bytes: u64) {
        self.memory.held_bytes += bytes;
        self.memory.peak_bytes = self.memory.peak_bytes.max(self.memory.held_bytes);
        self.slots.insert(id, Slot::Ready(state, bytes));
    }

    fn evict(&mut self, id: (WarmTier, u64)) {
        if let Some(Slot::Ready(_, bytes)) = self.slots.remove(&id) {
            self.memory.held_bytes -= bytes;
        }
    }
}

/// A keyed, single-flight cache of frozen warm states.
#[derive(Debug)]
pub struct WarmCache {
    table: Mutex<Table>,
    ready: Condvar,
}

/// Clears a `Building` claim if the build closure unwinds, waking every
/// waiter so one of them can re-claim the key, and gives the claimant's
/// planned request back so the retry is counted once. Disarmed on
/// success.
struct BuildGuard<'a> {
    cache: &'a WarmCache,
    id: (WarmTier, u64),
    refund: bool,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // Runs while unwinding: never panic on a poisoned lock here.
            let mut table = self
                .cache
                .table
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            table.slots.remove(&self.id);
            if self.refund {
                *table.plan.entry(self.id).or_default() += 1;
            }
            self.cache.ready.notify_all();
        }
    }
}

/// Keep freed multi-megabyte blocks inside the process instead of
/// returning them to the kernel.
///
/// A warm-cached sweep allocates and frees a clone of a frozen simulator
/// (tens of MB of page map, OOB store and block table) once per cell.
/// glibc serves blocks that big from dedicated `mmap` regions and
/// `munmap`s them on free, so every cell re-faults its whole working
/// set; under a virtualized kernel (where a minor fault costs tens of
/// microseconds, not one) that page churn was costing more system time
/// than the cache saved in user time. Raising `M_MMAP_THRESHOLD` routes
/// the blocks through the ordinary heap and raising `M_TRIM_THRESHOLD`
/// stops `free` from shrinking the heap top between cells — after the
/// first few cells the whole per-cell working set is recycled without a
/// single fault. Both are best-effort process-wide hints: sizing is
/// unchanged, only *where* the bytes come from, so this is invisible to
/// results. No-op off glibc.
fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // Values from glibc's malloc.h; the libc crate is not a
        // dependency, so declare mallopt directly.
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: mallopt only adjusts allocator tuning parameters; it
        // touches no caller-owned memory and is safe at any point.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 64 << 20);
            mallopt(M_TRIM_THRESHOLD, 512 << 20);
        }
    }
}

impl WarmCache {
    /// An empty cache.
    pub fn new() -> Self {
        retain_freed_memory();
        WarmCache {
            table: Mutex::new(Table::default()),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table
            .lock()
            .expect("no thread panics while holding the warm-cache table")
    }

    /// Announce `uses` more requests for `key` in `tier`. A planned key's
    /// build is told to capture only while planned requests remain after
    /// it, and its state leaves the cache when the last planned request
    /// has been served. Requests beyond the plan are served without
    /// capture, like a last one.
    pub fn plan(&self, tier: WarmTier, key: u64, uses: u64) {
        *self.lock().plan.entry((tier, key)).or_default() += uses;
    }

    /// The full warm-state image for `key`, building it with `build`
    /// exactly once per key no matter how many workers ask concurrently.
    /// `build` always captures, so this always yields the image.
    pub fn get_or_build(&self, key: u64, build: impl FnOnce() -> Vec<u8>) -> Arc<Vec<u8>> {
        self.get_or_build_live(WarmTier::Full, key, |_| {
            let image = build();
            Some((image.len() as u64, image))
        })
        .expect("a build that returns an image yields one")
    }

    /// The state for `key` in `tier`, or `None` when this caller ran the
    /// build and it captured nothing — the caller's live state is then the
    /// only copy. `build` receives whether a capture is wanted (`false`
    /// when the key is planned and no planned request follows this one)
    /// and returns the size in bytes and the state to hold. Single-flight
    /// like [`WarmCache::get_or_build`]. The last planned request gets the
    /// state as the cache lets go of it. Panics if `key` holds another `T`.
    pub fn get_or_build_live<T: Send + Sync + 'static>(
        &self,
        tier: WarmTier,
        key: u64,
        build: impl FnOnce(bool) -> Option<(u64, T)>,
    ) -> Option<Arc<T>> {
        let id = (tier, key);
        let mut table = self.lock();
        loop {
            match table.slots.get(&id) {
                Some(Slot::Ready(state, _)) => {
                    let state = state.clone();
                    table.stats(tier).hits += 1;
                    if table.spend(id).1 {
                        table.evict(id);
                    }
                    return Some(state.downcast().expect("a warm key holds one type"));
                }
                Some(Slot::Building) => {
                    table = self
                        .ready
                        .wait(table)
                        .expect("no thread panics while holding the warm-cache table");
                }
                None => break,
            }
        }
        let (spent, last) = table.spend(id);
        table.slots.insert(id, Slot::Building);
        drop(table);
        // We hold the (lock-free) build claim; the guard releases it if
        // `build` panics so waiters do not deadlock on a dead builder.
        let mut guard = BuildGuard {
            cache: self,
            id,
            refund: spent,
            armed: true,
        };
        let built = build(!last).map(|(bytes, state)| (Arc::new(state), bytes));
        let mut table = self.lock();
        table.stats(tier).misses += 1;
        if built.is_some() {
            match tier {
                WarmTier::Full => table.memory.full_captures += 1,
                WarmTier::Prefix => table.memory.prefix_captures += 1,
            }
        }
        match &built {
            Some((state, bytes)) if !last => table.hold(id, state.clone(), *bytes),
            _ => {
                table.slots.remove(&id);
            }
        }
        guard.armed = false;
        self.ready.notify_all();
        built.map(|(state, _)| state)
    }

    /// Counters of the full warm-state tier.
    pub fn stats(&self) -> WarmStats {
        self.lock().stats[WarmTier::Full as usize]
    }

    /// Counters of the prefix tier: misses are prefix builds, hits are
    /// forks of a captured prefix.
    pub fn prefix_stats(&self) -> WarmStats {
        self.lock().stats[WarmTier::Prefix as usize]
    }

    /// Captures and bytes held, across both tiers.
    pub fn memory(&self) -> WarmMemory {
        self.lock().memory
    }

    /// A one-line human/CI-greppable summary, e.g.
    /// `warm-cache: 66 hits, 22 misses (22 warm-ups for 88 cells); prefixes: 11 built, 11 forked; peak 45.0 MiB held`.
    pub fn stats_line(&self, cells: usize) -> String {
        let s = self.stats();
        let p = self.prefix_stats();
        format!(
            "warm-cache: {} hits, {} misses ({} warm-ups for {} cells); \
             prefixes: {} built, {} forked; peak {:.1} MiB held",
            s.total_hits(),
            s.misses,
            s.misses,
            cells,
            p.misses,
            p.total_hits(),
            self.memory().peak_bytes as f64 / f64::from(1 << 20)
        )
    }
}

impl Default for WarmCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn payload(tag: u8) -> Vec<u8> {
        ida_snap::frame::seal(&[tag; 64])
    }

    /// A build's result: `payload(tag)`, sized by its length.
    fn held(tag: u8) -> Option<(u64, Vec<u8>)> {
        Some((payload(tag).len() as u64, payload(tag)))
    }

    #[test]
    fn second_lookup_hits() {
        let cache = WarmCache::new();
        let built = AtomicU32::new(0);
        let make = || {
            built.fetch_add(1, Ordering::SeqCst);
            payload(7)
        };
        let a = cache.get_or_build(42, make);
        let b = cache.get_or_build(42, || unreachable!("second lookup must hit"));
        assert_eq!(a, b);
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert_eq!(
            cache.stats(),
            WarmStats {
                hits: 1,
                disk_hits: 0,
                remote_hits: 0,
                misses: 1
            }
        );
    }

    #[test]
    fn concurrent_same_key_builds_once() {
        let cache = Arc::new(WarmCache::new());
        let built = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = cache.clone();
            let built = built.clone();
            handles.push(std::thread::spawn(move || {
                cache.get_or_build(9, || {
                    built.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window so waiters really block.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    payload(9)
                })
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(built.load(Ordering::SeqCst), 1, "single-flight violated");
        assert!(results.windows(2).all(|w| w[0] == w[1]));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn panicking_build_releases_the_key() {
        let cache = Arc::new(WarmCache::new());
        let crash = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_build(5, || panic!("builder died"));
                }));
            })
        };
        crash.join().unwrap();
        // The key is free again: the next claimant rebuilds, no deadlock.
        let bytes = cache.get_or_build(5, || payload(5));
        assert_eq!(*bytes, payload(5));
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn stats_line_is_greppable() {
        let cache = WarmCache::new();
        cache.get_or_build(1, || payload(1));
        cache.get_or_build(1, || unreachable!());
        cache.get_or_build(2, || payload(2));
        cache.get_or_build_live(WarmTier::Prefix, 1, |_| held(3));
        cache.get_or_build_live::<Vec<u8>>(WarmTier::Prefix, 1, |_| unreachable!());
        let held = 3 * payload(0).len();
        assert_eq!(
            cache.stats_line(3),
            format!(
                "warm-cache: 1 hits, 2 misses (2 warm-ups for 3 cells); \
                 prefixes: 1 built, 1 forked; peak {:.1} MiB held",
                held as f64 / f64::from(1 << 20)
            )
        );
    }

    #[test]
    fn an_unplanned_key_is_captured_and_kept() {
        let cache = WarmCache::new();
        let first = cache.get_or_build_live(WarmTier::Full, 3, |capture| {
            assert!(capture, "an unplanned build always captures");
            held(3)
        });
        assert_eq!(first.as_deref(), Some(&payload(3)));
        for _ in 0..5 {
            let hit = cache.get_or_build_live(WarmTier::Full, 3, |_| unreachable!("must hit"));
            assert_eq!(hit, first);
        }
        let memory = cache.memory();
        assert_eq!(memory.full_captures, 1);
        assert_eq!(memory.held_bytes, payload(3).len() as u64);
    }

    #[test]
    fn a_key_planned_once_is_never_captured() {
        let cache = WarmCache::new();
        cache.plan(WarmTier::Full, 4, 1);
        let state = cache.get_or_build_live::<Vec<u8>>(WarmTier::Full, 4, |capture| {
            assert!(!capture, "nobody else will fork this key");
            None
        });
        assert!(state.is_none());
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.memory(), WarmMemory::default());
    }

    #[test]
    fn a_planned_image_is_evicted_after_its_last_fork() {
        let cache = WarmCache::new();
        cache.plan(WarmTier::Prefix, 7, 3);
        let built = cache.get_or_build_live(WarmTier::Prefix, 7, |capture| {
            assert!(capture, "two planned forks follow");
            held(7)
        });
        let size = payload(7).len() as u64;
        assert_eq!(cache.memory().held_bytes, size);
        for _ in 0..2 {
            let fork = cache.get_or_build_live(WarmTier::Prefix, 7, |_| unreachable!("must fork"));
            assert_eq!(fork, built);
        }
        let memory = cache.memory();
        assert_eq!((memory.held_bytes, memory.peak_bytes), (0, size));
        assert_eq!(memory.prefix_captures, 1);
    }

    #[test]
    fn the_last_planned_request_takes_the_state_and_sizes_are_the_builds() {
        let cache = WarmCache::new();
        cache.plan(WarmTier::Full, 8, 3);
        let built = cache.get_or_build_live(WarmTier::Full, 8, |_| Some((4_000, vec![8u8; 10])));
        assert_eq!(built.as_deref(), Some(&vec![8u8; 10]));
        assert_eq!(
            cache.memory().held_bytes,
            4_000,
            "the build's size, not the value's"
        );
        drop(built);
        let fork = cache.get_or_build_live::<Vec<u8>>(WarmTier::Full, 8, |_| unreachable!());
        assert_eq!(Arc::strong_count(fork.as_ref().unwrap()), 2, "still held");
        drop(fork);
        let last = cache.get_or_build_live::<Vec<u8>>(WarmTier::Full, 8, |_| unreachable!());
        let last = Arc::try_unwrap(last.unwrap()).expect("the cache let go of it");
        assert_eq!(last, vec![8u8; 10]);
        assert_eq!(cache.memory().held_bytes, 0);
    }

    #[test]
    fn a_panicking_planned_build_keeps_claim_and_count_consistent() {
        let cache = Arc::new(WarmCache::new());
        cache.plan(WarmTier::Full, 5, 2);
        let crash = {
            let cache = cache.clone();
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_build_live::<Vec<u8>>(WarmTier::Full, 5, |_| {
                        panic!("builder died")
                    });
                }));
            })
        };
        crash.join().unwrap();
        // The claim is free and the failed request was refunded: the
        // retry still captures for the one fork that follows it.
        let built = cache.get_or_build_live(WarmTier::Full, 5, |capture| {
            assert!(capture, "the failed request must not count as served");
            held(5)
        });
        let fork = cache.get_or_build_live(WarmTier::Full, 5, |_| unreachable!("must fork"));
        assert_eq!(built, fork);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.memory().held_bytes, 0);
    }

    #[test]
    fn a_planned_key_still_builds_once_across_threads() {
        let cache = Arc::new(WarmCache::new());
        cache.plan(WarmTier::Full, 9, 8);
        let built = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                let built = built.clone();
                std::thread::spawn(move || {
                    cache.get_or_build_live(WarmTier::Full, 9, |capture| {
                        built.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        held(9).filter(|_| capture)
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(built.load(Ordering::SeqCst), 1, "single-flight violated");
        assert!(results.iter().all(|r| r.as_deref() == Some(&payload(9))));
        assert_eq!(cache.stats().hits, 7);
        assert_eq!(cache.memory().held_bytes, 0, "the last fork evicts");
    }
}

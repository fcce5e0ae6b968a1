//! Bounded, lock-striped, single-flight memoization maps.
//!
//! The gate's caches started life as one `Mutex<HashMap>` each. That is
//! correct but serializes every lookup once the enforcement engine runs
//! rules on several workers: N threads all hashing into one lock turn
//! the cache from an accelerator into a convoy. [`ShardedMap`]
//! stripes the map across independently locked shards (keyed by the
//! entry hash), so concurrent lookups of different keys proceed in
//! parallel.
//!
//! Three properties the callers rely on:
//!
//! - **A hard bound.** A map never holds more than its capacity: each
//!   shard holds at most `ceil(capacity / shards)` entries, and inserting
//!   into a full shard evicts its least recently touched ready entry. A
//!   long-lived cache therefore stops growing instead of accumulating
//!   every version it has seen. A small map keeps a single stripe, so its
//!   eviction order is exact global LRU; striping trades that global order
//!   for concurrency, which changes *what* may be evicted but never what a
//!   hit returns.
//! - **Single-flight builds.** When two workers miss the same key at the
//!   same time, exactly one runs the builder; the other waits and gets
//!   the same `Arc` (and counts a hit — it paid a wait, not a build).
//!   Without this, parallel rules sharing a target would duplicate the
//!   most expensive work in the system and make hit counters racy. An
//!   in-flight build is never evicted, so its waiters always get a value.
//! - **Contention observability.** Every shard lock acquisition is
//!   counted, and blocked acquisitions record their wait time, so
//!   `cache.*` telemetry can report time lost to cache serialization.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// Entries per shard before another stripe is worth its overhead. A map
/// smaller than this stays one stripe: exact global-LRU eviction order.
const ENTRIES_PER_SHARD: usize = 256;

/// Stripe count ceiling — past this, shard selection cost dominates any
/// residual contention win.
const MAX_SHARDS: usize = 16;

/// Counters for one family of mutexes: total acquisitions, how many had
/// to block, and the cumulative nanoseconds spent blocked.
#[derive(Debug, Default)]
struct LockStats {
    acquires: AtomicU64,
    contended: AtomicU64,
    wait_ns: AtomicU64,
}

impl LockStats {
    fn acquires(&self) -> u64 {
        self.acquires.load(Ordering::Relaxed)
    }

    fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    fn wait_ns(&self) -> u64 {
        self.wait_ns.load(Ordering::Relaxed)
    }
}

/// Lock `m`, recording the acquisition in `stats`. The fast path is one
/// `try_lock`; only a blocked acquisition pays for a clock read.
fn lock_counted<'a, T>(m: &'a Mutex<T>, stats: &LockStats) -> MutexGuard<'a, T> {
    stats.acquires.fetch_add(1, Ordering::Relaxed);
    match m.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            stats.contended.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let guard = m.lock().unwrap_or_else(|p| p.into_inner());
            stats.wait_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            guard
        }
    }
}

/// State of one in-flight build, shared between the builder and any
/// coalesced waiters.
#[derive(Debug)]
enum BuildState<V> {
    Pending,
    Done(Arc<V>),
    /// The builder panicked: waiters retry from scratch instead of
    /// hanging forever.
    Abandoned,
}

#[derive(Debug)]
struct InFlight<V> {
    state: Mutex<BuildState<V>>,
    cv: Condvar,
}

#[derive(Debug)]
enum Slot<V> {
    /// A built value and the shard tick of its last touch.
    Ready(Arc<V>, u64),
    Building(Arc<InFlight<V>>),
}

#[derive(Debug)]
struct Shard<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Bumped on every lookup and insert; the ready slot with the
    /// smallest tick is the least recently used one.
    tick: u64,
}

impl<K: Hash + Eq + Clone, V> Shard<K, V> {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The least recently touched ready key, if any slot is ready. A shard
    /// holds at most a few hundred slots, so a linear scan keeps this
    /// std-only and cheap next to the build a miss pays for.
    fn oldest_ready(&self) -> Option<K> {
        self.slots
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready(_, tick) => Some((*tick, k)),
                Slot::Building(_) => None,
            })
            .min_by_key(|(tick, _)| *tick)
            .map(|(_, k)| k.clone())
    }
}

/// A bounded, lock-striped, single-flight `HashMap<K, Arc<V>>` with
/// per-shard LRU eviction.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    /// Most slots (ready + in-flight) one shard holds.
    shard_capacity: usize,
    locks: LockStats,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V> ShardedMap<K, V> {
    /// A map holding at most `capacity` entries, striped across
    /// `capacity / 256` locks (at least 1, at most 16).
    pub fn new(capacity: usize) -> ShardedMap<K, V> {
        let shards = (capacity / ENTRIES_PER_SHARD).clamp(1, MAX_SHARDS);
        ShardedMap {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { slots: HashMap::new(), tick: 0 }))
                .collect(),
            shard_capacity: capacity.div_ceil(shards),
            locks: LockStats::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The value for `key`, building it with `build` on first use. At
    /// most one builder runs per key at a time; concurrent requesters of
    /// a key being built wait for it (counted as hits — they share the
    /// build instead of duplicating it). The builder runs outside every
    /// shard lock, and a panicking builder wakes its waiters to retry
    /// rather than stranding them.
    ///
    /// A miss on a full shard evicts the shard's least recently touched
    /// ready entry. If every slot in the shard is an in-flight build,
    /// nothing can be evicted: the value is built and returned but not
    /// stored.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        loop {
            let inflight = {
                let mut shard = lock_counted(self.shard(&key), &self.locks);
                let tick = shard.touch();
                match shard.slots.get_mut(&key) {
                    Some(Slot::Ready(v, last)) => {
                        *last = tick;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(v);
                    }
                    Some(Slot::Building(b)) => Arc::clone(b),
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        if shard.slots.len() >= self.shard_capacity {
                            let Some(oldest) = shard.oldest_ready() else {
                                drop(shard);
                                return Arc::new(build());
                            };
                            shard.slots.remove(&oldest);
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        let b = Arc::new(InFlight {
                            state: Mutex::new(BuildState::Pending),
                            cv: Condvar::new(),
                        });
                        shard.slots.insert(key.clone(), Slot::Building(Arc::clone(&b)));
                        drop(shard);
                        let guard = AbandonOnUnwind { map: self, key: &key, inflight: &b };
                        let value = Arc::new(build());
                        guard.complete(Arc::clone(&value));
                        return value;
                    }
                }
            };
            // Another worker is already building this key: wait for it.
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            let mut state = inflight.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                match &*state {
                    BuildState::Done(v) => {
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Arc::clone(v);
                    }
                    BuildState::Abandoned => break,
                    BuildState::Pending => {
                        state = inflight
                            .cv
                            .wait(state)
                            .unwrap_or_else(|p| p.into_inner());
                    }
                }
            }
            // Builder died: retry the whole lookup (possibly becoming the
            // builder ourselves).
        }
    }

    /// The map's counters as one uniform [`CacheStats`] snapshot. Note
    /// `entries` takes every shard lock, so this is an introspection
    /// call, not a hot-path one.
    ///
    /// [`CacheStats`]: crate::CacheStats
    pub fn stats(&self) -> crate::CacheStats {
        let entries: usize =
            self.shards.iter().map(|s| lock_counted(s, &self.locks).slots.len()).sum();
        crate::CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            lock_acquires: self.locks.acquires(),
            lock_contended: self.locks.contended(),
            lock_wait_ns: self.locks.wait_ns(),
            shards: self.shards.len() as u64,
            entries: entries as u64,
            ..Default::default()
        }
    }
}

/// Resolves an in-flight build on the way out: `complete` publishes the
/// value; dropping without completing (builder panicked) removes the
/// placeholder and marks the build abandoned so waiters retry. Either
/// way the placeholder is still the builder's own: in-flight slots are
/// never evicted, and only their builder removes them.
struct AbandonOnUnwind<'a, K: Hash + Eq + Clone, V> {
    map: &'a ShardedMap<K, V>,
    key: &'a K,
    inflight: &'a Arc<InFlight<V>>,
}

impl<K: Hash + Eq + Clone, V> AbandonOnUnwind<'_, K, V> {
    fn complete(self, value: Arc<V>) {
        {
            let mut shard = lock_counted(self.map.shard(self.key), &self.map.locks);
            let tick = shard.touch();
            if let Some(slot) = shard.slots.get_mut(self.key) {
                *slot = Slot::Ready(Arc::clone(&value), tick);
            }
        }
        let mut state = self.inflight.state.lock().unwrap_or_else(|p| p.into_inner());
        *state = BuildState::Done(value);
        self.inflight.cv.notify_all();
        drop(state);
        std::mem::forget(self);
    }
}

impl<K: Hash + Eq + Clone, V> Drop for AbandonOnUnwind<'_, K, V> {
    fn drop(&mut self) {
        lock_counted(self.map.shard(self.key), &self.map.locks).slots.remove(self.key);
        let mut state = self.inflight.state.lock().unwrap_or_else(|p| p.into_inner());
        *state = BuildState::Abandoned;
        self.inflight.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn builds_once_then_hits() {
        let map: ShardedMap<u64, String> = ShardedMap::new(8);
        let builds = AtomicUsize::new(0);
        for _ in 0..3 {
            let v = map.get_or_build(7, || {
                builds.fetch_add(1, Ordering::Relaxed);
                "value".to_string()
            });
            assert_eq!(*v, "value");
        }
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let stats = map.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn concurrent_same_key_single_flights() {
        let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(8));
        let builds = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let map = Arc::clone(&map);
                let builds = Arc::clone(&builds);
                scope.spawn(move || {
                    let v = map.get_or_build(1, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        // Give siblings time to coalesce on the build.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        42
                    });
                    assert_eq!(*v, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "exactly one build");
        assert_eq!(map.stats().misses, 1);
        assert_eq!(map.stats().hits, 7);
    }

    #[test]
    fn panicking_builder_does_not_strand_waiters() {
        let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(1));
        let first = {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    map.get_or_build(1, || panic!("injected"));
                }));
            })
        };
        first.join().expect("panic was caught");
        // The failed build left no entry; a retry builds cleanly.
        let v = map.get_or_build(1, || 9);
        assert_eq!(*v, 9);
    }

    #[test]
    fn lock_stats_count_acquisitions() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(2);
        map.get_or_build(1, || 1);
        assert!(map.stats().lock_acquires >= 1);
        assert_eq!(map.stats().lock_contended, 0, "uncontended single thread");
    }

    #[test]
    fn lru_evicts_the_oldest_entry() {
        let map: ShardedMap<&str, u64> = ShardedMap::new(2);
        assert_eq!(map.stats().shards, 1, "small capacity keeps exact global LRU");
        map.get_or_build("a", || 1);
        map.get_or_build("b", || 2);
        // Touch the first entry so the second becomes LRU.
        map.get_or_build("a", || 1);
        map.get_or_build("c", || 3);
        assert_eq!(map.stats().evictions, 1);
        // "a" survived; "b" was evicted.
        map.get_or_build("a", || 1);
        map.get_or_build("b", || 2);
        assert_eq!(map.stats().hits, 2);
        assert_eq!(map.stats().misses, 4);
    }

    #[test]
    fn large_capacity_stripes_without_losing_hits() {
        let map: ShardedMap<&str, u64> = ShardedMap::new(4096);
        assert!(map.stats().shards > 1, "large capacity should stripe");
        for name in ["a", "b", "c", "d"] {
            map.get_or_build(name, || 0);
        }
        for name in ["a", "b", "c", "d"] {
            map.get_or_build(name, || 0);
        }
        let stats = map.stats();
        assert_eq!((stats.hits, stats.misses), (4, 4));
        assert_eq!(stats.entries, 4);
        assert!(map.stats().lock_acquires > 0);
    }

    #[test]
    fn in_flight_build_is_never_evicted() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let map = &map;
            let builder = scope.spawn(move || {
                *map.get_or_build(1, || {
                    started_tx.send(()).expect("test thread listens");
                    release_rx.recv().expect("test thread releases the build");
                    10
                })
            });
            started_rx.recv().expect("builder starts");
            let waiter = scope.spawn(move || *map.get_or_build(1, || unreachable!("coalesces")));
            while map.stats().coalesced == 0 {
                std::thread::yield_now();
            }
            // Key 1's build fills the only slot, so key 2 cannot evict it:
            // it is built and returned but not stored.
            assert_eq!(*map.get_or_build(2, || 20), 20);
            assert_eq!(map.stats().evictions, 0);
            release_tx.send(()).expect("builder waits for release");
            assert_eq!(builder.join().expect("builder"), 10);
            assert_eq!(waiter.join().expect("waiter"), 10, "waiter got the built value");
        });
        // Once ready, the entry is an ordinary LRU victim.
        assert_eq!(*map.get_or_build(1, || unreachable!("cached")), 10);
        map.get_or_build(2, || 20);
        let stats = map.stats();
        assert_eq!((stats.evictions, stats.entries), (1, 1));
    }
}

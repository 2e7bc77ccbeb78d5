//! Retry/backoff wrapper around any [`ChunkStore`].
//!
//! [`ResilientChunkStore`] retries operations whose failure is
//! *transient* per [`StorageError::is_transient`] — injected faults,
//! timeouts, checksum mismatches, short reads — under a bounded
//! [`RetryPolicy`]: capped attempt count, exponential backoff with
//! deterministic jitter, and a per-operation deadline. Permanent errors
//! (missing chunk, unknown array, unsupported operation) are returned
//! immediately: retrying them cannot help and would only add latency.
//!
//! Every retry and every detected corruption is counted in
//! [`ResilienceStats`], which the APR folds into its per-query
//! statistics so degraded runs are *visible*, not silent.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use ssdm_obs as obs;

use crate::store::{
    Capabilities, ChunkRows, ChunkStore, CompositeRows, IoStats, RawChunkAccess, StorageError,
};

/// Process-wide resilience counters (all [`ResilientChunkStore`]
/// instances), mirrored into the obs registry so the Prometheus
/// endpoint sees retries without a query in flight.
fn obs_retries() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_resilience_retries"))
}

fn obs_giveups() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_resilience_giveups"))
}

fn obs_corruption_detected() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_resilience_corruption_detected"))
}

fn obs_corruption_repaired() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_resilience_corruption_repaired"))
}

/// Bounded-retry configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Cap on a single backoff pause.
    pub max_backoff: Duration,
    /// Total wall-clock budget for one operation, attempts + pauses.
    /// `None` = unbounded (the attempt cap still applies).
    pub deadline: Option<Duration>,
    /// Seed for the deterministic jitter applied to each pause, so two
    /// runs with the same seed back off identically.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            deadline: Some(Duration::from_secs(2)),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — useful to make the wrapper a
    /// pass-through while keeping its corruption accounting.
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// A fast-test policy: generous attempts, negligible pauses.
    pub fn aggressive() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(1),
            max_backoff: Duration::from_micros(64),
            deadline: Some(Duration::from_secs(5)),
            jitter_seed: 0x5EED,
        }
    }

    /// Backoff before attempt `attempt + 1` (0-based failed attempt),
    /// with deterministic jitter in `[50%, 100%]` of the exponential
    /// value, derived from the seed and the attempt number only.
    fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.max_backoff);
        if exp.is_zero() {
            return exp;
        }
        // SplitMix64 step over (seed, attempt): deterministic jitter.
        let mut z = self
            .jitter_seed
            .wrapping_add(attempt as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let frac = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        exp.mul_f64(frac)
    }
}

/// Counters kept by the resilience layer. All monotonically increasing
/// until [`ChunkStore::reset_resilience_stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Extra attempts beyond the first (i.e. actual retries).
    pub retries: u64,
    /// Transient failures observed (each may or may not have been
    /// retried, depending on remaining budget).
    pub transient_failures: u64,
    /// Permanent failures passed through without retry.
    pub permanent_failures: u64,
    /// Checksum/frame violations detected ([`StorageError::Corrupt`]).
    pub corruption_detected: u64,
    /// Operations that saw a checksum violation and then succeeded on a
    /// retry — in-transit corruption healed by a re-read.
    pub corruption_repaired: u64,
    /// Short reads detected ([`StorageError::ShortRead`]).
    pub short_reads: u64,
    /// Operations abandoned with [`StorageError::DeadlineExceeded`]
    /// after the attempt or time budget ran out.
    pub giveups: u64,
}

impl ResilienceStats {
    /// Element-wise sum, for aggregating across layers.
    pub fn merge(&self, other: &ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            retries: self.retries + other.retries,
            transient_failures: self.transient_failures + other.transient_failures,
            permanent_failures: self.permanent_failures + other.permanent_failures,
            corruption_detected: self.corruption_detected + other.corruption_detected,
            corruption_repaired: self.corruption_repaired + other.corruption_repaired,
            short_reads: self.short_reads + other.short_reads,
            giveups: self.giveups + other.giveups,
        }
    }

    /// Element-wise difference (`self - earlier`), for computing the
    /// delta attributable to one query.
    pub fn since(&self, earlier: &ResilienceStats) -> ResilienceStats {
        ResilienceStats {
            retries: self.retries.saturating_sub(earlier.retries),
            transient_failures: self
                .transient_failures
                .saturating_sub(earlier.transient_failures),
            permanent_failures: self
                .permanent_failures
                .saturating_sub(earlier.permanent_failures),
            corruption_detected: self
                .corruption_detected
                .saturating_sub(earlier.corruption_detected),
            corruption_repaired: self
                .corruption_repaired
                .saturating_sub(earlier.corruption_repaired),
            short_reads: self.short_reads.saturating_sub(earlier.short_reads),
            giveups: self.giveups.saturating_sub(earlier.giveups),
        }
    }
}

/// A [`ChunkStore`] decorator that retries transient failures of the
/// store it wraps.
pub struct ResilientChunkStore<S: ChunkStore> {
    inner: S,
    policy: RetryPolicy,
    // Behind a mutex so concurrent reads can count from many worker
    // threads at once.
    stats: Mutex<ResilienceStats>,
}

impl<S: ChunkStore> ResilientChunkStore<S> {
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        ResilientChunkStore {
            inner,
            policy,
            stats: Mutex::new(ResilienceStats::default()),
        }
    }

    pub fn with_defaults(inner: S) -> Self {
        Self::new(inner, RetryPolicy::default())
    }

    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The retry loop for writes over the exclusive (`&mut`) inner
    /// store.
    fn run<T>(
        &mut self,
        name: &'static str,
        mut op: impl FnMut(&mut S) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        // Split the borrow: `op` owns `&mut self.inner`, the loop only
        // touches `policy` (Copy) and the stats mutex.
        let inner = &mut self.inner;
        retry_loop(
            self.policy,
            &self.stats,
            name,
            || op(inner),
            relstore::busy_wait,
        )
    }

    /// The retry loop for reads. A backing-off read parks, so the worker
    /// thread yields the CPU to its siblings.
    fn read<T>(
        &self,
        name: &'static str,
        op: impl FnMut() -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        retry_loop(self.policy, &self.stats, name, op, relstore::park_wait)
    }
}

/// The retry loop. Runs `op` until it succeeds, fails permanently, or
/// exhausts the attempt/deadline budget (then
/// [`StorageError::DeadlineExceeded`]).
///
/// `pause` is how a backoff is spent: writes busy-wait (sub-millisecond
/// precision), reads park so a backing-off worker thread yields the CPU
/// to its siblings.
fn retry_loop<T>(
    policy: RetryPolicy,
    stats: &Mutex<ResilienceStats>,
    name: &'static str,
    mut op: impl FnMut() -> Result<T, StorageError>,
    pause: fn(Duration),
) -> Result<T, StorageError> {
    let start = Instant::now();
    let mut attempt = 0u32;
    let mut saw_corruption = false;
    loop {
        match op() {
            Ok(v) => {
                if saw_corruption {
                    stats.lock().expect("stats mutex").corruption_repaired += 1;
                    if obs::recorder().enabled() {
                        obs_corruption_repaired().add(1);
                    }
                }
                return Ok(v);
            }
            Err(e) => {
                saw_corruption |= matches!(e, StorageError::Corrupt { .. });
                {
                    let mut st = stats.lock().expect("stats mutex");
                    match &e {
                        StorageError::Corrupt { .. } => {
                            st.corruption_detected += 1;
                            if obs::recorder().enabled() {
                                obs_corruption_detected().add(1);
                            }
                        }
                        StorageError::ShortRead { .. } => st.short_reads += 1,
                        _ => {}
                    }
                    if e.is_transient() {
                        st.transient_failures += 1;
                    } else {
                        st.permanent_failures += 1;
                    }
                }
                if !e.is_transient() {
                    return Err(e);
                }
                attempt += 1;
                let out_of_attempts = attempt >= policy.max_attempts.max(1);
                let backoff = policy.backoff(attempt - 1);
                let out_of_time = policy
                    .deadline
                    .is_some_and(|d| start.elapsed() + backoff >= d);
                if out_of_attempts || out_of_time {
                    stats.lock().expect("stats mutex").giveups += 1;
                    if obs::recorder().enabled() {
                        obs_giveups().add(1);
                    }
                    return Err(StorageError::DeadlineExceeded {
                        op: name,
                        attempts: attempt,
                        last_error: e.to_string(),
                    });
                }
                stats.lock().expect("stats mutex").retries += 1;
                if obs::recorder().enabled() {
                    obs_retries().add(1);
                }
                pause(backoff);
            }
        }
    }
}

impl<S: ChunkStore> ChunkStore for ResilientChunkStore<S> {
    fn begin_array(&mut self, array_id: u64, chunk_bytes: usize) -> Result<(), StorageError> {
        self.run("begin_array", |s| s.begin_array(array_id, chunk_bytes))
    }

    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.run("put_chunk", |s| s.put_chunk(array_id, chunk_id, data))
    }

    fn get_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        self.read("get_chunk", || self.inner.get_chunk(array_id, chunk_id))
    }

    fn get_chunks_in(&self, array_id: u64, chunk_ids: &[u64]) -> Result<ChunkRows, StorageError> {
        self.read("get_chunks_in", || {
            self.inner.get_chunks_in(array_id, chunk_ids)
        })
    }

    fn get_chunk_range(&self, array_id: u64, lo: u64, hi: u64) -> Result<ChunkRows, StorageError> {
        self.read("get_chunk_range", || {
            self.inner.get_chunk_range(array_id, lo, hi)
        })
    }

    fn get_composite_range(
        &self,
        lo: (u64, u64),
        hi: (u64, u64),
    ) -> Result<CompositeRows, StorageError> {
        self.read("get_composite_range", || {
            self.inner.get_composite_range(lo, hi)
        })
    }

    fn get_composite_in(&self, keys: &[(u64, u64)]) -> Result<CompositeRows, StorageError> {
        self.read("get_composite_in", || self.inner.get_composite_in(keys))
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        self.run("delete_array", |s| s.delete_array(array_id, chunk_count))
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&mut self) {
        self.inner.reset_io_stats()
    }

    fn resilience_stats(&self) -> ResilienceStats {
        // Merge with any nested layer's counters (e.g. a second wrapper
        // below the fault injector in exotic stacks).
        self.stats
            .lock()
            .expect("stats mutex")
            .merge(&self.inner.resilience_stats())
    }

    fn reset_resilience_stats(&mut self) {
        *self.stats.get_mut().expect("stats mutex") = ResilienceStats::default();
        self.inner.reset_resilience_stats();
    }

    fn shard_stats(&self) -> Option<crate::shard::ShardStats> {
        self.inner.shard_stats()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        // Not retried: an fsync failure leaves durability unknown, so
        // surfacing it beats masking it with a retry that may succeed
        // without the lost writes.
        self.inner.sync()
    }
}

impl<S: ChunkStore + RawChunkAccess> RawChunkAccess for ResilientChunkStore<S> {
    fn flip_stored_bit(
        &mut self,
        array_id: u64,
        chunk_id: u64,
        bit: u64,
    ) -> Result<bool, StorageError> {
        // Deliberately NOT retried: this is a test/diagnostic hook.
        self.inner.flip_stored_bit(array_id, chunk_id, bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryChunkStore;

    /// A store that fails the first `fail_first` read attempts with a
    /// transient error, then delegates.
    struct Flaky {
        inner: MemoryChunkStore,
        fail_first: u32,
        calls: std::sync::atomic::AtomicU32,
    }

    impl ChunkStore for Flaky {
        fn put_chunk(
            &mut self,
            array_id: u64,
            chunk_id: u64,
            data: &[u8],
        ) -> Result<(), StorageError> {
            self.inner.put_chunk(array_id, chunk_id, data)
        }

        fn get_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
            let calls = 1 + self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if calls <= self.fail_first {
                return Err(StorageError::Transient("simulated hiccup".into()));
            }
            self.inner.get_chunk(array_id, chunk_id)
        }

        fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
            self.inner.delete_array(array_id, chunk_count)
        }

        fn capabilities(&self) -> Capabilities {
            self.inner.capabilities()
        }

        fn io_stats(&self) -> IoStats {
            self.inner.io_stats()
        }

        fn reset_io_stats(&mut self) {
            self.inner.reset_io_stats()
        }
    }

    fn flaky(fail_first: u32) -> Flaky {
        let mut inner = MemoryChunkStore::new();
        inner.put_chunk(1, 0, b"payload!").unwrap();
        Flaky {
            inner,
            fail_first,
            calls: Default::default(),
        }
    }

    #[test]
    fn retries_transient_until_success() {
        let s = ResilientChunkStore::new(flaky(2), RetryPolicy::aggressive());
        assert_eq!(s.get_chunk(1, 0).unwrap(), b"payload!");
        let st = s.resilience_stats();
        assert_eq!(st.retries, 2);
        assert_eq!(st.transient_failures, 2);
        assert_eq!(st.giveups, 0);
    }

    #[test]
    fn gives_up_after_attempt_budget() {
        let s = ResilientChunkStore::new(
            flaky(100),
            RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::aggressive()
            },
        );
        let err = s.get_chunk(1, 0).unwrap_err();
        match err {
            StorageError::DeadlineExceeded { op, attempts, .. } => {
                assert_eq!(op, "get_chunk");
                assert_eq!(attempts, 3);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        let st = s.resilience_stats();
        assert_eq!(st.retries, 2, "two pauses for three attempts");
        assert_eq!(st.giveups, 1);
        assert!(!err.is_transient(), "giveup is terminal");
    }

    #[test]
    fn permanent_errors_pass_through_without_retry() {
        let s = ResilientChunkStore::new(flaky(0), RetryPolicy::aggressive());
        assert!(matches!(
            s.get_chunk(1, 77),
            Err(StorageError::MissingChunk { .. })
        ));
        let st = s.resilience_stats();
        assert_eq!(st.retries, 0);
        assert_eq!(st.permanent_failures, 1);
    }

    #[test]
    fn corruption_is_detected_and_counted() {
        let mut inner = MemoryChunkStore::new();
        inner.put_chunk(1, 0, b"dddddddd").unwrap();
        let mut s = ResilientChunkStore::new(inner, RetryPolicy::no_retries());
        s.inner_mut().flip_stored_bit(1, 0, 170).unwrap();
        let err = s.get_chunk(1, 0).unwrap_err();
        assert!(matches!(err, StorageError::DeadlineExceeded { .. }));
        assert_eq!(s.resilience_stats().corruption_detected, 1);
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        let a: Vec<Duration> = (0..6).map(|i| p.backoff(i)).collect();
        let b: Vec<Duration> = (0..6).map(|i| p.backoff(i)).collect();
        assert_eq!(a, b, "same seed, same pauses");
        for (i, d) in a.iter().enumerate() {
            assert!(*d <= p.max_backoff, "pause {i} over cap: {d:?}");
        }
        // Exponential-ish growth before the cap bites.
        assert!(a[1] > a[0] / 2, "jitter keeps at least half the base");
        let q = RetryPolicy {
            jitter_seed: 7,
            ..p
        };
        assert_ne!(
            (0..6).map(|i| q.backoff(i)).collect::<Vec<_>>(),
            a,
            "different seed, different jitter"
        );
    }

    #[test]
    fn stats_since_and_merge() {
        let a = ResilienceStats {
            retries: 5,
            transient_failures: 6,
            permanent_failures: 1,
            corruption_detected: 2,
            corruption_repaired: 1,
            short_reads: 1,
            giveups: 1,
        };
        let b = ResilienceStats {
            retries: 2,
            transient_failures: 3,
            ..Default::default()
        };
        assert_eq!(a.since(&b).retries, 3);
        assert_eq!(a.merge(&b).transient_failures, 9);
    }
}

//! The chunk-retrieval pipeline under the APR executor.
//!
//! The APR fetch plan is a list of independent back-end statements
//! ([`FetchOp`]s) — one per chunk under `Single`, one per batch under
//! `BufferedIn`, one per detected run under `SpdRange`. This module
//! partitions the plan across a scoped worker pool over the `&self`
//! reads of [`ChunkStore`], so round trips (and the CRC32 frame
//! verification of their results, which happens on each worker)
//! overlap. With one worker the ops run in plan order on the calling
//! thread — that *is* the sequential path. Results come back per op in
//! plan order, so assembly is **bit-identical** for every worker count,
//! and the back-end's [`IoStats`](crate::IoStats) accounting stays
//! exact, because exactly the same statements execute — just
//! concurrently.
//!
//! A failed *batched* statement (an `IN`-list of several ids, or a
//! range) degrades to per-chunk retrieval of the needed ids it covered,
//! inside the worker that claimed it, so a corrupt or unavailable chunk
//! that was only *overfetched* by a covering range cannot sink a query
//! that never needed it. Errors that survive the fallback are reported
//! deterministically — the failing op earliest in plan order wins,
//! regardless of worker timing.
//!
//! Back-ends opt in to more than one worker via
//! [`Capabilities::supports_parallel`] (austere or fault-injecting
//! stacks leave it unset and the APR executor clamps to one worker).
//!
//! [`Capabilities::supports_parallel`]: crate::Capabilities::supports_parallel

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ssdm_array::pool;
use ssdm_obs as obs;

use crate::spd::FetchOp;
use crate::store::{ChunkRows, ChunkStore};
use crate::Result;

/// Process-wide count of batched statements that degraded to per-chunk
/// fallback retrieval (every APR resolution, any worker count).
fn obs_apr_fallbacks() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_apr_fallbacks"))
}

/// Tuning for APR resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to partition the fetch plan across. `0` or `1`
    /// selects the sequential path.
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { workers: 4 }
    }
}

impl ParallelConfig {
    /// One worker: the plan runs in order on the calling thread.
    pub const SEQUENTIAL: ParallelConfig = ParallelConfig { workers: 1 };

    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig { workers }
    }
}

/// Execute every op of `plan` against `backend`, partitioned across at
/// most `workers` scoped threads. Returns the fetched rows *per op, in
/// plan order* plus the number of batched-statement fallbacks taken.
///
/// Workers claim ops from a shared cursor (work stealing by exhaustion,
/// so a slow range statement does not idle the pool), execute them
/// through the `&self` reads, and deposit results into the op's slot;
/// assembly then walks the slots in plan order, which makes both the
/// row order and the choice of reported error independent of thread
/// scheduling.
pub fn fetch_plan<S: ChunkStore + ?Sized>(
    backend: &S,
    array_id: u64,
    plan: &[FetchOp],
    needed: &[u64],
    workers: usize,
) -> Result<(Vec<ChunkRows>, u64)> {
    let limit = AtomicUsize::new(usize::MAX);
    let (results, fallbacks) = run_plan(
        backend,
        array_id,
        plan,
        needed,
        workers,
        &limit,
        |_, rows| Ok(rows),
    );
    Ok((results.into_iter().collect::<Result<_>>()?, fallbacks))
}

/// The generalized pipeline under [`fetch_plan`]: each claimed op's
/// rows are handed to `process` *inside the worker that fetched them*,
/// so per-chunk work (decoding, gathering, partial aggregate folds —
/// see the APR executor in [`crate::apr`]) overlaps the round trips of
/// the other ops and the payloads can be dropped without ever being
/// assembled centrally. `process` receives the op's plan index.
///
/// Ops whose index is at or above `limit` when they are claimed are
/// skipped and yield `T::default()`; lowering `limit` from inside
/// `process` is how an existence scan stops claiming ops after its
/// first match. Returns each op's result in plan order (callers pick
/// the earliest error) and the number of batched-statement fallbacks.
pub fn run_plan<S, T, F>(
    backend: &S,
    array_id: u64,
    plan: &[FetchOp],
    needed: &[u64],
    workers: usize,
    limit: &AtomicUsize,
    process: F,
) -> (Vec<Result<T>>, u64)
where
    S: ChunkStore + ?Sized,
    T: Send + Default,
    F: Fn(usize, ChunkRows) -> Result<T> + Sync,
{
    let fallbacks = AtomicU64::new(0);
    let results = scatter_gather(workers, plan, |i, op| {
        if i >= limit.load(Ordering::Relaxed) {
            return Ok(T::default());
        }
        execute_one(backend, array_id, op, needed, &fallbacks).and_then(|rows| process(i, rows))
    });
    (results, fallbacks.into_inner())
}

/// The scatter-gather engine under [`run_plan`], generalized from "N
/// workers over one backend's fetch plan" to any job list — the sharded
/// store ([`crate::ShardedChunkStore`]) reuses it to run "N workers
/// over N shards". Workers claim jobs from a shared cursor and deposit
/// each result into that job's slot; the returned vector is in **job
/// order**, so callers that iterate it report errors deterministically
/// regardless of worker timing.
pub fn scatter_gather<J, T, E>(workers: usize, jobs: &[J], execute: E) -> Vec<Result<T>>
where
    J: Sync,
    T: Send,
    E: Fn(usize, &J) -> Result<T> + Sync,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs.len());
    let slots: Vec<Mutex<Option<Result<T>>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    pool::dispatch(workers, jobs.len(), |i| {
        let r = execute(i, &jobs[i]);
        *slots[i].lock().expect("result slot") = Some(r);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("job claimed")
        })
        .collect()
}

/// Execute one fetch op, degrading a failed batched statement to
/// per-chunk reads of the needed ids it covered.
fn execute_one<S: ChunkStore + ?Sized>(
    backend: &S,
    array_id: u64,
    op: &FetchOp,
    needed: &[u64],
    fallbacks: &AtomicU64,
) -> Result<ChunkRows> {
    let _span = ssdm_obs::Span::start(crate::apr::obs_chunk_fetch_hist());
    let batched = match op {
        FetchOp::Range { .. } => true,
        FetchOp::In(ids) => ids.len() > 1,
    };
    let direct = match op {
        FetchOp::Range { lo, hi } => backend.get_chunk_range(array_id, *lo, *hi),
        FetchOp::In(ids) if ids.len() == 1 => backend
            .get_chunk(array_id, ids[0])
            .map(|d| vec![(ids[0], d)]),
        FetchOp::In(ids) => backend.get_chunks_in(array_id, ids),
    };
    match direct {
        Ok(rows) => Ok(rows),
        Err(e) if !batched => Err(e),
        Err(_) => {
            fallbacks.fetch_add(1, Ordering::Relaxed);
            if obs::recorder().enabled() {
                obs_apr_fallbacks().add(1);
            }
            let ids: Vec<u64> = match op {
                FetchOp::In(ids) => ids.clone(),
                FetchOp::Range { lo, hi } => needed
                    .iter()
                    .copied()
                    .filter(|c| (*lo..=*hi).contains(c))
                    .collect(),
            };
            ids.into_iter()
                .map(|c| backend.get_chunk(array_id, c).map(|d| (c, d)))
                .collect()
        }
    }
}

/// Convenience used by tests and callers that want a flat map of chunk
/// id → payload from a parallel fetch.
pub fn fetch_plan_merged<S: ChunkStore + ?Sized>(
    backend: &S,
    array_id: u64,
    plan: &[FetchOp],
    needed: &[u64],
    workers: usize,
) -> Result<(std::collections::HashMap<u64, Vec<u8>>, u64)> {
    let (per_op, fallbacks) = fetch_plan(backend, array_id, plan, needed, workers)?;
    let mut out = std::collections::HashMap::new();
    for rows in per_op {
        for (cid, payload) in rows {
            out.insert(cid, payload);
        }
    }
    Ok((out, fallbacks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryChunkStore, StorageError};

    fn seeded_store(chunks: u64) -> MemoryChunkStore {
        let mut s = MemoryChunkStore::new();
        for c in 0..chunks {
            s.put_chunk(1, c, &[c as u8; 16]).unwrap();
        }
        s
    }

    #[test]
    fn parallel_matches_sequential_rows() {
        let s = seeded_store(32);
        let plan: Vec<FetchOp> = (0..32).map(|c| FetchOp::In(vec![c])).collect();
        let needed: Vec<u64> = (0..32).collect();
        for workers in [1, 2, 4, 8] {
            let (rows, fb) = fetch_plan(&s, 1, &plan, &needed, workers).unwrap();
            assert_eq!(fb, 0);
            assert_eq!(rows.len(), 32);
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(r.as_slice(), &[(i as u64, vec![i as u8; 16])]);
            }
        }
    }

    #[test]
    fn io_stats_stay_exact_under_concurrency() {
        let s = seeded_store(64);
        let plan: Vec<FetchOp> = (0..64).map(|c| FetchOp::In(vec![c])).collect();
        let needed: Vec<u64> = (0..64).collect();
        fetch_plan(&s, 1, &plan, &needed, 8).unwrap();
        let st = s.io_stats();
        assert_eq!(st.statements, 64);
        assert_eq!(st.chunks_returned, 64);
    }

    #[test]
    fn earliest_op_error_wins() {
        let s = seeded_store(8);
        // Ops 3 and 6 reference a missing chunk; whichever worker hits
        // them, the reported error must be op 3's.
        let plan: Vec<FetchOp> = (0..8)
            .map(|c| FetchOp::In(vec![if c == 3 || c == 6 { 100 + c } else { c }]))
            .collect();
        let needed: Vec<u64> = (0..8).collect();
        for _ in 0..16 {
            let err = fetch_plan(&s, 1, &plan, &needed, 4).unwrap_err();
            match err {
                StorageError::MissingChunk { chunk_id, .. } => assert_eq!(chunk_id, 103),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let s = seeded_store(1);
        let (rows, fb) = fetch_plan(&s, 1, &[], &[], 4).unwrap();
        assert!(rows.is_empty());
        assert_eq!(fb, 0);
    }
}

//! The ISSUE-1 acceptance scenario: deterministic fault injection vs
//! the resilience stack.
//!
//! With a 10% transient-fault plan, queries through
//! `ResilientChunkStore` must succeed with *bit-identical* results to
//! the fault-free run and visibly non-zero retry statistics, while the
//! same plan without the resilience wrapper fails. Injected checksum
//! corruption must surface as an error, never as silently wrong data.
//!
//! The plan seed honours `SSDM_FAULT_SEED` (the CI fault matrix runs
//! this file under seeds 1, 2 and 3), defaulting to 1.

use ssdm_array::{AggregateOp, NumArray};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayStore, ChunkStore, FaultInjectingChunkStore, FaultKind, FaultPlan, MemoryChunkStore,
    OpKind, ParallelConfig, RawChunkAccess, ResilientChunkStore, RetrievalStrategy, RetryPolicy,
    StorageError,
};

const ROWS: usize = 24;
const COLS: usize = 24;
const CHUNK_BYTES: usize = 64;

fn matrix() -> NumArray {
    NumArray::from_i64_shaped((0..(ROWS * COLS) as i64).collect(), &[ROWS, COLS]).unwrap()
}

fn strategies() -> Vec<RetrievalStrategy> {
    vec![
        RetrievalStrategy::Single,
        RetrievalStrategy::BufferedIn { buffer_size: 4 },
        RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        },
        RetrievalStrategy::WholeArray,
    ]
}

/// Resolve a battery of views under every strategy, returning each
/// result as element vectors (or propagating the first failure).
fn run_battery<S: ChunkStore>(
    store: &mut ArrayStore<S>,
    proxy: &ssdm_storage::ArrayProxy,
) -> Result<Vec<Vec<i64>>, StorageError> {
    let mut out = Vec::new();
    for strategy in strategies() {
        for view in [
            proxy.clone(),
            proxy.subscript(1, 7).unwrap(),
            proxy.subscript(0, 3).unwrap(),
            proxy.slice(0, 2, 3, 19).unwrap(),
        ] {
            let resolved = store.resolve(&view, strategy, ParallelConfig::SEQUENTIAL)?;
            out.push(resolved.elements().iter().map(|n| n.as_i64()).collect());
        }
        let sum = store.resolve_aggregate(
            proxy,
            AggregateOp::Sum,
            strategy,
            ParallelConfig::SEQUENTIAL,
        )?;
        out.push(vec![sum.as_i64()]);
    }
    Ok(out)
}

fn seed() -> u64 {
    FaultPlan::seed_from_env(1)
}

/// Fault-free ground truth.
fn baseline() -> Vec<Vec<i64>> {
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();
    run_battery(&mut store, &proxy).unwrap()
}

#[test]
fn resilient_queries_survive_ten_percent_faults_bit_identically() {
    let expected = baseline();
    let plan = FaultPlan::transient_reads(seed(), 0.10);
    let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
    let resilient = ResilientChunkStore::new(injected, RetryPolicy::aggressive());
    let mut store = ArrayStore::new(resilient);
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();

    let mut total_retries = 0;
    let mut got = Vec::new();
    // Re-run the battery a few times so enough statements are issued to
    // make the 10% plan bite regardless of the seed.
    for _ in 0..5 {
        got = run_battery(&mut store, &proxy)
            .expect("resilient stack must absorb a 10% transient-fault plan");
        total_retries += store.backend().resilience_stats().retries;
        store.backend_mut().reset_resilience_stats();
    }
    assert_eq!(got, expected, "results must be bit-identical to fault-free");
    assert!(total_retries > 0, "the plan must actually have fired");
    assert!(
        store.backend().inner().fault_stats().total_injected() > 0,
        "injector saw no traffic?"
    );
}

#[test]
fn apr_stats_report_retries_under_faults() {
    let plan = FaultPlan::transient_reads(seed(), 0.35);
    let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
    let resilient = ResilientChunkStore::new(injected, RetryPolicy::aggressive());
    let mut store = ArrayStore::new(resilient);
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();

    let mut saw_retries = false;
    for _ in 0..10 {
        store
            .resolve(
                &proxy,
                RetrievalStrategy::BufferedIn { buffer_size: 4 },
                ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        if store.last_stats().retries > 0 {
            saw_retries = true;
            assert!(store.last_stats().degraded());
            break;
        }
    }
    assert!(saw_retries, "AprStats.retries never became non-zero");
}

#[test]
fn same_plan_without_resilience_fails() {
    let plan = FaultPlan::transient_reads(seed(), 0.10);
    let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
    let mut store = ArrayStore::new(injected);
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();

    let mut failures = 0;
    for _ in 0..5 {
        if run_battery(&mut store, &proxy).is_err() {
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "a 10% fault plan with no retry layer must sink some queries"
    );
}

#[test]
fn batched_statement_giveup_degrades_to_per_chunk_fallback() {
    let expected = baseline();
    // Script a burst long enough to exhaust a 2-attempt policy on the
    // first batched read statement; the per-chunk fallback reads that
    // follow are clean and the query must succeed.
    let plan = FaultPlan::scripted(seed(), vec![])
        .fail_nth(OpKind::Read, 1, FaultKind::Transient)
        .fail_nth(OpKind::Read, 2, FaultKind::Transient);
    let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
    let resilient = ResilientChunkStore::new(injected, RetryPolicy::aggressive());
    let mut store = ArrayStore::new(resilient);
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();

    let got = run_battery(&mut store, &proxy).expect("retries must absorb the burst");
    assert_eq!(got, expected);

    // Probe with a 2-attempt policy: the first read statement (a
    // WholeArray range) exhausts its retry budget against the burst and
    // must be served per-chunk instead.
    let policy = RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::aggressive()
    };
    let mut probe_store = {
        let plan = FaultPlan::scripted(seed(), vec![])
            .fail_nth(OpKind::Read, 1, FaultKind::Transient)
            .fail_nth(OpKind::Read, 2, FaultKind::Transient);
        let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
        ArrayStore::new(ResilientChunkStore::new(injected, policy))
    };
    let probe_proxy = probe_store.store_array(&matrix(), CHUNK_BYTES).unwrap();
    let resolved = probe_store
        .resolve(
            &probe_proxy,
            RetrievalStrategy::WholeArray,
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap();
    assert_eq!(resolved.elements().len(), ROWS * COLS);
    let stats = probe_store.last_stats();
    assert!(
        stats.fallbacks > 0,
        "expected a per-chunk fallback, got {stats:?}"
    );
    assert!(stats.degraded());
    assert!(
        probe_store.backend().resilience_stats().giveups > 0,
        "the batched statement must have exhausted its retry budget"
    );
}

#[test]
fn injected_corruption_is_detected_never_silent() {
    // At-rest flip with no resilience in the stack: the read must error,
    // not return mangled bytes.
    let mut plain = MemoryChunkStore::new();
    plain.put_chunk(5, 0, &[0xAB; 64]).unwrap();
    plain.flip_stored_bit(5, 0, 300).unwrap();
    match plain.get_chunk(5, 0) {
        Err(StorageError::Corrupt {
            array_id: 5,
            chunk_id: 0,
            ..
        }) => {}
        other => panic!("corruption must surface as Corrupt, got {other:?}"),
    }

    // In-transit flip through the injector + retry layer: detected,
    // retried, healed — and the repair is visible in the APR stats.
    let plan = FaultPlan::scripted(seed(), vec![]).fail_nth(OpKind::Read, 1, FaultKind::BitFlip);
    let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
    let resilient = ResilientChunkStore::new(injected, RetryPolicy::aggressive());
    let mut store = ArrayStore::new(resilient);
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();
    let expected = baseline();
    let got = run_battery(&mut store, &proxy).unwrap();
    assert_eq!(got, expected);
    let res = store.backend().resilience_stats();
    assert!(res.corruption_detected > 0, "flip must be seen: {res:?}");
    assert!(res.corruption_repaired > 0, "re-read must heal it: {res:?}");
}

#[test]
fn missing_chunk_faults_fail_fast_without_retries() {
    let plan = FaultPlan::scripted(seed(), vec![]).fail_nth(OpKind::Read, 1, FaultKind::Missing);
    let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
    let resilient = ResilientChunkStore::new(injected, RetryPolicy::aggressive());
    let mut store = ArrayStore::new(resilient);
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();

    // Single strategy: the per-chunk statement has no batched fallback,
    // and MissingChunk is permanent — exactly one attempt, no pauses.
    let err = store
        .resolve(
            &proxy,
            RetrievalStrategy::Single,
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap_err();
    assert!(matches!(err, StorageError::MissingChunk { .. }));
    let res = store.backend().resilience_stats();
    assert_eq!(res.retries, 0, "permanent faults must not be retried");
    assert_eq!(res.permanent_failures, 1);
}

//! The process-wide `ssdm_apr_fallbacks` counter (Prometheus and the
//! `METRICS` statement) moves with every batched-statement fallback the
//! APR takes, one-worker resolutions included. This is the only test in
//! its binary, so no other resolution moves the counter meanwhile.

use ssdm_array::NumArray;
use ssdm_storage::{
    ArrayStore, FaultInjectingChunkStore, FaultKind, FaultPlan, MemoryChunkStore, OpKind,
    ParallelConfig, RetrievalStrategy,
};

#[test]
fn one_worker_fallbacks_reach_the_metrics_counter() {
    // The first read statement (a 4-id IN-list) fails; the APR serves
    // its ids with per-chunk reads instead.
    let plan = FaultPlan::scripted(0, vec![]).fail_nth(OpKind::Read, 1, FaultKind::Transient);
    let mut store = ArrayStore::new(FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan));
    let values: Vec<i64> = (0..64).collect();
    let proxy = store
        .store_array(&NumArray::from_i64(values.clone()), 64)
        .unwrap();
    let counter = ssdm_obs::recorder().counter("ssdm_apr_fallbacks");
    let before = counter.get();
    let got = store
        .resolve(
            &proxy,
            RetrievalStrategy::BufferedIn { buffer_size: 4 },
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap();
    let got: Vec<i64> = got.elements().iter().map(|n| n.as_i64()).collect();
    assert_eq!(got, values);
    let fallbacks = store.last_stats().fallbacks;
    assert_eq!(fallbacks, 1, "the failed IN-list must fall back");
    assert_eq!(counter.get() - before, fallbacks);
}

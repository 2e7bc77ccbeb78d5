//! Chunk-side parallel aggregation (`resolve_aggregate` with several
//! workers) is **bit-identical** to one worker for every worker count,
//! strategy, element type, and view shape: every worker folds each
//! chunk's relevant elements with the same typed kernel and the
//! per-chunk partials combine in plan order, so the fold tree never
//! depends on scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

use ssdm_array::{AggregateOp, Num, NumArray};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayStore, Capabilities, ChunkStore, IoStats, MemoryChunkStore, ParallelConfig,
    RetrievalStrategy, StorageError,
};

fn real_matrix() -> NumArray {
    NumArray::from_shape_fn(&[24, 24], |ix| {
        ((ix[0] * 131 + ix[1] * 17) as f64 * 0.37 - 40.0).into()
    })
}

fn int_matrix() -> NumArray {
    let vals: Vec<i64> = (0..24 * 24).map(|i| (i * 7919 % 1000) - 500).collect();
    NumArray::from_i64_shaped(vals, &[24, 24]).unwrap()
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

const OPS: &[AggregateOp] = &[
    AggregateOp::Sum,
    AggregateOp::Avg,
    AggregateOp::Min,
    AggregateOp::Max,
    AggregateOp::Count,
];

/// Views covering single-chunk, cross-chunk, strided, and full access.
fn views(base: &ssdm_storage::ArrayProxy) -> Vec<ssdm_storage::ArrayProxy> {
    vec![
        base.subscript(0, 3).unwrap(),    // one row (within few chunks)
        base.subscript(1, 5).unwrap(),    // one column, crosses every chunk row
        base.slice(0, 1, 3, 22).unwrap(), // strided rows
        base.slice(0, 4, 1, 11)
            .and_then(|p| p.slice(1, 4, 1, 11))
            .unwrap(), // block spanning chunk seams
        base.clone(),                     // whole array
    ]
}

fn bits(n: &Num) -> (bool, u64) {
    match n {
        Num::Int(v) => (true, *v as u64),
        Num::Real(v) => (false, v.to_bits()),
    }
}

#[test]
fn parallel_aggregation_is_bit_identical() {
    for array in [real_matrix(), int_matrix()] {
        for strategy in strategies() {
            let mut store = ArrayStore::new(MemoryChunkStore::new());
            let base = store.store_array(&array, 256).unwrap();
            for view in views(&base) {
                for &op in OPS {
                    let seq = store
                        .resolve_aggregate(&view, op, strategy, ParallelConfig::SEQUENTIAL)
                        .unwrap();
                    for workers in [1, 2, 4] {
                        let par = store
                            .resolve_aggregate(
                                &view,
                                op,
                                strategy,
                                ParallelConfig::with_workers(workers),
                            )
                            .unwrap();
                        assert_eq!(
                            bits(&par),
                            bits(&seq),
                            "{} {op:?} workers={workers}: {par:?} vs {seq:?}",
                            strategy.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_aggregation_matches_resident_for_int() {
    // Int aggregation must also agree bit-for-bit with aggregating the
    // resident array (the kernel checked-sum contract), not just with
    // the sequential streamed path.
    let array = int_matrix();
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&array, 128).unwrap();
    for &op in OPS {
        let resident = array.aggregate(op).unwrap();
        let streamed = store
            .resolve_aggregate(
                &base,
                op,
                RetrievalStrategy::BufferedIn { buffer_size: 4 },
                ParallelConfig::with_workers(4),
            )
            .unwrap();
        assert_eq!(bits(&streamed), bits(&resident), "{op:?}");
    }
}

#[test]
fn empty_views_and_count_take_no_fetches() {
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&real_matrix(), 256).unwrap();
    let config = ParallelConfig::with_workers(4);

    // Count needs no chunk payloads at all.
    store.backend_mut().reset_io_stats();
    let n = store
        .resolve_aggregate(&base, AggregateOp::Count, RetrievalStrategy::Single, config)
        .unwrap();
    assert_eq!(bits(&n), (true, (24 * 24) as u64));
    assert_eq!(store.backend().io_stats().statements, 0);

    // Empty array: Sum/Count answer without fetching, Min errors —
    // exactly like the sequential path.
    let empty = store.store_array(&NumArray::from_f64(vec![]), 256).unwrap();
    assert_eq!(
        bits(
            &store
                .resolve_aggregate(&empty, AggregateOp::Sum, RetrievalStrategy::Single, config)
                .unwrap()
        ),
        (true, 0)
    );
    assert!(store
        .resolve_aggregate(&empty, AggregateOp::Min, RetrievalStrategy::Single, config)
        .is_err());
    assert!(store
        .resolve_aggregate(
            &empty,
            AggregateOp::Min,
            RetrievalStrategy::Single,
            ParallelConfig::SEQUENTIAL
        )
        .is_err());
}

/// A back-end that declares `supports_parallel: false` and records the
/// most reads it ever had in flight at once. Each read holds the store
/// for a moment, so reads from concurrent workers would overlap.
struct NoParallelStore {
    inner: MemoryChunkStore,
    in_flight: AtomicUsize,
    peak: AtomicUsize,
}

impl NoParallelStore {
    fn new() -> Self {
        NoParallelStore {
            inner: MemoryChunkStore::new(),
            in_flight: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::SeqCst)
    }
}

impl ChunkStore for NoParallelStore {
    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.inner.put_chunk(array_id, chunk_id, data)
    }

    // The batched reads default to loops over this one.
    fn get_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        self.peak.fetch_max(now, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_micros(200));
        let out = self.inner.get_chunk(array_id, chunk_id);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        out
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        self.inner.delete_array(array_id, chunk_count)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_parallel: false,
            ..self.inner.capabilities()
        }
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&mut self) {
        self.inner.reset_io_stats()
    }
}

#[test]
fn aggregate_degrades_on_unsupported_backends_and_one_worker() {
    let mut store = ArrayStore::new(NoParallelStore::new());
    let base = store.store_array(&real_matrix(), 256).unwrap();
    let seq = store
        .resolve_aggregate(
            &base,
            AggregateOp::Sum,
            RetrievalStrategy::Single,
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap();
    // Capability gate: 4 workers requested, yet the store never sees
    // two reads at once.
    let gated = store
        .resolve_aggregate(
            &base,
            AggregateOp::Sum,
            RetrievalStrategy::Single,
            ParallelConfig::with_workers(4),
        )
        .unwrap();
    assert_eq!(bits(&gated), bits(&seq));
    assert_eq!(store.backend().peak(), 1, "reads overlapped");

    // workers == 1 degrades the same way on any back-end.
    let mut plain = ArrayStore::new(MemoryChunkStore::new());
    let base = plain.store_array(&real_matrix(), 256).unwrap();
    let seq = plain
        .resolve_aggregate(
            &base,
            AggregateOp::Sum,
            RetrievalStrategy::Single,
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap();
    let one = plain
        .resolve_aggregate(
            &base,
            AggregateOp::Sum,
            RetrievalStrategy::Single,
            ParallelConfig::with_workers(1),
        )
        .unwrap();
    assert_eq!(bits(&one), bits(&seq));
}

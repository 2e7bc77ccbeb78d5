//! Tentpole acceptance: `resolve` with several workers is
//! **bit-identical** to one worker for every strategy, pattern, and
//! worker count — and the APR statement accounting stays exact, because
//! the same back-end statements execute, just concurrently.

use std::sync::atomic::{AtomicUsize, Ordering};

use ssdm_array::NumArray;
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayStore, CachedChunkStore, Capabilities, ChunkStore, FaultInjectingChunkStore, FaultPlan,
    IoStats, MemoryChunkStore, ParallelConfig, RetrievalStrategy, StorageError,
};

fn matrix() -> NumArray {
    NumArray::from_shape_fn(&[32, 32], |ix| {
        ((ix[0] * 131 + ix[1] * 17) as f64 * 0.37).into()
    })
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

/// Views covering single-chunk, multi-chunk, strided, and full access.
fn views(base: &ssdm_storage::ArrayProxy) -> Vec<ssdm_storage::ArrayProxy> {
    vec![
        base.subscript(0, 3).unwrap(),    // one row
        base.subscript(1, 5).unwrap(),    // one column, many chunks
        base.slice(0, 1, 3, 30).unwrap(), // strided rows
        base.slice(0, 4, 1, 11)
            .and_then(|p| p.slice(1, 4, 1, 11))
            .unwrap(), // block
        base.clone(),                     // whole
    ]
}

#[test]
fn parallel_resolution_is_bit_identical_with_exact_stats() {
    for strategy in strategies() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let base = store.store_array(&matrix(), 256).unwrap();
        for view in views(&base) {
            let seq = store
                .resolve(&view, strategy, ParallelConfig::SEQUENTIAL)
                .unwrap();
            let seq_stats = store.last_stats();
            let seq_bits: Vec<u64> = seq
                .elements()
                .iter()
                .map(|n| n.as_f64().to_bits())
                .collect();
            for workers in [2, 4, 8] {
                let par = store
                    .resolve(&view, strategy, ParallelConfig::with_workers(workers))
                    .unwrap();
                let par_bits: Vec<u64> = par
                    .elements()
                    .iter()
                    .map(|n| n.as_f64().to_bits())
                    .collect();
                assert_eq!(par_bits, seq_bits, "{} workers={workers}", strategy.name());
                assert_eq!(par.shape(), seq.shape());
                let par_stats = store.last_stats();
                assert_eq!(
                    (
                        par_stats.statements,
                        par_stats.chunks_fetched,
                        par_stats.bytes_fetched
                    ),
                    (
                        seq_stats.statements,
                        seq_stats.chunks_fetched,
                        seq_stats.bytes_fetched
                    ),
                    "stats must not depend on concurrency ({} workers={workers})",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn parallel_through_the_cache_stays_identical() {
    let mut store = ArrayStore::new(CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20));
    let base = store.store_array(&matrix(), 256).unwrap();
    let col = base.subscript(1, 9).unwrap();
    let seq = store
        .resolve(&col, RetrievalStrategy::Single, ParallelConfig::SEQUENTIAL)
        .unwrap();
    // Repeat with warm cache and workers: identical bits, zero backend
    // statements.
    store.backend_mut().reset_io_stats();
    let par = store
        .resolve(&col, RetrievalStrategy::Single, ParallelConfig::default())
        .unwrap();
    assert_eq!(par.elements(), seq.elements());
    assert_eq!(
        store.backend().io_stats().statements,
        0,
        "served from cache"
    );
    assert!(store.backend().cache_stats().hit_rate() > 0.99);
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
fn unsupported_backends_degrade_to_sequential() {
    // The executor must honor the capability flag: 4 workers requested,
    // yet the store never sees two reads at once, and the answer equals
    // the one-worker run.
    let mut store = ArrayStore::new(NoParallelStore::new());
    let base = store.store_array(&matrix(), 256).unwrap();
    let col = base.subscript(1, 2).unwrap();
    let seq = store
        .resolve(&col, RetrievalStrategy::Single, ParallelConfig::SEQUENTIAL)
        .unwrap();
    let par = store
        .resolve(
            &col,
            RetrievalStrategy::Single,
            ParallelConfig::with_workers(4),
        )
        .unwrap();
    assert_eq!(seq.elements(), par.elements());
    assert_eq!(store.backend().peak(), 1, "reads overlapped");
}

#[test]
fn fault_injector_opts_out_of_parallel_reads() {
    // The injector's deterministic schedule is keyed to operation
    // order, which concurrency would scramble — it must advertise the
    // sequential-only contract.
    let s = FaultInjectingChunkStore::new(MemoryChunkStore::new(), FaultPlan::default());
    assert!(!s.capabilities().supports_parallel);
    assert!(
        MemoryChunkStore::new().capabilities().supports_parallel,
        "the wrapped store alone does support it — the injector overrides"
    );
}

#[test]
fn one_worker_is_the_sequential_path() {
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&matrix(), 256).unwrap();
    let view = base.subscript(1, 0).unwrap();
    let seq = store
        .resolve(&view, RetrievalStrategy::Single, ParallelConfig::SEQUENTIAL)
        .unwrap();
    let one = store
        .resolve(
            &view,
            RetrievalStrategy::Single,
            ParallelConfig::with_workers(1),
        )
        .unwrap();
    assert_eq!(seq.elements(), one.elements());
}

//! Satellite: a back-end whose [`Capabilities`] lack native `IN`-list
//! and range support must still serve `BufferedIn`/`SpdRange` plans —
//! the `ChunkStore` default methods delegate per chunk — and the
//! statement counts in `IoStats` must prove the downgrade happened.

use std::sync::Mutex;

use ssdm_array::NumArray;
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayStore, Capabilities, ChunkStore, IoStats, MemoryChunkStore, ParallelConfig,
    RetrievalStrategy, StorageError,
};

/// The most austere conforming back-end: single-chunk statements only,
/// every batched entry point left to the trait defaults.
struct SingleOnlyStore {
    inner: MemoryChunkStore,
    stats: Mutex<IoStats>,
}

impl SingleOnlyStore {
    fn new() -> Self {
        SingleOnlyStore {
            inner: MemoryChunkStore::new(),
            stats: Mutex::default(),
        }
    }
}

impl ChunkStore for SingleOnlyStore {
    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.inner.put_chunk(array_id, chunk_id, data)
    }

    fn get_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let payload = self.inner.get_chunk(array_id, chunk_id)?;
        let mut stats = self.stats.lock().unwrap();
        stats.statements += 1;
        stats.chunks_returned += 1;
        stats.bytes_returned += payload.len() as u64;
        Ok(payload)
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        self.inner.delete_array(array_id, chunk_count)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_in_list: false,
            supports_range: false,
            supports_cross_range: false,
            supports_parallel: false,
        }
    }

    fn io_stats(&self) -> IoStats {
        *self.stats.lock().unwrap()
    }

    fn reset_io_stats(&mut self) {
        *self.stats.get_mut().unwrap() = IoStats::default();
    }
}

#[test]
fn batched_plans_downgrade_to_per_chunk_statements() {
    let m = NumArray::from_i64_shaped((0..400).collect(), &[20, 20]).unwrap();
    let expected: Vec<i64> = (0..20).map(|r| r * 20 + 7).collect();

    for strategy in [
        RetrievalStrategy::BufferedIn { buffer_size: 8 },
        RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        },
        RetrievalStrategy::WholeArray,
    ] {
        let mut store = ArrayStore::new(SingleOnlyStore::new());
        let proxy = store.store_array(&m, 64).unwrap(); // 8 elems/chunk
        let col = proxy.subscript(1, 7).unwrap(); // touches 20 chunks
        let got: Vec<i64> = store
            .resolve(&col, strategy, ParallelConfig::SEQUENTIAL)
            .unwrap()
            .elements()
            .iter()
            .map(|n| n.as_i64())
            .collect();
        assert_eq!(got, expected, "content must not depend on capabilities");

        // The downgrade is visible: one statement *per chunk*, not per
        // batch — the default-method delegation charged each get_chunk.
        let stats = store.last_stats();
        assert_eq!(
            stats.statements,
            stats.chunks_fetched,
            "per-chunk delegation expected under {}: {stats:?}",
            strategy.name()
        );
        assert!(
            stats.chunks_fetched >= 20,
            "the column touches at least 20 chunks"
        );
    }

    // Contrast: a capable back-end serves the same plan in few
    // statements, so the test above really measured the downgrade.
    let mut capable = ArrayStore::new(MemoryChunkStore::new());
    let proxy = capable.store_array(&m, 64).unwrap();
    let col = proxy.subscript(1, 7).unwrap();
    capable
        .resolve(
            &col,
            RetrievalStrategy::BufferedIn { buffer_size: 8 },
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap();
    assert!(capable.last_stats().statements < capable.last_stats().chunks_fetched);
}

//! Satellite edge cases in APR plan construction:
//!
//! * SPD range plans where a regular stride repeatedly *crosses* chunk
//!   boundaries (stride not a divisor of elements-per-chunk) must still
//!   resolve correctly and cover every needed chunk;
//! * `BufferedIn` with a needed-chunk count that is an exact multiple
//!   of `buffer_size` must issue exactly `n / buffer_size` statements —
//!   no empty trailing `IN ()` batch.

use ssdm_array::NumArray;
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{ArrayStore, MemoryChunkStore, ParallelConfig, RetrievalStrategy};

#[test]
fn spd_strides_crossing_chunk_boundaries_resolve_exactly() {
    // 60 elements, 7 per chunk (56-byte chunks): stride 3 lands on
    // addresses 0,3,6,... which alternate between crossing and not
    // crossing the 7-element chunk seam.
    let v = NumArray::from_i64_shaped((0..60).collect(), &[60]).unwrap();
    for (chunk_bytes, stride) in [(56usize, 3usize), (56, 5), (40, 7), (24, 9)] {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let base = store.store_array(&v, chunk_bytes).unwrap();
        let view = base.slice(0, 1, stride, 59).unwrap();
        let expected: Vec<i64> = (1..60).step_by(stride).map(|i| i as i64).collect();
        let got: Vec<i64> = store
            .resolve(
                &view,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
                ParallelConfig::SEQUENTIAL,
            )
            .unwrap()
            .elements()
            .iter()
            .map(|n| n.as_i64())
            .collect();
        assert_eq!(got, expected, "chunk_bytes={chunk_bytes} stride={stride}");
        let stats = store.last_stats();
        assert!(stats.statements >= 1);
        assert!(
            stats.chunks_fetched as usize >= expected.len() * 8 / chunk_bytes,
            "must cover every chunk the stride touches"
        );
    }
}

#[test]
fn spd_stride_across_2d_chunk_seams_matches_whole_array() {
    // A column of a matrix whose row length is not a multiple of the
    // chunk's element count: consecutive column elements sit at
    // different offsets within their chunks.
    let m = NumArray::from_shape_fn(&[24, 9], |ix| (((ix[0] * 9 + ix[1]) as i64) * 3).into());
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&m, 56).unwrap(); // 7 elems/chunk vs 9/row
    let col = base.subscript(1, 4).unwrap();
    let spd: Vec<i64> = store
        .resolve(
            &col,
            RetrievalStrategy::SpdRange {
                options: SpdOptions::default(),
            },
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap()
        .elements()
        .iter()
        .map(|n| n.as_i64())
        .collect();
    let whole: Vec<i64> = store
        .resolve(
            &col,
            RetrievalStrategy::WholeArray,
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap()
        .elements()
        .iter()
        .map(|n| n.as_i64())
        .collect();
    assert_eq!(spd, whole);
    assert_eq!(spd, (0..24).map(|r| (r * 9 + 4) * 3).collect::<Vec<_>>());
}

#[test]
fn buffered_in_exact_multiple_has_no_empty_trailing_batch() {
    // 16 chunks needed, buffer_size 4 -> exactly 4 IN statements.
    let v = NumArray::from_i64_shaped((0..128).collect(), &[128]).unwrap();
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&v, 64).unwrap(); // 8 elems/chunk, 16 chunks
    let got = store
        .resolve(
            &base,
            RetrievalStrategy::BufferedIn { buffer_size: 4 },
            ParallelConfig::SEQUENTIAL,
        )
        .unwrap();
    assert_eq!(got.element_count(), 128);
    let stats = store.last_stats();
    assert_eq!(stats.chunks_fetched, 16);
    assert_eq!(
        stats.statements, 4,
        "16 chunks / buffer 4 = 4 statements, no empty trailing batch"
    );
}

#[test]
fn buffered_in_exact_multiple_under_various_buffers() {
    let v = NumArray::from_i64_shaped((0..96).collect(), &[96]).unwrap();
    for buffer_size in [1usize, 2, 3, 6, 12] {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let base = store.store_array(&v, 64).unwrap(); // 12 chunks
        let got = store
            .resolve(
                &base,
                RetrievalStrategy::BufferedIn { buffer_size },
                ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(got.element_count(), 96);
        let stats = store.last_stats();
        assert_eq!(
            stats.statements as usize,
            12usize.div_ceil(buffer_size),
            "buffer_size={buffer_size}"
        );
        assert_eq!(stats.chunks_fetched, 12);
    }
}

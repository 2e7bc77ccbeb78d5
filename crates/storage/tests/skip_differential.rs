//! Differential tests for zone-map chunk skipping: with skipping
//! enabled or disabled, every filtered resolution — scans, existence
//! probes, aggregates at one and several workers — must return
//! bit-identical results, across every codec policy and back-end stack
//! (plain memory, cached, resilient, sharded), and must match an
//! independent oracle: the resident array filtered in memory and
//! folded. Skipping is purely a plan transformation; only the I/O
//! counters may differ, and on a chunk-selective predicate
//! `chunks_skipped` must actually be positive, otherwise the
//! optimisation is dead code.

use ssdm_array::{AggregateOp, Num, NumArray};
use ssdm_storage::{
    ArrayStore, CachedChunkStore, ChunkStore, CodecPolicy, MemoryChunkStore, ParallelConfig,
    ResilientChunkStore, RetrievalStrategy, RetryPolicy, ShardOptions, ShardedChunkStore,
    ValuePredicate,
};

const POLICIES: [CodecPolicy; 4] = [
    CodecPolicy::Raw,
    CodecPolicy::DeltaBp,
    CodecPolicy::Rle,
    CodecPolicy::Auto,
];

/// 16 chunks of 64 elements; chunk `c` holds values `c*1000 ..
/// c*1000+63`, so a narrow range predicate is provably confined to one
/// chunk and the zone map can prune the other fifteen.
fn clustered_ints() -> NumArray {
    NumArray::from_i64((0..1024).map(|i| (i / 64) * 1000 + i % 64).collect())
}

/// Reals with the same clustered layout plus a NaN per chunk, so
/// pruning must stay conservative about non-comparable elements.
fn clustered_reals() -> NumArray {
    NumArray::from_f64(
        (0..1024)
            .map(|i| {
                if i % 64 == 13 {
                    f64::NAN
                } else {
                    ((i / 64) * 1000 + i % 64) as f64
                }
            })
            .collect(),
    )
}

/// Bit-exact key for a `Num`, so NaN payloads and `-0.0` participate
/// in equality instead of being collapsed by IEEE comparison.
fn bits(n: Num) -> (u8, u64) {
    match n {
        Num::Int(v) => (0, v as u64),
        Num::Real(v) => (1, v.to_bits()),
    }
}

fn bits_vec(v: &[Num]) -> Vec<(u8, u64)> {
    v.iter().map(|&n| bits(n)).collect()
}

/// The oracle for one filtered aggregate over the integer elements that
/// matched, folded in memory: `None` where the storage layer must
/// report an empty-view error.
fn oracle_aggregate(matched: &[i64], op: AggregateOp) -> Option<Num> {
    match op {
        AggregateOp::Count => Some(Num::Int(matched.len() as i64)),
        AggregateOp::Sum => Some(Num::Int(matched.iter().sum())),
        AggregateOp::Min => matched.iter().min().map(|&v| Num::Int(v)),
        AggregateOp::Max => matched.iter().max().map(|&v| Num::Int(v)),
        other => unreachable!("no oracle for {other:?}"),
    }
}

/// The predicates the matrix runs: a one-chunk range, a cross-chunk
/// range, an empty range, and membership probes (hit and miss).
fn predicates() -> Vec<(&'static str, ValuePredicate)> {
    vec![
        (
            "one-chunk range",
            ValuePredicate::Range {
                lo: Num::Int(3000),
                hi: Num::Int(3063),
            },
        ),
        (
            "cross-chunk range",
            ValuePredicate::Range {
                lo: Num::Int(4050),
                hi: Num::Int(6010),
            },
        ),
        (
            "empty range",
            ValuePredicate::Range {
                lo: Num::Int(700),
                hi: Num::Int(800),
            },
        ),
        (
            "membership hit",
            ValuePredicate::In(vec![Num::Int(5005), Num::Int(12_031)]),
        ),
        ("membership miss", ValuePredicate::In(vec![Num::Int(-7)])),
    ]
}

/// Run the full differential matrix against one freshly built store.
/// `make` is called once per (policy, skip) cell so each cell sees an
/// identical, independently written store.
fn run_matrix<S, F>(make: F)
where
    S: ChunkStore,
    F: Fn() -> ArrayStore<S>,
{
    let resident = clustered_ints();
    let values: Vec<i64> = resident.elements().iter().map(|n| n.as_i64()).collect();
    for policy in POLICIES {
        for (name, pred) in predicates() {
            let matched: Vec<i64> = values
                .iter()
                .copied()
                .filter(|&v| pred.matches(Num::Int(v)))
                .collect();
            let mut on = make();
            let mut off = make();
            on.set_codec(policy);
            off.set_codec(policy);
            on.set_skip_enabled(true);
            off.set_skip_enabled(false);
            let p_on = on.store_array(&resident, 64 * 8).unwrap();
            let p_off = off.store_array(&resident, 64 * 8).unwrap();

            for strategy in [
                RetrievalStrategy::Single,
                RetrievalStrategy::BufferedIn { buffer_size: 4 },
                RetrievalStrategy::WholeArray,
            ] {
                let a = on
                    .resolve_filtered(&p_on, &pred, strategy, ParallelConfig::SEQUENTIAL)
                    .unwrap();
                let b = off
                    .resolve_filtered(&p_off, &pred, strategy, ParallelConfig::SEQUENTIAL)
                    .unwrap();
                assert_eq!(
                    bits_vec(&a),
                    bits_vec(&b),
                    "filtered scan differs: {} / {:?} / {:?}",
                    name,
                    policy.name(),
                    strategy
                );
                assert_eq!(
                    on.resolve_exists(&p_on, &pred, strategy, ParallelConfig::SEQUENTIAL)
                        .unwrap(),
                    off.resolve_exists(&p_off, &pred, strategy, ParallelConfig::SEQUENTIAL)
                        .unwrap(),
                    "exists differs: {name}"
                );
                // The independent oracle: the resident array, filtered
                // in memory and folded.
                let oracle: Vec<Num> = matched.iter().map(|&v| Num::Int(v)).collect();
                assert_eq!(bits_vec(&a), bits_vec(&oracle), "scan vs oracle: {name}");
                assert_eq!(
                    on.resolve_exists(&p_on, &pred, strategy, ParallelConfig::SEQUENTIAL)
                        .unwrap(),
                    !matched.is_empty(),
                    "exists vs oracle: {name}"
                );
                for op in [
                    AggregateOp::Sum,
                    AggregateOp::Min,
                    AggregateOp::Max,
                    AggregateOp::Count,
                ] {
                    let a = on.resolve_aggregate_filtered(
                        &p_on,
                        &pred,
                        op,
                        strategy,
                        ParallelConfig::SEQUENTIAL,
                    );
                    let b = off.resolve_aggregate_filtered(
                        &p_off,
                        &pred,
                        op,
                        strategy,
                        ParallelConfig::SEQUENTIAL,
                    );
                    assert_eq!(
                        a.as_ref().ok().map(|&x| bits(x)),
                        oracle_aggregate(&matched, op).map(bits),
                        "aggregate {op:?} vs oracle: {name} / {}",
                        policy.name()
                    );
                    match (a, b) {
                        (Ok(x), Ok(y)) => assert_eq!(
                            bits(x),
                            bits(y),
                            "aggregate {op:?} differs: {name} / {}",
                            policy.name()
                        ),
                        (Err(_), Err(_)) => {} // both empty: same typed error
                        (a, b) => panic!("aggregate {op:?} split on {name}: {a:?} vs {b:?}"),
                    }
                    // The parallel fold must agree with the sequential
                    // one bit-for-bit at every worker count.
                    for workers in [1usize, 4] {
                        let par = on.resolve_aggregate_filtered(
                            &p_on,
                            &pred,
                            op,
                            strategy,
                            ParallelConfig { workers },
                        );
                        let seq = off.resolve_aggregate_filtered(
                            &p_off,
                            &pred,
                            op,
                            strategy,
                            ParallelConfig::SEQUENTIAL,
                        );
                        match (par, seq) {
                            (Ok(x), Ok(y)) => assert_eq!(
                                bits(x),
                                bits(y),
                                "parallel({workers}) {op:?} differs: {name}"
                            ),
                            (Err(_), Err(_)) => {}
                            (a, b) => {
                                panic!("parallel {op:?} split on {name}: {a:?} vs {b:?}")
                            }
                        }
                    }
                }
            }

            // Selective predicates must actually skip with the zone map
            // on, and never with it off.
            let _ = on
                .resolve_filtered(
                    &p_on,
                    &pred,
                    RetrievalStrategy::Single,
                    ParallelConfig::SEQUENTIAL,
                )
                .unwrap();
            let _ = off
                .resolve_filtered(
                    &p_off,
                    &pred,
                    RetrievalStrategy::Single,
                    ParallelConfig::SEQUENTIAL,
                )
                .unwrap();
            assert!(
                on.last_stats().chunks_skipped > 0,
                "no chunks skipped for {} under {}",
                name,
                policy.name()
            );
            assert_eq!(
                off.last_stats().chunks_skipped,
                0,
                "skip-disabled store skipped chunks"
            );
        }
    }
}

#[test]
fn memory_store_skip_differential() {
    run_matrix(|| ArrayStore::new(MemoryChunkStore::new()));
}

#[test]
fn cached_store_skip_differential() {
    run_matrix(|| ArrayStore::new(CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20)));
}

#[test]
fn resilient_store_skip_differential() {
    run_matrix(|| {
        ArrayStore::new(ResilientChunkStore::new(
            MemoryChunkStore::new(),
            RetryPolicy::aggressive(),
        ))
    });
}

#[test]
fn sharded_store_skip_differential() {
    run_matrix(|| {
        let primaries: Vec<Box<dyn ChunkStore>> = (0..3)
            .map(|_| Box::new(MemoryChunkStore::new()) as Box<dyn ChunkStore>)
            .collect();
        ArrayStore::new(ShardedChunkStore::new(primaries, ShardOptions::default()).unwrap())
    });
}

/// NaN elements make every chunk summary report nulls, so range
/// pruning must keep any chunk that still *could* hold a match — while
/// results (including the NaNs a membership probe can never hit) stay
/// identical either way.
#[test]
fn real_arrays_with_nans_prune_conservatively() {
    let resident = clustered_reals();
    let pred = ValuePredicate::Range {
        lo: Num::Real(3000.0),
        hi: Num::Real(3063.0),
    };
    for policy in POLICIES {
        let mut on = ArrayStore::new(MemoryChunkStore::new());
        let mut off = ArrayStore::new(MemoryChunkStore::new());
        on.set_codec(policy);
        off.set_codec(policy);
        on.set_skip_enabled(true);
        off.set_skip_enabled(false);
        let p_on = on.store_array(&resident, 64 * 8).unwrap();
        let p_off = off.store_array(&resident, 64 * 8).unwrap();
        let a = on
            .resolve_filtered(
                &p_on,
                &pred,
                RetrievalStrategy::Single,
                ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        let b = off
            .resolve_filtered(
                &p_off,
                &pred,
                RetrievalStrategy::Single,
                ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(bits_vec(&a), bits_vec(&b), "policy {}", policy.name());
        assert_eq!(a.len(), 63, "range covers one chunk minus its NaN");
        assert!(
            on.last_stats().chunks_skipped > 0,
            "NaN-carrying chunks outside the range must still be skippable \
             on their numeric bounds (policy {})",
            policy.name()
        );
    }
}

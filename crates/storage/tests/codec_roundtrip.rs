//! Property tests for the `SCC1` chunk codec: every policy must decode
//! every chunk bit-identically — including adversarial payloads full of
//! `-0.0`, NaN bit patterns and `i64::MIN` — and summaries must never
//! prune a chunk that holds a matching element. Corrupt frames must
//! surface as typed [`StorageError::Corrupt`] through the resilience
//! stack, never as silently wrong data.

use proptest::prelude::*;
use ssdm_array::{Num, NumArray, NumericType};
use ssdm_storage::codec::{decode_chunk, encode_chunk, summary_of};
use ssdm_storage::{
    ArrayStore, ChunkStore, CodecPolicy, MemoryChunkStore, ParallelConfig, ResilientChunkStore,
    RetrievalStrategy, RetryPolicy, StorageError, ValuePredicate,
};

const POLICIES: [CodecPolicy; 4] = [
    CodecPolicy::Raw,
    CodecPolicy::DeltaBp,
    CodecPolicy::Rle,
    CodecPolicy::Auto,
];

/// One 8-byte word, biased toward the patterns that break naive codecs:
/// extremes, sign-boundary values, NaN payloads and negative zero.
fn word() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        Just(i64::MIN as u64),
        Just(i64::MAX as u64),
        Just(0u64),
        Just((-0.0f64).to_bits()),
        Just(f64::NAN.to_bits()),
        Just(f64::NAN.to_bits() | 0xDEAD), // non-canonical NaN payload
        Just(f64::INFINITY.to_bits()),
        Just(f64::NEG_INFINITY.to_bits()),
        (-100i64..100).prop_map(|v| v as u64),
    ]
}

/// Chunk shapes the heuristic must judge well: arbitrary words,
/// constant runs, slowly varying (delta-friendly) sequences.
fn chunk() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        prop::collection::vec(word(), 0..200),
        (word(), 1usize..200).prop_map(|(w, n)| vec![w; n]),
        (any::<i64>(), -5i64..5, 1usize..200).prop_map(|(start, step, n)| {
            (0..n as i64)
                .map(|i| start.wrapping_add(i.wrapping_mul(step)) as u64)
                .collect()
        }),
    ]
}

fn bytes_of(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// encode → decode is the identity on the raw bytes, under every
    /// policy and both element types, for any word soup whatsoever.
    #[test]
    fn every_policy_round_trips_bit_identically(words in chunk()) {
        let raw = bytes_of(&words);
        for ty in [NumericType::Int, NumericType::Real] {
            for policy in POLICIES {
                let (frame, _) = encode_chunk(&raw, ty, policy);
                let back = decode_chunk(&frame).expect("well-formed frame");
                prop_assert_eq!(&back, &raw, "policy {} ty {:?}", policy.name(), ty);
                // Raw fallback bounds the frame under every policy.
                prop_assert!(frame.len() <= raw.len() + ssdm_storage::SCC_HEADER);
            }
        }
    }

    /// A summary that answers "cannot match" must be right: no element
    /// of the chunk satisfies the predicate. (The converse — pruning
    /// everything prunable — is not required; skipping is conservative.)
    #[test]
    fn summaries_never_prune_a_matching_chunk(
        words in chunk(),
        a in -200i64..200,
        b in -200i64..200,
    ) {
        let raw = bytes_of(&words);
        for ty in [NumericType::Int, NumericType::Real] {
            let (frame, summary) = encode_chunk(&raw, ty, CodecPolicy::Auto);
            let (hdr, hdr_ty) = summary_of(&frame).expect("frame carries summary");
            prop_assert_eq!(hdr, summary);
            prop_assert_eq!(hdr_ty, ty);
            let (lo, hi) = (a.min(b), a.max(b));
            let pred = match ty {
                NumericType::Int => ValuePredicate::Range { lo: Num::Int(lo), hi: Num::Int(hi) },
                NumericType::Real => ValuePredicate::Range {
                    lo: Num::Real(lo as f64),
                    hi: Num::Real(hi as f64),
                },
            };
            if !summary.may_match(ty, &pred) {
                let any_match = words.iter().any(|&w| {
                    let n = match ty {
                        NumericType::Int => Num::Int(w as i64),
                        NumericType::Real => Num::Real(f64::from_bits(w)),
                    };
                    pred.matches(n)
                });
                prop_assert!(!any_match, "pruned a chunk with a match (ty {ty:?})");
            }
        }
    }

    /// Full store/resolve round trip through `ArrayStore` under each
    /// forced policy: elements come back exactly as stored.
    #[test]
    fn stored_arrays_resolve_identically_under_every_policy(
        vals in prop::collection::vec(any::<i64>(), 1..300),
        chunk_elems in 1usize..9,
    ) {
        let resident = NumArray::from_i64(vals);
        for policy in POLICIES {
            let mut store = ArrayStore::new(MemoryChunkStore::new());
            store.set_codec(policy);
            let proxy = store.store_array(&resident, chunk_elems * 8).unwrap();
            let got = store.resolve(&proxy, RetrievalStrategy::WholeArray, ParallelConfig::SEQUENTIAL).unwrap();
            prop_assert!(got.array_eq(&resident), "policy {}", policy.name());
        }
    }
}

/// The exact bit patterns the frame format promises to preserve,
/// pinned deterministically on top of the property sweep.
#[test]
fn adversarial_bit_patterns_survive_exactly() {
    let patterns: Vec<u64> = vec![
        (-0.0f64).to_bits(),
        0.0f64.to_bits(),
        f64::NAN.to_bits(),
        f64::NAN.to_bits() | 1, // distinct NaN payload
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        i64::MIN as u64,
        i64::MAX as u64,
        1,
        u64::MAX,
    ];
    let raw = bytes_of(&patterns);
    for ty in [NumericType::Int, NumericType::Real] {
        for policy in POLICIES {
            let (frame, _) = encode_chunk(&raw, ty, policy);
            assert_eq!(
                decode_chunk(&frame).unwrap(),
                raw,
                "policy {} ty {ty:?}",
                policy.name()
            );
        }
    }
}

#[test]
fn all_nan_and_empty_chunks_round_trip() {
    for raw in [Vec::new(), bytes_of(&vec![f64::NAN.to_bits(); 64])] {
        for policy in POLICIES {
            let (frame, summary) = encode_chunk(&raw, NumericType::Real, policy);
            assert_eq!(decode_chunk(&frame).unwrap(), raw);
            assert_eq!(summary.nulls as usize, raw.len() / 8);
        }
    }
}

/// Codec-level damage under a valid CRC frame: the store stack returns
/// the bytes happily, and the decode layer must turn them into a typed,
/// chunk-addressed `Corrupt` error that the resilience machinery
/// classifies as transient (retryable), never into wrong elements.
#[test]
fn corrupt_frames_surface_as_typed_errors_through_resilient_store() {
    let resilient = ResilientChunkStore::new(MemoryChunkStore::new(), RetryPolicy::aggressive());
    let mut store = ArrayStore::new(resilient);
    let resident = NumArray::from_i64((0..64).collect());
    let proxy = store.store_array(&resident, 64).unwrap();
    let array_id = proxy.array_id();

    // Sanity: intact frames resolve.
    assert!(store
        .resolve(
            &proxy,
            RetrievalStrategy::Single,
            ParallelConfig::SEQUENTIAL
        )
        .unwrap()
        .array_eq(&resident));

    // Overwrite chunk 2 with garbage that is NOT an SCC1 frame. The
    // backend re-frames it with a valid checksum, so only the codec
    // layer can notice.
    store
        .backend_mut()
        .put_chunk(array_id, 2, b"not a frame")
        .unwrap();
    let err = store
        .resolve(
            &proxy,
            RetrievalStrategy::Single,
            ParallelConfig::SEQUENTIAL,
        )
        .expect_err("corrupt codec frame must not resolve");
    match &err {
        StorageError::Corrupt {
            array_id: a,
            chunk_id: c,
            ..
        } => {
            assert_eq!((*a, *c), (array_id, 2));
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert!(err.is_transient(), "codec damage must be retryable");

    // A truncated frame body — valid header, missing payload bytes —
    // is equally typed, not a panic or a short result.
    let mut frame = ssdm_storage::codec::encode_chunk(
        &(0..8i64).flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>(),
        NumericType::Int,
        CodecPolicy::DeltaBp,
    )
    .0;
    frame.truncate(frame.len() - 3);
    store.backend_mut().put_chunk(array_id, 3, &frame).unwrap();
    let err = store
        .resolve(
            &proxy,
            RetrievalStrategy::Single,
            ParallelConfig::SEQUENTIAL,
        )
        .expect_err("truncated codec frame must not resolve");
    assert!(
        matches!(err, StorageError::Corrupt { chunk_id: 2, .. })
            || matches!(err, StorageError::Corrupt { chunk_id: 3, .. }),
        "expected Corrupt on a damaged chunk, got {err:?}"
    );

    // Aggregates take the same decode path and fail the same way.
    let err = store
        .resolve_aggregate(
            &proxy,
            ssdm_array::AggregateOp::Sum,
            RetrievalStrategy::Single,
            ParallelConfig::SEQUENTIAL,
        )
        .expect_err("aggregate over corrupt chunk must fail");
    assert!(matches!(err, StorageError::Corrupt { .. }));
}

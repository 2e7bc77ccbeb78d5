//! The sharding acceptance drill: 4 shards x 2 WAL-shipping replicas
//! under a seeded workload, one replica killed mid-workload.
//!
//! Must hold deterministically (CI runs `SSDM_FAULT_SEED=1,2,3`):
//!
//! * **zero failed reads** — every read after the kill fails over to
//!   the sibling replica or the primary within the one permitted hop;
//! * **at least one recorded failover** (and, once the dead replica's
//!   consecutive failures pass the threshold, a breaker trip) visible
//!   in [`ShardStats`];
//! * **bit-identical results** to an unsharded [`MemoryChunkStore`]
//!   holding the same chunks, before and after the kill.
//!
//! A second test pins the *typed* failure contract: with no replicas to
//! absorb a dead primary, point and `IN`-list reads surface
//! [`StorageError::ShardUnavailable`] naming the dark shard, while
//! range reads — the one shape whose contract already skips missing
//! chunks — degrade to partial results and count `degraded_reads`.

use ssdm_storage::shard::place;
use ssdm_storage::{
    ChunkStore, FaultPlan, MemoryChunkStore, ShardOptions, ShardedChunkStore, StorageError,
};

const ARRAY: u64 = 7;
const CHUNKS: u64 = 96;

fn payload(c: u64) -> Vec<u8> {
    (0..40)
        .map(|b| (c as u8).wrapping_mul(31).wrapping_add(b))
        .collect()
}

fn baseline() -> MemoryChunkStore {
    let mut s = MemoryChunkStore::new();
    s.begin_array(ARRAY, CHUNKS as usize).unwrap();
    for c in 0..CHUNKS {
        s.put_chunk(ARRAY, c, &payload(c)).unwrap();
    }
    s
}

fn sharded(shards: usize, replicas: usize) -> ShardedChunkStore {
    let primaries: Vec<Box<dyn ChunkStore>> = (0..shards)
        .map(|_| Box::new(MemoryChunkStore::new()) as Box<dyn ChunkStore>)
        .collect();
    let mut store = ShardedChunkStore::new(
        primaries,
        ShardOptions {
            replicas,
            ..ShardOptions::default()
        },
    )
    .unwrap();
    store.begin_array(ARRAY, CHUNKS as usize).unwrap();
    for c in 0..CHUNKS {
        store.put_chunk(ARRAY, c, &payload(c)).unwrap();
    }
    store
}

fn splitmix(seed: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed-shuffled pass over every chunk id (Fisher-Yates on the
/// deterministic stream), so each CI seed exercises a different
/// replica-rotation interleaving.
fn shuffled_ids(seed: u64) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..CHUNKS).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, splitmix(seed, i as u64) as usize % (i + 1));
    }
    ids
}

/// One mixed read sweep: every chunk as a point read in shuffled order,
/// one `IN`-list over a seed-dependent stride, one full range scan.
/// Every result is checked bit-identical against the unsharded
/// baseline; any read error fails the drill.
fn sweep(store: &ShardedChunkStore, expected: &MemoryChunkStore, seed: u64) {
    for &c in &shuffled_ids(seed) {
        let got = store.get_chunk(ARRAY, c).expect("point read must not fail");
        assert_eq!(got, payload(c), "chunk {c}");
    }
    let stride = 2 + (seed % 3);
    let ids: Vec<u64> = (0..CHUNKS).step_by(stride as usize).collect();
    let got = store
        .get_chunks_in(ARRAY, &ids)
        .expect("IN-list read must not fail");
    let want = expected.get_chunks_in(ARRAY, &ids).unwrap();
    assert_eq!(got, want, "IN-list, stride {stride}");
    let got = store
        .get_chunk_range(ARRAY, 0, CHUNKS - 1)
        .expect("range read must not fail");
    let want = expected.get_chunk_range(ARRAY, 0, CHUNKS - 1).unwrap();
    assert_eq!(got, want, "full range");
}

#[test]
fn kill_one_replica_mid_workload_zero_failed_reads() {
    let seed = FaultPlan::seed_from_env(1);
    let expected = baseline();
    let store = sharded(4, 2);

    // Warm-up sweep: replicas catch up from the shipped WAL segments
    // and serve everything; primaries stay out of the read path.
    sweep(&store, &expected, seed);
    let warm = store.stats();
    assert_eq!(warm.failovers, 0, "healthy cluster must not fail over");
    assert!(
        warm.shards.iter().all(|s| s.primary_reads == 0),
        "with live replicas the primaries serve no reads: {warm:?}"
    );

    // Kill one seed-chosen replica mid-workload...
    let dead_shard = (seed % 4) as usize;
    let dead_replica = (splitmix(seed, 0xD1E) % 2) as usize;
    store.kill_replica(dead_shard, dead_replica);

    // ...and keep reading. Nothing is allowed to fail.
    sweep(&store, &expected, splitmix(seed, 1));
    sweep(&store, &expected, splitmix(seed, 2));

    let stats = store.stats();
    assert!(
        stats.failovers >= 1,
        "the dead replica's reads must fail over: {stats:?}"
    );
    assert!(
        stats.breaker_opens >= 1,
        "repeated failures must trip the breaker: {stats:?}"
    );
    let health = &stats.shards[dead_shard].replicas[dead_replica];
    assert!(!health.alive);
    assert_eq!(
        stats.shards[dead_shard].failovers, stats.failovers,
        "only the shard with the dead replica fails over"
    );

    // Revive: after the breaker's half-open probe succeeds, the cluster
    // serves a clean sweep again with no further failovers.
    store.revive_replica(dead_shard, dead_replica);
    let before = store.stats().failovers;
    sweep(&store, &expected, splitmix(seed, 3));
    sweep(&store, &expected, splitmix(seed, 4));
    assert_eq!(
        store.stats().failovers,
        before,
        "a revived replica must stop the failover bleed"
    );
}

#[test]
fn dead_primary_without_replicas_is_typed_and_ranges_degrade() {
    let expected = baseline();
    let store = sharded(2, 0);
    store.kill_primary(0);

    let (on_dead, on_live): (Vec<u64>, Vec<u64>) =
        (0..CHUNKS).partition(|&c| place(ARRAY, c, 2) == 0);
    assert!(!on_dead.is_empty() && !on_live.is_empty());

    // Point reads: owned by the dark shard -> typed error naming it;
    // owned by the live shard -> unaffected.
    match store.get_chunk(ARRAY, on_dead[0]) {
        Err(StorageError::ShardUnavailable { shards }) => assert_eq!(shards, vec![0]),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }
    assert_eq!(
        store.get_chunk(ARRAY, on_live[0]).unwrap(),
        payload(on_live[0])
    );

    // IN-lists spanning both shards fail as a whole (partial IN results
    // would be silently wrong) and still name exactly the dark shard.
    let mixed: Vec<u64> = vec![on_dead[0], on_live[0], on_dead[1], on_live[1]];
    match store.get_chunks_in(ARRAY, &mixed) {
        Err(StorageError::ShardUnavailable { shards }) => assert_eq!(shards, vec![0]),
        other => panic!("expected ShardUnavailable, got {other:?}"),
    }

    // Ranges degrade: the contract already skips missing chunks, so the
    // live shard's rows come back and the gap is counted, not hidden.
    let got = store.get_chunk_range(ARRAY, 0, CHUNKS - 1).unwrap();
    let want: Vec<(u64, Vec<u8>)> = expected
        .get_chunk_range(ARRAY, 0, CHUNKS - 1)
        .unwrap()
        .into_iter()
        .filter(|(c, _)| place(ARRAY, *c, 2) == 1)
        .collect();
    assert_eq!(got, want);
    assert_eq!(store.stats().degraded_reads, 1);

    // Revival restores the full contract.
    store.revive_primary(0);
    assert_eq!(
        store.get_chunk(ARRAY, on_dead[0]).unwrap(),
        payload(on_dead[0])
    );
    let got = store.get_chunk_range(ARRAY, 0, CHUNKS - 1).unwrap();
    assert_eq!(got, expected.get_chunk_range(ARRAY, 0, CHUNKS - 1).unwrap());
}

#[test]
fn full_shard_blackout_converges_to_typed_error() {
    let store = sharded(4, 2);
    let dark = 2usize;
    store.kill_primary(dark);
    store.kill_replica(dark, 0);
    store.kill_replica(dark, 1);
    let victim = (0..CHUNKS).find(|&c| place(ARRAY, c, 4) == dark).unwrap();

    // The first reads burn the failover hop on dead replicas and
    // surface their transient error; once both breakers open, routing
    // reaches the dead primary and the error becomes the typed
    // `ShardUnavailable`. No read may ever succeed.
    let mut typed = 0;
    for round in 0..12 {
        match store.get_chunk(ARRAY, victim) {
            Ok(_) => panic!("round {round}: read succeeded on a blacked-out shard"),
            Err(StorageError::ShardUnavailable { shards }) => {
                assert_eq!(shards, vec![dark]);
                typed += 1;
            }
            Err(e) => assert!(e.is_transient(), "round {round}: unexpected {e:?}"),
        }
    }
    assert!(
        typed >= 1,
        "breakers must eventually route to the typed error"
    );

    // Reads on other shards are untouched throughout.
    let other = (0..CHUNKS).find(|&c| place(ARRAY, c, 4) != dark).unwrap();
    assert_eq!(store.get_chunk(ARRAY, other).unwrap(), payload(other));
}

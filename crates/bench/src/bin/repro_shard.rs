//! Sharded chunk store scenario: read-throughput scaling, replica
//! offload, and the kill-one-replica failover drill.
//!
//! Three sweeps over the [`ShardedChunkStore`]:
//!
//! 1. **shard scaling** — latency-simulated relational primaries whose
//!    per-row cost dominates (the thesis' client-server regime); a
//!    batched read of every chunk fans out across shards in parallel,
//!    so wall time falls with the largest shard's share of the rows.
//! 2. **replica offload** — adding WAL-shipping read replicas moves the
//!    whole read path off the slow primaries: replica reads climb,
//!    primary reads drop to zero, queries get faster.
//! 3. **failover drill** — 4 shards x 2 replicas over in-memory
//!    primaries, one replica killed mid-workload: zero failed reads,
//!    at least one recorded failover, results bit-identical throughout.
//!
//! The binary *asserts* the PR's acceptance criteria and writes the
//! measurements as JSON (default `BENCH_shard.json`, `--out PATH`).
//!
//! ```text
//! repro_shard [--quick] [--out PATH]
//! ```

use std::time::Instant;

use relstore::{Db, DbOptions, LatencyModel};
use ssdm_bench::runner::print_table;
use ssdm_storage::shard::place;
use ssdm_storage::{ChunkStore, MemoryChunkStore, RelChunkStore, ShardOptions, ShardedChunkStore};

const ARRAY: u64 = 11;
const CHUNK_BYTES: usize = 1024;

fn usage() -> ! {
    eprintln!("usage: repro_shard [--quick] [--out PATH]");
    std::process::exit(2)
}

fn payload(c: u64) -> Vec<u8> {
    (0..CHUNK_BYTES)
        .map(|b| (c as u8).wrapping_mul(37).wrapping_add(b as u8))
        .collect()
}

/// The relational-primary latency regime: row transfer dominates the
/// per-statement overhead, so splitting the rows across shards that
/// fetch in parallel is what pays.
fn slow_model() -> LatencyModel {
    LatencyModel {
        per_statement: std::time::Duration::from_micros(200),
        per_row: std::time::Duration::from_micros(20),
        per_kib: std::time::Duration::from_micros(8),
    }
}

fn rel_primaries(shards: usize) -> Vec<Box<dyn ChunkStore>> {
    (0..shards)
        .map(|_| {
            let db = Db::open_memory(DbOptions {
                latency: slow_model(),
                ..DbOptions::default()
            })
            .expect("in-memory relational store");
            Box::new(RelChunkStore::new(db)) as Box<dyn ChunkStore>
        })
        .collect()
}

fn mem_primaries(shards: usize) -> Vec<Box<dyn ChunkStore>> {
    (0..shards)
        .map(|_| Box::new(MemoryChunkStore::new()) as Box<dyn ChunkStore>)
        .collect()
}

fn seeded(primaries: Vec<Box<dyn ChunkStore>>, replicas: usize, chunks: u64) -> ShardedChunkStore {
    let shards = primaries.len();
    let mut store = ShardedChunkStore::new(
        primaries,
        ShardOptions {
            replicas,
            read_workers: shards.max(4),
            ..ShardOptions::default()
        },
    )
    .expect("sharded store");
    store.begin_array(ARRAY, chunks as usize).expect("begin");
    for c in 0..chunks {
        store.put_chunk(ARRAY, c, &payload(c)).expect("put");
    }
    store
}

fn check(rows: &[(u64, Vec<u8>)], ids: &[u64]) {
    assert_eq!(rows.len(), ids.len(), "row count");
    for ((got_id, got), &want_id) in rows.iter().zip(ids) {
        assert_eq!(*got_id, want_id, "id order");
        assert_eq!(*got, payload(want_id), "chunk {want_id} payload");
    }
}

fn main() {
    let mut quick = false;
    let mut out = "BENCH_shard.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    let chunks: u64 = if quick { 96 } else { 256 };
    let queries = if quick { 4 } else { 12 };
    let ids: Vec<u64> = (0..chunks).collect();

    println!("Sharded chunk store: scaling, replica offload, failover drill");
    println!(
        "{chunks} chunks x {CHUNK_BYTES} B, row-dominated relational latency \
         (200 us/stmt + 20 us/row + 8 us/KiB), {queries} queries per cell"
    );

    // --- Sweep 1: shard count (relational primaries, no replicas) --------
    struct ScaleCell {
        shards: usize,
        per_query_ms: f64,
        largest_share: f64,
        speedup: f64,
    }
    let mut scale_cells: Vec<ScaleCell> = Vec::new();
    let mut baseline_ms = 0.0;
    for &shards in &[1usize, 2, 4] {
        let store = seeded(rel_primaries(shards), 0, chunks);
        let start = Instant::now();
        for _ in 0..queries {
            let rows = store.get_chunks_in(ARRAY, &ids).expect("batched read");
            check(&rows, &ids);
        }
        let per_query_ms = start.elapsed().as_secs_f64() * 1e3 / queries as f64;
        if shards == 1 {
            baseline_ms = per_query_ms;
        }
        let largest = (0..shards)
            .map(|s| {
                ids.iter()
                    .filter(|&&c| place(ARRAY, c, shards) == s)
                    .count()
            })
            .max()
            .unwrap_or(0);
        scale_cells.push(ScaleCell {
            shards,
            per_query_ms,
            largest_share: largest as f64 / chunks as f64,
            speedup: baseline_ms / per_query_ms,
        });
    }

    // --- Sweep 2: replica offload (2 shards, memory replicas) ------------
    struct ReplicaCell {
        replicas: usize,
        per_query_ms: f64,
        primary_reads: u64,
        replica_reads: u64,
        speedup: f64,
    }
    let mut replica_cells: Vec<ReplicaCell> = Vec::new();
    let mut replica_baseline_ms = 0.0;
    for &replicas in &[0usize, 1, 2] {
        let store = seeded(rel_primaries(2), replicas, chunks);
        // One untimed pass ships the WAL and catches replicas up, so the
        // timed passes measure steady-state routing.
        check(&store.get_chunks_in(ARRAY, &ids).expect("warm-up"), &ids);
        let warm_stats = store.stats();
        let start = Instant::now();
        for _ in 0..queries {
            let rows = store.get_chunks_in(ARRAY, &ids).expect("batched read");
            check(&rows, &ids);
        }
        let per_query_ms = start.elapsed().as_secs_f64() * 1e3 / queries as f64;
        if replicas == 0 {
            replica_baseline_ms = per_query_ms;
        }
        let stats = store.stats();
        let primary: u64 = stats.shards.iter().map(|s| s.primary_reads).sum::<u64>()
            - warm_stats
                .shards
                .iter()
                .map(|s| s.primary_reads)
                .sum::<u64>();
        let replica: u64 = stats.shards.iter().map(|s| s.replica_reads).sum::<u64>()
            - warm_stats
                .shards
                .iter()
                .map(|s| s.replica_reads)
                .sum::<u64>();
        replica_cells.push(ReplicaCell {
            replicas,
            per_query_ms,
            primary_reads: primary,
            replica_reads: replica,
            speedup: replica_baseline_ms / per_query_ms,
        });
    }

    // --- Sweep 3: failover drill (4 shards x 2 replicas, kill one) -------
    let drill = {
        let store = seeded(mem_primaries(4), 2, chunks);
        let rounds = if quick { 6 } else { 16 };
        let mut failed_reads = 0u64;
        let mut total_reads = 0u64;
        for round in 0..rounds {
            if round == rounds / 2 {
                store.kill_replica(1, 0); // mid-workload
            }
            for &c in &ids {
                total_reads += 1;
                match store.get_chunk(ARRAY, c) {
                    Ok(data) => assert_eq!(data, payload(c), "chunk {c} bit-identical"),
                    Err(_) => failed_reads += 1,
                }
            }
            let rows = store.get_chunks_in(ARRAY, &ids).expect("batched read");
            total_reads += 1;
            check(&rows, &ids);
        }
        let stats = store.stats();
        (
            failed_reads,
            total_reads,
            stats.failovers,
            stats.breaker_opens,
        )
    };
    let (failed_reads, total_reads, failovers, breaker_opens) = drill;

    // --- Report ----------------------------------------------------------
    let header: Vec<String> = ["shards", "ms/query", "largest share", "speedup"]
        .into_iter()
        .map(String::from)
        .collect();
    let rows: Vec<Vec<String>> = scale_cells
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.shards),
                format!("{:.2}", c.per_query_ms),
                format!("{:.0}%", c.largest_share * 100.0),
                format!("{:.2}x", c.speedup),
            ]
        })
        .collect();
    print_table(
        "batched read scaling across shards (bit-identical ✓)",
        &header,
        &rows,
    );

    let header: Vec<String> = [
        "replicas",
        "ms/query",
        "primary reads",
        "replica reads",
        "speedup",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let rows: Vec<Vec<String>> = replica_cells
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.replicas),
                format!("{:.2}", c.per_query_ms),
                format!("{}", c.primary_reads),
                format!("{}", c.replica_reads),
                format!("{:.1}x", c.speedup),
            ]
        })
        .collect();
    print_table(
        "replica offload of the read path (2 shards)",
        &header,
        &rows,
    );

    println!(
        "failover drill: {total_reads} reads, {failed_reads} failed, \
         {failovers} failovers, {breaker_opens} breaker trips"
    );

    // --- Acceptance assertions -------------------------------------------
    let s2 = scale_cells
        .iter()
        .find(|c| c.shards == 2)
        .expect("2-shard cell");
    let s4 = scale_cells
        .iter()
        .find(|c| c.shards == 4)
        .expect("4-shard cell");
    assert!(
        s2.speedup >= 1.4,
        "expected >=1.4x at 2 shards, got {:.2}x",
        s2.speedup
    );
    assert!(
        s4.speedup >= 2.0,
        "expected >=2x at 4 shards, got {:.2}x",
        s4.speedup
    );
    println!(
        "\nscaling acceptance ✓: {:.2}x at 2 shards, {:.2}x at 4 shards",
        s2.speedup, s4.speedup
    );
    let offloaded = replica_cells
        .iter()
        .find(|c| c.replicas > 0)
        .expect("replica cell");
    assert_eq!(
        offloaded.primary_reads, 0,
        "live replicas must keep primaries out of the read path"
    );
    assert!(offloaded.replica_reads > 0, "replicas must serve the reads");
    println!(
        "offload acceptance ✓: {} replica reads, 0 primary reads, {:.1}x",
        offloaded.replica_reads, offloaded.speedup
    );
    assert_eq!(failed_reads, 0, "failover drill must lose zero reads");
    assert!(failovers >= 1, "the killed replica must record a failover");
    println!("failover acceptance ✓: 0/{total_reads} failed, {failovers} failovers");

    // --- JSON -------------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"chunks\": {chunks}, \"chunk_bytes\": {CHUNK_BYTES}, \
         \"queries\": {queries}, \"latency\": \"row_dominated\", \"quick\": {quick}}},\n"
    ));
    json.push_str("  \"scaling\": [\n");
    for (i, c) in scale_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"per_query_ms\": {:.4}, \"largest_share\": {:.4}, \
             \"speedup\": {:.3}, \"bit_identical\": true}}{}\n",
            c.shards,
            c.per_query_ms,
            c.largest_share,
            c.speedup,
            if i + 1 < scale_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"replica_offload\": [\n");
    for (i, c) in replica_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"replicas\": {}, \"per_query_ms\": {:.4}, \"primary_reads\": {}, \
             \"replica_reads\": {}, \"speedup\": {:.3}}}{}\n",
            c.replicas,
            c.per_query_ms,
            c.primary_reads,
            c.replica_reads,
            c.speedup,
            if i + 1 < replica_cells.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"failover_drill\": {{\"total_reads\": {total_reads}, \
         \"failed_reads\": {failed_reads}, \"failovers\": {failovers}, \
         \"breaker_opens\": {breaker_opens}, \"bit_identical\": true}}\n}}\n"
    ));
    std::fs::write(&out, json).expect("write JSON");
    println!("wrote {out}");
}

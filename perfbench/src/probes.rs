//! Per-layer measurements the traced run makes directly against a
//! layer's public entry points, on the workload's own data: SCC1
//! encode/decode, relstore range statements, array kernels, and a
//! durability probe for workloads whose main loop writes no WAL.

use std::path::Path;
use std::time::Instant;

use relstore::{Db, DbOptions, Key};
use ssdm_array::kernel::fold_f64;
use ssdm_array::{AggregateOp, NumericType};
use ssdm_storage::codec::{decode_chunk, encode_chunk};

use crate::gen;
use crate::ops::Oracle;
use crate::setup::{self, Shape, CHUNK_BYTES, CODEC};

/// Tasks whose trajectories the layer probes use.
const PROBE_TASKS: usize = 64;

/// Chunk-level numbers: codec throughput and ratio, relstore range
/// statement time, kernel throughput.
pub struct DataProbe {
    pub encode_gbps: f64,
    pub decode_gbps: f64,
    pub ratio: f64,
    pub range_us: f64,
    pub kernel_elements_per_s: f64,
}

/// Cut a trajectory into the raw little-endian chunks the store writes.
fn raw_chunks(values: &[f64]) -> Vec<Vec<u8>> {
    let per_chunk = CHUNK_BYTES / 8;
    values
        .chunks(per_chunk)
        .map(|c| c.iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect()
}

pub fn data_probe(seed: u64, shape: Shape) -> DataProbe {
    let tasks = PROBE_TASKS.min(shape.tasks);
    let trajectories: Vec<Vec<f64>> = (0..tasks)
        .map(|t| gen::task(seed, t, shape.realizations).trajectory(seed, t, shape.steps))
        .collect();
    let raw: Vec<Vec<Vec<u8>>> = trajectories.iter().map(|v| raw_chunks(v)).collect();
    let raw_bytes: usize = raw.iter().flatten().map(Vec::len).sum();

    let start = Instant::now();
    let frames: Vec<Vec<Vec<u8>>> = raw
        .iter()
        .map(|arr| {
            arr.iter()
                .map(|c| encode_chunk(c, NumericType::Real, CODEC).0)
                .collect()
        })
        .collect();
    let encode_s = start.elapsed().as_secs_f64();
    let frame_bytes: usize = frames.iter().flatten().map(Vec::len).sum();

    let start = Instant::now();
    for (arr, frames) in raw.iter().zip(&frames) {
        for (chunk, frame) in arr.iter().zip(frames) {
            let decoded = decode_chunk(frame).expect("decode probe frame");
            assert_eq!(&decoded, chunk, "codec round trip");
        }
    }
    let decode_s = start.elapsed().as_secs_f64();

    // The relational back-end's layout: one row per (array, chunk).
    let mut db = Db::open_memory(DbOptions::default()).expect("relstore");
    for (a, frames) in frames.iter().enumerate() {
        for (c, frame) in frames.iter().enumerate() {
            db.put(Key::new(a as u64, c as u64), frame)
                .expect("relstore put");
        }
    }
    let mut statements = 0usize;
    let start = Instant::now();
    for _ in 0..4 {
        for (a, frames) in frames.iter().enumerate() {
            let last = frames.len() as u64 - 1;
            let rows = db.get_range(a as u64, 0, last).expect("get_range");
            assert_eq!(rows.len(), frames.len(), "range returns every chunk");
            let ends: &[u64] = if last == 0 { &[0] } else { &[0, last] };
            let rows = db.get_in(a as u64, ends).expect("get_in");
            assert_eq!(rows.len(), ends.len(), "IN-list returns its chunks");
            statements += 2;
        }
    }
    let range_us = start.elapsed().as_secs_f64() * 1e6 / statements as f64;

    let mut elements = 0usize;
    let start = Instant::now();
    for v in &trajectories {
        for op in [AggregateOp::Max, AggregateOp::Avg] {
            std::hint::black_box(fold_f64(std::hint::black_box(v), op).expect("kernel fold"));
            elements += v.len();
        }
    }
    let kernel_s = start.elapsed().as_secs_f64();

    DataProbe {
        encode_gbps: raw_bytes as f64 / encode_s / 1e9,
        decode_gbps: raw_bytes as f64 / decode_s / 1e9,
        ratio: raw_bytes as f64 / frame_bytes as f64,
        range_us,
        kernel_elements_per_s: elements as f64 / kernel_s,
    }
}

/// WAL and checkpoint numbers.
#[derive(Debug, Default, Clone, Copy)]
pub struct DurabilityProbe {
    pub fsyncs_per_update: f64,
    pub fsync_us: f64,
    pub bytes_per_update: f64,
    pub checkpoint_ms: f64,
    pub replay_records_per_s: f64,
}

/// Inserts per half of the durability probe.
const PROBE_UPDATES: usize = 16;

/// Write tasks shaped like the workload's into a scratch durable
/// instance (fsync always), checkpoint halfway, reopen, and time it.
pub fn durability_probe(
    dir: &Path,
    oracle: &Oracle,
    first_task: usize,
) -> Result<DurabilityProbe, String> {
    let hist = ssdm_obs::recorder().histogram("ssdm_wal_fsync_seconds");
    let (count0, sum0) = (hist.count(), hist.sum_micros());
    let mut db = setup::open_durable(dir, 8 << 20, 1);
    let insert = |db: &mut ssdm::Ssdm, k: usize| -> Result<(), String> {
        let text = gen::insert_statement(
            oracle.seed,
            first_task + k,
            oracle.steps,
            oracle.realizations,
        );
        let ack = db.query(&text).map_err(|e| e.to_string())?;
        match ack {
            scisparql::QueryResult::Updated {
                inserted: 8,
                deleted: 0,
            } => Ok(()),
            other => Err(format!("probe insert answered {other:?}")),
        }
    };
    for k in 0..PROBE_UPDATES {
        insert(&mut db, k)?;
    }
    let start = Instant::now();
    db.checkpoint().map_err(|e| e.to_string())?;
    let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
    for k in PROBE_UPDATES..2 * PROBE_UPDATES {
        insert(&mut db, k)?;
    }
    let wal = db
        .durability_stats()
        .ok_or("probe instance not durable")?
        .wal;
    drop(db);
    let (fsyncs, fsync_us) = (hist.count() - count0, (hist.sum_micros() - sum0) as f64);
    let reopened = ssdm::Ssdm::open_durable_with(dir, setup::durable_options(8 << 20))
        .map_err(|e| e.to_string())?;
    let d = reopened
        .durability_stats()
        .ok_or("reopened probe not durable")?;
    let updates = (2 * PROBE_UPDATES) as f64;
    Ok(DurabilityProbe {
        fsyncs_per_update: fsyncs as f64 / updates,
        fsync_us: fsync_us / fsyncs.max(1) as f64,
        bytes_per_update: wal.bytes_appended as f64 / updates,
        checkpoint_ms,
        replay_records_per_s: d.replayed_records as f64 / (d.replay_ms / 1e3),
    })
}

/// `core.rows_per_result`: the `actual=` rows of every operator of an
/// `EXPLAIN ANALYZE` profile, summed, over the result rows, for a
/// sample of the workload's read statements.
pub fn rows_per_result(engine: &mut ssdm::Ssdm, statements: &[String]) -> Result<f64, String> {
    let (mut actual, mut rows) = (0u64, 0u64);
    for text in statements {
        let body = text
            .strip_prefix(gen::PROLOGUE)
            .ok_or("statement without prologue")?;
        let profiled = format!("{}EXPLAIN ANALYZE {body}", gen::PROLOGUE);
        let profile = match engine.query(&profiled).map_err(|e| e.to_string())? {
            scisparql::QueryResult::Text(t) => t,
            other => return Err(format!("EXPLAIN ANALYZE answered {other:?}")),
        };
        actual += profile
            .split_whitespace()
            .filter_map(|w| w.strip_prefix("actual=")?.parse::<u64>().ok())
            .sum::<u64>();
        let result = engine.query(text).map_err(|e| e.to_string())?;
        rows += result.into_rows().map_or(0, |r| r.len() as u64);
    }
    Ok(crate::metrics::ratio(actual as f64, rows as f64))
}

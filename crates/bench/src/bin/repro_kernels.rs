//! Typed compute kernels + chunk-side parallel aggregation scenario.
//!
//! Two sweeps, asserting this PR's acceptance criteria:
//!
//! 1. **elementwise** — dense f64 arrays of ≥1M elements through the
//!    typed kernels (`zip_with` / `scalar_op`) against the retained
//!    per-element `Num` reference path (`zip_with_ref` /
//!    `scalar_op_ref`). Required: **≥4×** on at least the headline
//!    array⊗array ops; results checked bit-identical.
//! 2. **streamed aggregates** — `resolve_aggregate` with N workers over an
//!    externalized matrix behind the latency-simulated relational
//!    back-end (`networked_dbms`: 500 µs per statement, round trips
//!    dominate). Fetch workers fold each chunk's partial in place and
//!    the partials combine in plan order. Required: **≥2×** at 4
//!    workers vs the one-worker `resolve_aggregate` baseline; every
//!    result checked bit-identical to the one-worker fold.
//!
//! Measurements land as JSON (default `BENCH_kernels.json`, `--out`).
//!
//! ```text
//! repro_kernels [--quick] [--workers N[,N]...] [--out PATH]
//! ```

use std::time::Instant;

use relstore::{Db, DbOptions, LatencyModel};
use ssdm_array::{AggregateOp, BinOp, Num, NumArray};
use ssdm_bench::runner::print_table;
use ssdm_storage::{ArrayStore, ChunkStore, ParallelConfig, RelChunkStore, RetrievalStrategy};

const ELEMS: usize = 1 << 20; // 1M f64 — the acceptance floor's size
const ROWS: usize = 128;
const COLS: usize = 128;
const CHUNK_BYTES: usize = 1024; // one row per chunk: 128 chunks per scan

fn usage() -> ! {
    eprintln!("usage: repro_kernels [--quick] [--workers N[,N]...] [--out PATH]");
    std::process::exit(2)
}

fn dense(n: usize, salt: f64) -> NumArray {
    NumArray::from_f64(
        (0..n)
            .map(|i| (i as f64 * 0.618 + salt).sin() * 100.0 + salt)
            .collect(),
    )
}

fn bits(a: &NumArray) -> Vec<u64> {
    a.elements().iter().map(|n| n.as_f64().to_bits()).collect()
}

fn num_bits(n: &Num) -> (bool, u64) {
    match n {
        Num::Int(v) => (true, *v as u64),
        Num::Real(v) => (false, v.to_bits()),
    }
}

/// Median-free best-of-N timing: the minimum is the least-noise
/// estimate for a deterministic computation.
fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (best, result.expect("repeats >= 1"))
}

struct ElemCell {
    label: &'static str,
    ref_ms: f64,
    kernel_ms: f64,
    speedup: f64,
}

struct AggCell {
    workers: usize,
    per_query_ms: f64,
    statements: u64,
    speedup: f64,
}

fn main() {
    let mut quick = false;
    let mut workers: Vec<usize> = vec![1, 2, 4, 8];
    let mut out = "BENCH_kernels.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--workers" => {
                workers = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|w| w.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if workers.is_empty() {
                    usage()
                }
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if quick {
        workers.retain(|&w| w == 1 || w == 4);
        if workers.is_empty() {
            workers = vec![1, 4];
        }
    }
    if !workers.contains(&1) {
        workers.insert(0, 1);
    }
    workers.sort_unstable();
    workers.dedup();
    let repeats = if quick { 3 } else { 7 };
    let agg_repeats = if quick { 2 } else { 5 };
    let max_workers = *workers.last().expect("non-empty");

    println!("Typed compute kernels + chunk-side parallel aggregation");
    println!(
        "elementwise: {ELEMS} f64 elements, best of {repeats}; aggregates: \
         {ROWS}x{COLS} f64 matrix, chunk {CHUNK_BYTES} B, networked-DBMS latency \
         (500 us/statement), best of {agg_repeats}"
    );

    // --- Sweep 1: resident elementwise kernels ---------------------------
    // The kernel pool sizes to the sweep's largest worker count (arrays
    // at/above the parallel threshold split across it).
    ssdm_array::pool::set_compute_workers(max_workers);
    let a = dense(ELEMS, 1.25);
    let b = dense(ELEMS, -0.75);
    let scalar = Num::Real(1.0625);

    type Run<'a> = Box<dyn Fn() -> NumArray + 'a>;
    let mut elem_cells: Vec<ElemCell> = Vec::new();
    {
        let runs: Vec<(&'static str, Run, Run)> = vec![
            (
                "add(a,b)",
                Box::new(|| a.zip_with(&b, BinOp::Add).expect("add")),
                Box::new(|| a.zip_with_ref(&b, BinOp::Add).expect("add ref")),
            ),
            (
                "mul(a,b)",
                Box::new(|| a.zip_with(&b, BinOp::Mul).expect("mul")),
                Box::new(|| a.zip_with_ref(&b, BinOp::Mul).expect("mul ref")),
            ),
            (
                "a+s",
                Box::new(|| a.scalar_op(scalar, BinOp::Add).expect("sadd")),
                Box::new(|| a.scalar_op_ref(scalar, BinOp::Add).expect("sadd ref")),
            ),
        ];
        for (label, kernel_run, ref_run) in &runs {
            let (kernel_ms, kernel_out) = best_of(repeats, kernel_run);
            let (ref_ms, ref_out) = best_of(repeats, ref_run);
            assert_eq!(
                bits(&kernel_out),
                bits(&ref_out),
                "{label}: kernel must be bit-identical to the reference"
            );
            elem_cells.push(ElemCell {
                label,
                ref_ms,
                kernel_ms,
                speedup: ref_ms / kernel_ms,
            });
        }
    }

    // --- Sweep 2: streamed aggregates over the latency-simulated DBMS ----
    let agg_ops = [AggregateOp::Sum, AggregateOp::Max];
    let mut store = {
        let db = Db::open_memory(DbOptions {
            latency: LatencyModel::networked_dbms(),
            ..DbOptions::default()
        })
        .expect("in-memory relational store");
        ArrayStore::new(RelChunkStore::new(db))
    };
    let matrix = NumArray::from_f64_shaped(
        (0..ROWS * COLS)
            .map(|i| (i as f64 * 0.37).cos() * 50.0)
            .collect(),
        &[ROWS, COLS],
    )
    .expect("matrix");
    let base = store.store_array(&matrix, CHUNK_BYTES).expect("store");
    // Whole-array scans under Single: 128 chunk statements per query —
    // round trips dominate, the worker sweep overlaps them.
    let strategy = RetrievalStrategy::Single;
    let expected: Vec<(bool, u64)> = agg_ops
        .iter()
        .map(|&op| {
            num_bits(
                &store
                    .resolve_aggregate(&base, op, strategy, ParallelConfig::SEQUENTIAL)
                    .expect("seq"),
            )
        })
        .collect();

    let mut agg_cells: Vec<AggCell> = Vec::new();
    let mut baseline_ms = 0.0;
    for &w in &workers {
        store.backend_mut().reset_io_stats();
        let config = ParallelConfig::with_workers(w);
        let (total_ms, got) = best_of(agg_repeats, || {
            agg_ops
                .iter()
                .map(|&op| {
                    num_bits(
                        &store
                            .resolve_aggregate(&base, op, strategy, config)
                            .expect("parallel aggregate"),
                    )
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(got, expected, "w={w}: must match the sequential fold");
        let per_query_ms = total_ms / agg_ops.len() as f64;
        let statements = store.backend().io_stats().statements / (agg_repeats as u64);
        if w == 1 {
            baseline_ms = per_query_ms;
        }
        agg_cells.push(AggCell {
            workers: w,
            per_query_ms,
            statements,
            speedup: baseline_ms / per_query_ms,
        });
    }

    // --- Report ----------------------------------------------------------
    let header: Vec<String> = ["op", "ref ms", "kernel ms", "speedup"]
        .into_iter()
        .map(String::from)
        .collect();
    let rows: Vec<Vec<String>> = elem_cells
        .iter()
        .map(|c| {
            vec![
                c.label.to_string(),
                format!("{:.2}", c.ref_ms),
                format!("{:.2}", c.kernel_ms),
                format!("{:.1}x", c.speedup),
            ]
        })
        .collect();
    print_table(
        &format!("elementwise kernels, {ELEMS} f64 (bit-identical ✓)"),
        &header,
        &rows,
    );

    let header: Vec<String> = ["workers", "ms/aggregate", "statements", "speedup"]
        .into_iter()
        .map(String::from)
        .collect();
    let rows: Vec<Vec<String>> = agg_cells
        .iter()
        .map(|c| {
            vec![
                format!("{}", c.workers),
                format!("{:.2}", c.per_query_ms),
                format!("{}", c.statements),
                format!("{:.2}x", c.speedup),
            ]
        })
        .collect();
    print_table(
        "streamed aggregates, networked DBMS (bit-identical ✓)",
        &header,
        &rows,
    );

    // --- Acceptance assertions -------------------------------------------
    let best_elem = elem_cells.iter().map(|c| c.speedup).fold(0.0f64, f64::max);
    assert!(
        best_elem >= 4.0,
        "expected >=4x elementwise kernel speedup at {ELEMS} f64, got {best_elem:.1}x"
    );
    println!(
        "\nkernel acceptance ✓: {best_elem:.1}x best elementwise at {ELEMS} f64 (>=4x required)"
    );
    if let Some(c4) = agg_cells.iter().find(|c| c.workers == 4) {
        assert!(
            c4.speedup >= 2.0,
            "expected >=2x at 4 workers for streamed aggregates, got {:.2}x",
            c4.speedup
        );
        println!(
            "aggregate acceptance ✓: {:.2}x at 4 workers (>=2x required)",
            c4.speedup
        );
    }

    // --- JSON -------------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"elements\": {ELEMS}, \"rows\": {ROWS}, \"cols\": {COLS}, \
         \"chunk_bytes\": {CHUNK_BYTES}, \"latency\": \"networked_dbms\", \
         \"quick\": {quick}}},\n"
    ));
    json.push_str("  \"elementwise\": [\n");
    for (i, c) in elem_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"ref_ms\": {:.4}, \"kernel_ms\": {:.4}, \
             \"speedup\": {:.3}, \"bit_identical\": true}}{}\n",
            c.label,
            c.ref_ms,
            c.kernel_ms,
            c.speedup,
            if i + 1 < elem_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"aggregate\": [\n");
    for (i, c) in agg_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"per_query_ms\": {:.4}, \"statements\": {}, \
             \"speedup\": {:.3}, \"bit_identical\": true}}{}\n",
            c.workers,
            c.per_query_ms,
            c.statements,
            c.speedup,
            if i + 1 < agg_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write JSON");
    println!("wrote {out}");
}

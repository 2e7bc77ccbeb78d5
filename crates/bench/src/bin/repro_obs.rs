//! Observability overhead: the cost of the always-on recorder.
//!
//! The `obs` recorder sits on the hottest paths in the system — chunk
//! fetch, cache lookup, WAL fsync, query latency — so its cost must be
//! negligible or nobody will leave it on. This binary replays the
//! `repro_parallel` workload (COLUMN views over a latency-simulated
//! relational back-end, cold and warm cache passes) twice per round:
//! once with the recorder enabled (the default) and once with it
//! disabled via `Recorder::set_enabled(false)`, interleaved A/B so
//! drift hits both sides equally.
//!
//! The binary *asserts* the PR's acceptance criterion — **< 3 %
//! overhead** on the latency-simulated workload — and writes the
//! measurements as JSON (default `BENCH_obs.json`, `--out PATH`). A
//! second, latency-free sweep over an in-memory back-end reports the
//! worst-case relative cost for information (not asserted: with no
//! simulated round trips the denominator is microseconds).
//!
//! ```text
//! repro_obs [--quick] [--rounds N] [--out PATH]
//! ```

use std::time::Instant;

use relstore::{Db, DbOptions, LatencyModel};
use ssdm_bench::runner::print_table;
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_storage::{
    ArrayStore, CachedChunkStore, ChunkStore, MemoryChunkStore, ParallelConfig, RelChunkStore,
    RetrievalStrategy,
};

const ROWS: usize = 128;
const COLS: usize = 128;
const CHUNK_BYTES: usize = 1024;
const GEN_SEED: u64 = 1717;
const CACHE_BYTES: usize = 4 << 20;

fn usage() -> ! {
    eprintln!("usage: repro_obs [--quick] [--rounds N] [--out PATH]");
    std::process::exit(2)
}

/// One timed pass of the query batch: resolve every view, return
/// milliseconds per query.
fn run_batch<S: ChunkStore>(store: &mut ArrayStore<S>, views: &[ssdm_storage::ArrayProxy]) -> f64 {
    let start = Instant::now();
    for v in views {
        std::hint::black_box(
            store
                .resolve(v, RetrievalStrategy::Single, ParallelConfig::SEQUENTIAL)
                .expect("resolve"),
        );
    }
    start.elapsed().as_secs_f64() * 1e3 / views.len() as f64
}

/// Median of a sample (ms).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    xs[xs.len() / 2]
}

struct Sweep {
    label: &'static str,
    on_ms: f64,
    off_ms: f64,
}

impl Sweep {
    fn overhead_pct(&self) -> f64 {
        (self.on_ms / self.off_ms - 1.0) * 100.0
    }
}

/// A/B the recorder over one store constructor: alternate
/// enabled/disabled passes for `rounds` rounds, keep medians.
/// `cold_each_pass` drops the chunk cache before every timed pass so
/// each pass pays the simulated round trips (the repro_parallel cold
/// profile); otherwise passes run warm (pure in-memory hit path).
fn sweep<S: ChunkStore>(
    label: &'static str,
    rounds: usize,
    queries: usize,
    cold_each_pass: bool,
    mut make: impl FnMut() -> ArrayStore<CachedChunkStore<S>>,
) -> Sweep {
    let rec = ssdm_obs::recorder();
    let mut on = Vec::new();
    let mut off = Vec::new();
    for round in 0..rounds {
        let mut store = make();
        let matrix = QueryGenerator::matrix(ROWS, COLS);
        let base = store.store_array(&matrix, CHUNK_BYTES).expect("store");
        let mut gen = QueryGenerator::new(ROWS, COLS, GEN_SEED);
        let views: Vec<_> = (0..queries)
            .map(|_| gen.instance(&base, AccessPattern::Column))
            .collect();
        // Warm pass to populate the cache and fault in lazy state, then
        // alternate the A/B order per round so neither side always runs
        // second (drift-fair).
        run_batch(&mut store, &views);
        let order = [round % 2 == 0, round % 2 != 0];
        for enabled in order {
            if cold_each_pass {
                store.backend().cache().clear();
            }
            rec.set_enabled(enabled);
            let ms = run_batch(&mut store, &views);
            if enabled {
                on.push(ms);
            } else {
                off.push(ms);
            }
        }
        rec.set_enabled(true);
    }
    Sweep {
        label,
        on_ms: median(on),
        off_ms: median(off),
    }
}

fn main() {
    let mut quick = false;
    let mut rounds = 9;
    let mut out = "BENCH_obs.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage())
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
        rounds = rounds.min(3);
    }
    let queries = if quick { 5 } else { 20 };

    println!("Recorder overhead: enabled vs. disabled, interleaved A/B");
    println!(
        "matrix {ROWS}x{COLS} f64, chunk {CHUNK_BYTES} B, {queries} queries/pass, \
         {rounds} rounds, median of medians"
    );

    // The repro_parallel workload: simulated network round trips
    // dominate, as in the thesis' client-server runs. This is the
    // configuration the <3% acceptance bound applies to.
    let latency = sweep("networked (cold cache)", rounds, queries, true, || {
        let db = Db::open_memory(DbOptions {
            latency: LatencyModel::networked_dbms(),
            ..DbOptions::default()
        })
        .expect("in-memory relational store");
        ArrayStore::new(CachedChunkStore::new(RelChunkStore::new(db), CACHE_BYTES))
    });

    // Worst case for information only: no latency, warm cache — every
    // span and counter lands on a nanosecond-scale operation.
    let memory = sweep("in-memory (warm cache)", rounds, queries, false, || {
        ArrayStore::new(CachedChunkStore::new(MemoryChunkStore::new(), CACHE_BYTES))
    });

    let header: Vec<String> = ["workload", "on ms/q", "off ms/q", "overhead"]
        .into_iter()
        .map(String::from)
        .collect();
    let rows: Vec<Vec<String>> = [&latency, &memory]
        .iter()
        .map(|s| {
            vec![
                s.label.to_string(),
                format!("{:.3}", s.on_ms),
                format!("{:.3}", s.off_ms),
                format!("{:+.2}%", s.overhead_pct()),
            ]
        })
        .collect();
    print_table("recorder overhead", &header, &rows);

    assert!(
        latency.overhead_pct() < 3.0,
        "recorder overhead {:.2}% >= 3% on the latency-simulated workload",
        latency.overhead_pct()
    );
    println!(
        "\nobs acceptance ✓: {:+.2}% overhead on the networked workload (<3% required)",
        latency.overhead_pct()
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"config\": {{\"rows\": {ROWS}, \"cols\": {COLS}, \"chunk_bytes\": {CHUNK_BYTES}, \
         \"queries\": {queries}, \"rounds\": {rounds}, \"quick\": {quick}}},\n  \"sweeps\": [\n"
    ));
    for (i, s) in [&latency, &memory].iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"on_ms\": {:.5}, \"off_ms\": {:.5}, \
             \"overhead_pct\": {:.3}}}{}\n",
            s.label,
            s.on_ms,
            s.off_ms,
            s.overhead_pct(),
            if i == 0 { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write JSON");
    println!("wrote {out}");
}

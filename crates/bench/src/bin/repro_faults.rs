//! Fault-tolerance scenario: query success rate vs injected fault rate.
//!
//! Runs the mini-benchmark's access patterns against an in-memory
//! back-end wrapped in a deterministic `FaultInjectingChunkStore`,
//! twice per fault rate: once bare (every transient back-end fault
//! sinks its query) and once behind a `ResilientChunkStore` with
//! retry/backoff plus the APR's per-chunk fallback. A query counts as a
//! success only if it returns *and* its elements are bit-identical to
//! the fault-free baseline.
//!
//! Expected shape: the bare stack's success rate decays roughly with
//! (1 - rate)^statements, while the resilient stack stays at 100% far
//! past realistic fault rates, at the cost of retries visible in the
//! right-hand columns. `SSDM_FAULT_SEED` overrides the plan seed.

use ssdm_bench::runner::print_table;
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayStore, ChunkStore, FaultInjectingChunkStore, FaultPlan, MemoryChunkStore, ParallelConfig,
    ResilientChunkStore, RetrievalStrategy, RetryPolicy,
};

const ROWS: usize = 128;
const COLS: usize = 128;
const CHUNK_BYTES: usize = 1024;
const QUERIES: usize = 150;
const GEN_SEED: u64 = 4242;

fn patterns() -> Vec<AccessPattern> {
    vec![
        AccessPattern::Row,
        AccessPattern::Column,
        AccessPattern::StridedRows { stride: 4 },
        AccessPattern::Block { rows: 16, cols: 16 },
    ]
}

struct Outcome {
    succeeded: usize,
    wrong: usize,
    retries: u64,
    fallbacks: u64,
    giveups: u64,
}

/// Run the workload against a fresh store stack; `expected[i]` is the
/// fault-free result of query `i`.
fn run<S: ChunkStore>(store: &mut ArrayStore<S>, expected: &[Vec<f64>]) -> Outcome {
    let matrix = QueryGenerator::matrix(ROWS, COLS);
    let base = store.store_array(&matrix, CHUNK_BYTES).expect("store");
    let mut gen = QueryGenerator::new(ROWS, COLS, GEN_SEED);
    let strategy = RetrievalStrategy::SpdRange {
        options: SpdOptions::default(),
    };
    let mut out = Outcome {
        succeeded: 0,
        wrong: 0,
        retries: 0,
        fallbacks: 0,
        giveups: 0,
    };
    let pats = patterns();
    for i in 0..QUERIES {
        let view = gen.instance(&base, pats[i % pats.len()]);
        if let Ok(a) = store.resolve(&view, strategy, ParallelConfig::SEQUENTIAL) {
            let got: Vec<f64> = a.elements().iter().map(|n| n.as_f64()).collect();
            if got == expected[i] {
                out.succeeded += 1;
            } else {
                out.wrong += 1;
            }
        }
        let s = store.last_stats();
        out.retries += s.retries;
        out.fallbacks += s.fallbacks;
    }
    out.giveups = store.backend().resilience_stats().giveups;
    out
}

fn main() {
    let seed = FaultPlan::seed_from_env(7);
    let rates = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.40];

    println!("Fault tolerance: success rate vs injected transient-fault rate");
    println!(
        "matrix {ROWS}x{COLS} f64, chunk {CHUNK_BYTES} B, {QUERIES} SPD-RANGE queries per cell, \
         plan seed {seed} (override with SSDM_FAULT_SEED)"
    );

    // Fault-free ground truth, once.
    let expected: Vec<Vec<f64>> = {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let matrix = QueryGenerator::matrix(ROWS, COLS);
        let base = store.store_array(&matrix, CHUNK_BYTES).expect("store");
        let mut gen = QueryGenerator::new(ROWS, COLS, GEN_SEED);
        let pats = patterns();
        (0..QUERIES)
            .map(|i| {
                let view = gen.instance(&base, pats[i % pats.len()]);
                store
                    .resolve(
                        &view,
                        RetrievalStrategy::SpdRange {
                            options: SpdOptions::default(),
                        },
                        ParallelConfig::SEQUENTIAL,
                    )
                    .expect("fault-free resolve")
                    .elements()
                    .iter()
                    .map(|n| n.as_f64())
                    .collect()
            })
            .collect()
    };

    let header: Vec<String> = [
        "fault rate",
        "bare ok",
        "resilient ok",
        "wrong bits",
        "retries (res)",
        "fallbacks (bare)",
        "giveups (res)",
    ]
    .into_iter()
    .map(String::from)
    .collect();

    let mut table = Vec::new();
    for rate in rates {
        let plan = FaultPlan::transient_reads(seed, rate);

        let mut bare = ArrayStore::new(FaultInjectingChunkStore::new(
            MemoryChunkStore::new(),
            plan.clone(),
        ));
        let bare_out = run(&mut bare, &expected);

        let mut resilient = ArrayStore::new(ResilientChunkStore::new(
            FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan),
            RetryPolicy::aggressive(),
        ));
        let res_out = run(&mut resilient, &expected);

        let pct = |n: usize| format!("{:.0}%", 100.0 * n as f64 / QUERIES as f64);
        table.push(vec![
            format!("{:.0}%", rate * 100.0),
            pct(bare_out.succeeded),
            pct(res_out.succeeded),
            format!("{}", bare_out.wrong + res_out.wrong),
            format!("{}", res_out.retries),
            format!("{}", bare_out.fallbacks),
            format!("{}", res_out.giveups),
        ]);
    }
    print_table(
        "query success rate (bit-identical results) per stack",
        &header,
        &table,
    );

    println!(
        "\nReading: 'wrong bits' must stay 0 — checksummed frames turn corruption into \
         retryable errors, never silent damage. The resilient column should hold 100% \
         while the bare column decays as the fault rate grows."
    );
}

//! Experiment execution and measurement collection.

use std::time::Instant;

use ssdm_storage::{ArrayProxy, ArrayStore, ChunkStore, ParallelConfig, RetrievalStrategy};

use crate::workload::{AccessPattern, QueryGenerator};

/// Measurements for one (pattern, strategy) cell of an experiment
/// table, averaged over `queries` query instances.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    pub queries: usize,
    pub total_seconds: f64,
    pub statements: u64,
    pub chunks_fetched: u64,
    pub bytes_fetched: u64,
    pub elements_resolved: u64,
}

impl Measurement {
    pub fn per_query_ms(&self) -> f64 {
        self.total_seconds * 1e3 / self.queries.max(1) as f64
    }

    /// Overfetch factor: bytes fetched per byte actually needed.
    pub fn overfetch(&self) -> f64 {
        let needed = self.elements_resolved.max(1) * 8;
        self.bytes_fetched as f64 / needed as f64
    }
}

/// Run `queries` instances of `pattern` under `strategy`, resolving
/// each view fully, and return the aggregated measurements.
pub fn run_pattern<S: ChunkStore>(
    store: &mut ArrayStore<S>,
    base: &ArrayProxy,
    generator: &mut QueryGenerator,
    pattern: AccessPattern,
    strategy: RetrievalStrategy,
    queries: usize,
) -> Measurement {
    store.backend_mut().reset_io_stats();
    let mut elements = 0u64;
    let start = Instant::now();
    for _ in 0..queries {
        let proxy = generator.instance(base, pattern);
        let resolved = store
            .resolve(&proxy, strategy, ParallelConfig::SEQUENTIAL)
            .expect("resolve");
        elements += resolved.element_count() as u64;
        std::hint::black_box(&resolved);
    }
    let total_seconds = start.elapsed().as_secs_f64();
    let io = store.backend().io_stats();
    Measurement {
        queries,
        total_seconds,
        statements: io.statements,
        chunks_fetched: io.chunks_returned,
        bytes_fetched: io.bytes_returned,
        elements_resolved: elements,
    }
}

/// Like [`run_pattern`] but computing a streamed aggregate (AAPR)
/// instead of materializing.
pub fn run_pattern_aggregate<S: ChunkStore>(
    store: &mut ArrayStore<S>,
    base: &ArrayProxy,
    generator: &mut QueryGenerator,
    pattern: AccessPattern,
    strategy: RetrievalStrategy,
    queries: usize,
) -> Measurement {
    store.backend_mut().reset_io_stats();
    let mut elements = 0u64;
    let start = Instant::now();
    for _ in 0..queries {
        let proxy = generator.instance(base, pattern);
        elements += proxy.element_count() as u64;
        let agg = store
            .resolve_aggregate(
                &proxy,
                ssdm_array::AggregateOp::Sum,
                strategy,
                ParallelConfig::SEQUENTIAL,
            )
            .expect("aggregate");
        std::hint::black_box(agg);
    }
    let total_seconds = start.elapsed().as_secs_f64();
    let io = store.backend().io_stats();
    Measurement {
        queries,
        total_seconds,
        statements: io.statements,
        chunks_fetched: io.chunks_returned,
        bytes_fetched: io.bytes_returned,
        elements_resolved: elements,
    }
}

/// Print an aligned table: header then rows of cells.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        s
    };
    println!("{}", line(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for r in rows {
        println!("{}", line(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::standard_patterns;
    use ssdm_storage::MemoryChunkStore;

    #[test]
    fn measurements_are_consistent() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        // Pin the raw codec: this test checks *wire* overfetch against
        // bytes needed, an invariant compression deliberately breaks.
        store.set_codec(ssdm_storage::CodecPolicy::Raw);
        let m = QueryGenerator::matrix(64, 64);
        let base = store.store_array(&m, 512).unwrap();
        let mut gen = QueryGenerator::new(64, 64, 3);
        for p in standard_patterns() {
            let meas = run_pattern(&mut store, &base, &mut gen, p, RetrievalStrategy::Single, 4);
            assert_eq!(meas.queries, 4);
            assert!(meas.statements >= 4, "{}", p.name());
            assert!(meas.chunks_fetched >= meas.statements);
            assert!(
                meas.overfetch() >= 0.99,
                "{}: {}",
                p.name(),
                meas.overfetch()
            );
        }
    }

    #[test]
    fn aggregate_runner_matches_materialized_totals() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let m = QueryGenerator::matrix(16, 16);
        let base = store.store_array(&m, 64).unwrap();
        let mut gen = QueryGenerator::new(16, 16, 9);
        let meas = run_pattern_aggregate(
            &mut store,
            &base,
            &mut gen,
            AccessPattern::Whole,
            RetrievalStrategy::WholeArray,
            2,
        );
        assert_eq!(meas.elements_resolved, 2 * 256);
        assert_eq!(meas.statements, 2);
    }
}

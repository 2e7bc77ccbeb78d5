//! Criterion bench tracking Experiment 1 (retrieval strategies per
//! access pattern) over time. One group per access pattern, one bench
//! per strategy. Uses the no-latency relational back-end so measured
//! time is engine work, not simulated round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use ssdm_bench::workload::{standard_patterns, QueryGenerator};
use ssdm_storage::{spd::SpdOptions, ArrayStore, ParallelConfig, RelChunkStore, RetrievalStrategy};

fn bench_strategies(c: &mut Criterion) {
    let (rows, cols) = (128, 128);
    let chunk_bytes = 1024;
    let mut store = ArrayStore::new(RelChunkStore::open_memory().expect("store"));
    let matrix = QueryGenerator::matrix(rows, cols);
    let base = store.store_array(&matrix, chunk_bytes).expect("store");

    let strategies = [
        RetrievalStrategy::Single,
        RetrievalStrategy::BufferedIn { buffer_size: 64 },
        RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        },
        RetrievalStrategy::WholeArray,
    ];

    for pattern in standard_patterns() {
        let mut group = c.benchmark_group(format!("exp1/{}", pattern.name()));
        for strategy in strategies {
            group.bench_function(strategy.name(), |b| {
                let mut gen = QueryGenerator::new(rows, cols, 17);
                b.iter(|| {
                    let proxy = gen.instance(&base, pattern);
                    std::hint::black_box(
                        store
                            .resolve(&proxy, strategy, ParallelConfig::SEQUENTIAL)
                            .expect("resolve"),
                    )
                });
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_strategies
}
criterion_main!(benches);

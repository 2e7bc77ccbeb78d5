//! Engine construction with every knob pinned, and data loading.

use std::path::Path;
use std::time::Instant;

use scisparql::PlannerConfig;
use ssdm::{Backend, DurableOptions, FsyncPolicy, Ssdm};
use ssdm_storage::{CodecPolicy, RetrievalStrategy};

use crate::gen;

/// Arrays above this many elements are stored externally...
pub const EXTERNALIZE_ELEMENTS: usize = 256;
/// ...in chunks of this many bytes.
pub const CHUNK_BYTES: usize = 4096;
pub const CODEC: CodecPolicy = CodecPolicy::Auto;

/// The generated data set: tasks × steps, realizations per point.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub tasks: usize,
    pub steps: usize,
    pub realizations: usize,
}

/// Set every knob the environment could otherwise change
/// (`SSDM_CODEC`, `SSDM_PLANNER`, ...) explicitly.
pub fn pin(db: &mut Ssdm, apr_workers: usize) {
    db.set_externalize_threshold(EXTERNALIZE_ELEMENTS, CHUNK_BYTES);
    db.set_codec(CODEC);
    db.set_strategy(RetrievalStrategy::SpdRange {
        options: Default::default(),
    });
    db.set_chunk_skipping(true);
    db.set_parallel_workers(apr_workers);
    db.set_slow_query_ms(None);
    db.dataset.planner = PlannerConfig::default();
}

/// What one load cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadTimes {
    pub total_s: f64,
    pub insert_s: f64,
    pub externalize_s: f64,
    pub triples: usize,
}

/// Insert tasks `0..shape.tasks` straight into the default graph and
/// externalize their trajectories.
pub fn load(db: &mut Ssdm, seed: u64, shape: Shape) -> LoadTimes {
    let start = Instant::now();
    let mut triples = 0;
    for t in 0..shape.tasks {
        triples += gen::insert_task(
            &mut db.dataset.graph,
            seed,
            t,
            shape.steps,
            shape.realizations,
        );
    }
    let inserted = Instant::now();
    db.dataset
        .externalize_large_arrays()
        .expect("externalize trajectories");
    let done = Instant::now();
    LoadTimes {
        total_s: done.duration_since(start).as_secs_f64(),
        insert_s: inserted.duration_since(start).as_secs_f64(),
        externalize_s: done.duration_since(inserted).as_secs_f64(),
        triples,
    }
}

/// A relational-back-end engine behind a chunk cache, loaded.
pub fn relational(
    seed: u64,
    shape: Shape,
    cache_bytes: usize,
    workers: usize,
) -> (Ssdm, LoadTimes) {
    let mut db = Ssdm::open_with_cache(Backend::Relational, cache_bytes);
    pin(&mut db, workers);
    let times = load(&mut db, seed, shape);
    (db, times)
}

pub fn durable_options(cache_bytes: usize) -> DurableOptions {
    DurableOptions {
        fsync: FsyncPolicy::Always,
        cache_bytes,
        ..DurableOptions::default()
    }
}

/// A durable file-back-end engine in `dir` (which must not exist yet).
pub fn open_durable(dir: &Path, cache_bytes: usize, workers: usize) -> Ssdm {
    let mut db = Ssdm::open_durable_with(dir, durable_options(cache_bytes)).expect("open durable");
    pin(&mut db, workers);
    db
}

/// A durable engine loaded with the base and checkpointed, so the base
/// (inserted directly, never journaled) is covered by the snapshot.
pub fn durable_base(
    dir: &Path,
    seed: u64,
    shape: Shape,
    cache_bytes: usize,
    workers: usize,
) -> (Ssdm, LoadTimes) {
    let start = Instant::now();
    let mut db = open_durable(dir, cache_bytes, workers);
    let mut times = load(&mut db, seed, shape);
    db.checkpoint().expect("set-up checkpoint");
    times.total_s = start.elapsed().as_secs_f64();
    (db, times)
}

/// Set-up runs per benchmark run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Medians over the set-up repetitions: (total s, externalize s,
/// inserted triples per second).
pub fn median_times(times: &[LoadTimes]) -> (f64, f64, f64) {
    let pick =
        |f: fn(&LoadTimes) -> f64| crate::stats::median(&times.iter().map(f).collect::<Vec<_>>());
    (
        pick(|t| t.total_s),
        pick(|t| t.externalize_s),
        pick(|t| t.triples as f64 / t.insert_s),
    )
}

/// The set-up repetitions, for the run's notes.
pub fn describe(times: &[LoadTimes]) -> String {
    let reps: Vec<String> = times.iter().map(|t| format!("{:.4}", t.total_s)).collect();
    format!("set-up repetitions took {} s", reps.join(", "))
}

//! `interactive`: single-task queries over both wires of one server,
//! all data behind a chunk cache it fits in. The front end, admission,
//! parse/plan and the shared engine lock dominate; storage only serves
//! cache hits.
//!
//! Also home to what the other workloads reuse from it: the
//! single-task mix (the analytic front-end probe), the served-run
//! tallies and read metrics (ingest), and the traced run's probes.

use std::sync::Mutex;

use crate::gen;
use crate::metrics::{Outcome, PerLayer};
use crate::ops::{Op, Oracle, SLICE};
use crate::probes;
use crate::served::{self, ClientRun, PairRun, Phases, Plan, Reply, Step, Window};
use crate::setup::{self, Shape, SETUP_REPS};
use crate::stats;
use crate::trace::{self, Layers, SpanLog};
use crate::Args;

/// 2000 tasks × 4096 steps: 62.5 MiB of trajectories.
const FULL: Shape = Shape {
    tasks: 2000,
    steps: 4096,
    realizations: 4,
};
const QUICK: Shape = Shape {
    tasks: 40,
    steps: 1024,
    realizations: 4,
};
const CACHE_BYTES: usize = 128 << 20;
const APR_WORKERS: usize = 1;
const WARMUP_S: f64 = 0.5;
/// `read_tail_ms` percentile: at several thousand reads a second there
/// are well over ten samples beyond it in every one-second window.
const TAIL_PCT: f64 = 99.0;

/// The seeded uniform mix of single-task queries of client `client`.
pub fn op(seed: u64, client: u64, n: u64, shape: Shape) -> Op {
    let key = 0x1000 + client;
    let t = gen::index(seed, key, 3 * n, shape.tasks);
    let draw = |b: u64, len: usize| gen::index(seed, key, 3 * n + b, len);
    match draw(1, 3) {
        0 => Op::Element {
            t,
            i: 1 + draw(2, shape.steps),
        },
        1 => Op::SliceAvg {
            t,
            i: 1 + draw(2, shape.steps - SLICE + 1),
        },
        _ => Op::Meta { t },
    }
}

/// One client's stream of [`op`]s, checked against the oracle.
pub struct Mix<'a> {
    pub client: u64,
    pub shape: Shape,
    pub oracle: &'a Oracle,
}

impl Plan for Mix<'_> {
    fn next(&mut self, n: u64) -> Step {
        let op = op(self.oracle.seed, self.client, n, self.shape);
        let text = op.text(self.oracle.seed, self.shape.steps, self.shape.realizations);
        Step::Op(op, text)
    }

    fn check(&mut self, op: &Op, reply: &Reply) -> Result<(), String> {
        match reply {
            Reply::Table(t) => self.oracle.check(op, t, 0, 0),
            Reply::Ack(a) => Err(format!("read answered like an update: {a:?}")),
        }
    }
}

impl<'a> Mix<'a> {
    pub fn new(client: u64, shape: Shape, oracle: &'a Oracle) -> Mix<'a> {
        Mix {
            client,
            shape,
            oracle,
        }
    }
}

/// Count a served run's operations and failures into the outcome.
pub fn tally(out: &mut Outcome, pair: &PairRun) {
    if let Err(e) = &pair.reconciled {
        out.correct = false;
        out.note(e.clone());
    }
    for r in &pair.runs {
        out.attempted += r.attempted;
        out.failed += r.failed;
        if r.mismatches > 0 {
            out.correct = false;
        }
        for e in &r.errors {
            out.note(format!("failed: {e}"));
        }
    }
}

/// Read metrics over all clients' untraced reads, as medians over
/// one-second windows: rate, p50, and the tail at `pct`.
pub fn read_metrics(out: &mut Outcome, runs: &[ClientRun], window: &Window, pct: f64) {
    let samples: Vec<(f64, f64)> = runs
        .iter()
        .flat_map(|r| r.timed_reads.iter().copied())
        .collect();
    let w = stats::windowed(&samples, 1.0, window.untraced_s(), pct);
    let e = &mut out.end_to_end;
    e.read_qps = w.qps;
    e.read_p50_ms = w.p50_ms;
    e.read_tail_ms = w.tail_ms;
    out.note(format!(
        "read_* are medians over {} one-second windows of {} reads; read_tail_ms is each window's \
         p{pct}, with at least {} samples beyond it in every window",
        w.windows,
        samples.len(),
        w.min_beyond
    ));
}

/// Per-layer metrics of a served run: replayed spans, counter deltas
/// of the served engine, front-end shares and tracing overhead.
pub fn served_layers(l: &mut PerLayer, pair: &PairRun) {
    let (runs, before, after) = (&pair.runs, &pair.before, &pair.after);
    let logs: Vec<&SpanLog> = runs.iter().map(|r| &r.log).collect();
    let layers = Layers::new(&logs);
    l.fill_spans(&layers);
    let executed: u64 = runs.iter().map(|r| r.attempted).sum();
    let replayed: u64 = runs.iter().map(|r| r.replayed).sum();
    l.fill_counters(before, after, executed as f64, (executed + replayed) as f64);
    let d = |name: &str| after.since(before, name);
    l.http_server_us = crate::metrics::ratio(
        d("ssdm_http_request_seconds_sum") * 1e6,
        d("ssdm_http_request_seconds_count"),
    );
    l.http_front_us = layers.p50("client.http") - layers.query_p50(|r| r >> 40 == 0);
    l.server_front_us = layers.p50("client.framed") - layers.query_p50(|r| r >> 40 == 1);
    l.tenant_admitted = d("ssdm_tenant_admitted_total");
    l.tenant_rejected = served::tenants_rejected(after) - served::tenants_rejected(before);
    l.trace_coverage = trace::coverage(&logs);
    let phases: Vec<Phases> = runs.iter().map(|r| r.phases).collect();
    l.trace_overhead = Phases::overhead(&phases, &pair.window);
}

/// Write the spans of a traced run out and note where.
pub fn write_trace(out: &mut Outcome, args: &Args, logs: &[&SpanLog]) {
    let path = std::path::PathBuf::from(".perfbench-out")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let total: usize = logs.iter().map(|l| l.spans.len()).sum();
    match trace::write_spans(&path, logs) {
        Ok(n) => out.note(format!("wrote {n} of {total} spans to {}", path.display())),
        Err(e) => out.note(format!("could not write spans to {}: {e}", path.display())),
    }
}

/// Data, codec, relstore, kernel and set-up figures for the traced run.
pub fn probe_layers(l: &mut PerLayer, seed: u64, shape: Shape, times: &[setup::LoadTimes]) {
    let p = probes::data_probe(seed, shape);
    l.codec_encode_gbps = p.encode_gbps;
    l.codec_decode_gbps = p.decode_gbps;
    l.codec_ratio = p.ratio;
    l.relstore_range_us = p.range_us;
    l.kernel_elements_per_s = p.kernel_elements_per_s;
    let (_, externalize_s, triples_per_s) = setup::median_times(times);
    l.setup_externalize_s = externalize_s;
    l.rdf_insert_triples_per_s = triples_per_s;
}

/// The WAL/checkpoint figures of a workload whose loop writes nothing.
pub fn durability_layers(out: &mut Outcome, args: &Args, oracle: &Oracle, first_task: usize) {
    match probes::durability_probe(&args.run_dir.join("durability-probe"), oracle, first_task) {
        Ok(p) => {
            let l = &mut out.per_layer;
            l.wal_fsyncs_per_update = p.fsyncs_per_update;
            l.wal_fsync_us = p.fsync_us;
            l.wal_bytes_per_update = p.bytes_per_update;
            l.durability_checkpoint_ms = p.checkpoint_ms;
            l.durability_replay_records_per_s = p.replay_records_per_s;
        }
        Err(e) => {
            out.correct = false;
            out.note(format!("durability probe failed: {e}"));
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let shape = if args.quick { QUICK } else { FULL };
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.note(format!(
        "config backend=relational cache={}MiB codec={} planner=dp externalize>{} chunk_bytes={} \
         apr_workers={APR_WORKERS} server_workers={} tasks={} steps={}",
        CACHE_BYTES >> 20,
        setup::CODEC.name(),
        setup::EXTERNALIZE_ELEMENTS,
        setup::CHUNK_BYTES,
        served::SERVER_WORKERS,
        shape.tasks,
        shape.steps
    ));

    // Set up several times for a steady `setup_s`; a traced run keeps
    // a second engine to replay requests on.
    let keep = 1 + usize::from(args.trace);
    let mut engines = Vec::new();
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        if engines.len() == keep {
            engines.remove(0);
        }
        let (db, t) = setup::relational(args.seed, shape, CACHE_BYTES, APR_WORKERS);
        times.push(t);
        engines.push(db);
    }
    out.end_to_end.setup_s = setup::median_times(&times).0;
    out.note(setup::describe(&times));
    let db = engines.pop().expect("an engine");
    let replay = engines.pop().map(Mutex::new);
    let oracle = Oracle::new(args.seed, shape.steps, shape.realizations);

    let (mut http, mut framed) = (Mix::new(0, shape, &oracle), Mix::new(1, shape, &oracle));
    let pair = served::run_pair(
        db,
        &mut http,
        &mut framed,
        WARMUP_S,
        args.seconds,
        replay.as_ref(),
    );
    tally(&mut out, &pair);
    let runs = &pair.runs;
    read_metrics(&mut out, runs, &pair.window, TAIL_PCT);
    out.end_to_end.peak_rss_mb = stats::peak_rss_mb();
    out.note(format!(
        "http_p50_ms={:.4} framed_p50_ms={:.4}",
        runs[0].reads.p50(),
        runs[1].reads.p50()
    ));

    if let Some(replay) = replay {
        let mut engine = replay.into_inner().expect("replay engine");
        let l = &mut out.per_layer;
        served_layers(l, &pair);
        probe_layers(l, args.seed, shape, &times);
        let sample: Vec<String> = (0..24)
            .map(|n| op(args.seed, 0, n, shape).text(args.seed, shape.steps, shape.realizations))
            .collect();
        match probes::rows_per_result(&mut engine, &sample) {
            Ok(r) => out.per_layer.core_rows_per_result = r,
            Err(e) => {
                out.correct = false;
                out.note(format!("EXPLAIN ANALYZE sample failed: {e}"));
            }
        }
        durability_layers(&mut out, args, &oracle, shape.tasks);
        let logs: Vec<&SpanLog> = runs.iter().map(|r| &r.log).collect();
        out.note(format!(
            "trace unattributed share {:.4}",
            1.0 - out.per_layer.trace_coverage
        ));
        write_trace(&mut out, args, &logs);
    }
    out
}

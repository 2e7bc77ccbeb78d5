//! `analytic`: paper-shaped analytic queries from one embedded caller
//! (`Ssdm::query`, no server) over data eight times the chunk cache.
//! APR fetch, relstore lookups, SCC1 decode, kernels and the planner
//! do the work; the front end is bypassed.

use std::time::Instant;

use scisparql::QueryResult;

use crate::gen;
use crate::interactive::{self, Mix};
use crate::metrics::{Outcome, PerLayer};
use crate::net::{HttpClient, Table};
use crate::ops::{Op, Oracle, BAND, RANGES};
use crate::served::{self, Counters, Phases, Window};
use crate::setup::{self, Shape, SETUP_REPS};
use crate::stats::{self, Latencies};
use crate::trace::{self, Layers, SpanLog};
use crate::Args;

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
/// One eighth of the 62.5 MiB of trajectories.
const CACHE_BYTES: usize = 8 << 20;
const APR_WORKERS: usize = 2;
/// `read_tail_ms` is the highest percentile with this many samples
/// beyond it.
const TAIL_BEYOND: usize = 10;
/// Seconds of each part of the traced run's front-end probe.
const FRONT_PROBE_S: f64 = 0.5;

/// The query kinds in the order one cycle sends them; parameters are
/// drawn from the seed per operation.
const CYCLE: [u8; 7] = [0, 1, 0, 1, 2, 3, 3];

pub fn op(seed: u64, n: u64, shape: Shape) -> Op {
    let draw = |b: u64, len: usize| gen::index(seed, 0x2000, 4 * n + b, len);
    let realization = 1 + draw(0, shape.realizations) as i64;
    match CYCLE[(n % CYCLE.len() as u64) as usize] {
        0 => Op::FirstLast { realization },
        1 => Op::EarlyAvg {
            result: draw(1, 2) as i64,
        },
        2 => Op::CountRange {
            realization,
            range: draw(2, RANGES.len()),
        },
        _ => Op::BandMax {
            lo: 10.0 + BAND * draw(3, 8) as f64,
        },
    }
}

pub fn run(args: &Args) -> Outcome {
    let shape = if args.quick { QUICK } else { FULL };
    let seed = args.seed;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    out.note(format!(
        "config backend=relational cache={}MiB codec={} planner=dp externalize>{} chunk_bytes={} \
         apr_workers={APR_WORKERS} tasks={} steps={}",
        CACHE_BYTES >> 20,
        setup::CODEC.name(),
        setup::EXTERNALIZE_ELEMENTS,
        setup::CHUNK_BYTES,
        shape.tasks,
        shape.steps
    ));
    let mut db: Option<ssdm::Ssdm> = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        // Drop the previous engine before building the next one.
        drop(db.take());
        let (engine, t) = setup::relational(seed, shape, CACHE_BYTES, APR_WORKERS);
        times.push(t);
        db = Some(engine);
    }
    let mut db = db.expect("an engine");
    out.end_to_end.setup_s = setup::median_times(&times).0;
    out.note(setup::describe(&times));
    let oracle = Oracle::new(seed, shape.steps, shape.realizations).with_summaries(shape.tasks);

    // One cycle warms the cache and the planner's calibration.
    for n in 0..CYCLE.len() as u64 {
        let op = op(seed, n, shape);
        let text = op.text(seed, shape.steps, shape.realizations);
        let result = db.query(&text).map_err(|e| e.to_string());
        checked(&mut out, &oracle, &op, result, shape.tasks);
    }

    let before = Counters::parse(&db.metrics_prometheus());
    let window = Window::new(0.0, args.seconds, args.trace);
    let mut log = SpanLog::new(window.epoch);
    let mut reads = Latencies::default();
    let mut phases = Phases::default();
    let mut executed = 0u64;
    let mut n = CYCLE.len() as u64;
    while Instant::now() < window.end {
        let (_, traced) = window.state(Instant::now());
        let op = op(seed, n, shape);
        let text = op.text(seed, shape.steps, shape.realizations);
        let t0 = Instant::now();
        let result = if traced {
            // Traced: the same call, made as its layer chain.
            let bytes = HttpClient::post_bytes("/query", "application/sparql-query", &text);
            let span = log.begin("client.embedded", n, None);
            let r = trace::replay(&mut log, n, Some(span), Some(&bytes), &text, &mut db);
            log.end(span);
            r
        } else {
            db.query(&text).map_err(|e| e.to_string())
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        n += 1;
        executed += 1;
        if checked(&mut out, &oracle, &op, result, shape.tasks) {
            reads.push(ms);
            phases.record(traced, Instant::now());
        }
    }
    let after = Counters::parse(&db.metrics_prometheus());

    let e = &mut out.end_to_end;
    e.read_qps = Phases::rate(&[phases], &window, 0);
    e.read_p50_ms = reads.p50();
    let (tail, pct) = reads.tail_beyond(TAIL_BEYOND);
    e.read_tail_ms = tail;
    e.peak_rss_mb = stats::peak_rss_mb();
    out.note(format!(
        "read_tail_ms is p{pct:.2} of {} reads, {TAIL_BEYOND} samples beyond it; cache hit rate {:.3}",
        reads.len(),
        crate::metrics::ratio(
            after.since(&before, "ssdm_cache_hits_total"),
            after.since(&before, "ssdm_cache_hits_total") + after.since(&before, "ssdm_cache_misses_total")
        )
    ));

    if args.trace {
        let l = &mut out.per_layer;
        let layers = Layers::new(&[&log]);
        l.fill_spans(&layers);
        l.fill_counters(&before, &after, executed as f64, executed as f64);
        l.trace_coverage = trace::coverage(&[&log]);
        l.trace_overhead = Phases::overhead(&[phases], &window);
        interactive::probe_layers(l, seed, shape, &times);
        let sample: Vec<String> = (0..CYCLE.len() as u64)
            .map(|n| op(seed, n, shape).text(seed, shape.steps, shape.realizations))
            .collect();
        match crate::probes::rows_per_result(&mut db, &sample) {
            Ok(r) => out.per_layer.core_rows_per_result = r,
            Err(e) => {
                out.correct = false;
                out.note(format!("EXPLAIN ANALYZE sample failed: {e}"));
            }
        }
        interactive::durability_layers(&mut out, args, &oracle, shape.tasks);
        out.note(format!(
            "trace unattributed share {:.4}",
            1.0 - out.per_layer.trace_coverage
        ));
        interactive::write_trace(&mut out, args, &[&log]);
        front_probe(&mut out, db, shape, &oracle);
    }
    out
}

/// Count one embedded operation into the outcome and check its answer;
/// `tasks` is the row set of a per-task answer (unused by single-task
/// ops). Returns whether the answer passed.
fn checked(
    out: &mut Outcome,
    oracle: &Oracle,
    op: &Op,
    result: Result<QueryResult, String>,
    tasks: usize,
) -> bool {
    out.attempted += 1;
    let verdict = result
        .map_err(|e| (e, false))
        .and_then(|r| Table::from_result(&r).map_err(|e| (e, true)))
        .and_then(|t| oracle.check(op, &t, tasks, tasks).map_err(|e| (e, true)));
    let Err((why, mismatch)) = verdict else {
        return true;
    };
    out.failed += 1;
    if mismatch {
        out.correct = false;
    }
    if out.failed <= 5 {
        out.note(format!("failed: {}: {why}", op.name()));
    }
    false
}

/// The front-end figures of a workload with no server: time the
/// single-task mix embedded, then serve this engine and time the same
/// mix over HTTP and the framed wire.
fn front_probe(out: &mut Outcome, mut db: ssdm::Ssdm, shape: Shape, oracle: &Oracle) {
    let mut embedded = Latencies::default();
    let end = Instant::now() + std::time::Duration::from_secs_f64(FRONT_PROBE_S);
    let mut n = 0;
    while Instant::now() < end {
        let op = interactive::op(oracle.seed, 0, n, shape);
        let text = op.text(oracle.seed, shape.steps, shape.realizations);
        let t0 = Instant::now();
        let result = db.query(&text).map_err(|e| e.to_string());
        embedded.push(t0.elapsed().as_secs_f64() * 1e3);
        n += 1;
        checked(out, oracle, &op, result, 0);
    }
    let (mut http, mut framed) = (Mix::new(0, shape, oracle), Mix::new(1, shape, oracle));
    let pair = served::run_pair(db, &mut http, &mut framed, 0.0, FRONT_PROBE_S, None);
    interactive::tally(out, &pair);
    let (runs, before, after) = (&pair.runs, &pair.before, &pair.after);
    let l: &mut PerLayer = &mut out.per_layer;
    let core_ms = embedded.p50();
    l.http_front_us = (runs[0].reads.p50() - core_ms) * 1e3;
    l.server_front_us = (runs[1].reads.p50() - core_ms) * 1e3;
    let d = |name: &str| after.since(before, name);
    l.http_server_us = crate::metrics::ratio(
        d("ssdm_http_request_seconds_sum") * 1e6,
        d("ssdm_http_request_seconds_count"),
    );
    l.tenant_admitted = d("ssdm_tenant_admitted_total");
    l.tenant_rejected = served::tenants_rejected(after) - served::tenants_rejected(before);
}

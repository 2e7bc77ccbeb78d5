//! Spans recorded by the benchmark around its calls into each layer's
//! public entry point, the replay of one request through the layer
//! chain, and per-layer aggregation. Nothing here reaches inside the
//! program: every span brackets a public function call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use scisparql::ast::Statement;
use scisparql::{algebra, PlannerCtx, QueryResult};
use ssdm::http::parser::{parse_request, Limits, Parsed};
use ssdm::http::router::{route, Exec, Routed};
use ssdm::http::{results, Format};
use ssdm::Ssdm;

/// One recorded span. Times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A per-thread, in-memory span log (written out when the run ends).
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Serialized response bytes per replayed request.
    pub response_bytes: Vec<u64>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
            response_bytes: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize].end_ns = now;
    }

    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }
}

/// The spans of the layer chain, in call order.
pub const LAYER_SPANS: [&str; 6] = [
    "http.parse",
    "http.route",
    "core.parse",
    "core.plan",
    "core.exec",
    "http.serialize",
];

/// Run one request through the layer chain on `engine`:
/// `parse_request` → `route` (HTTP bytes only) → `parser::parse` →
/// `translate` + `optimize_with` → `Dataset::execute` →
/// `results::serialize`. Each call gets its own span under one
/// `replay` span (itself under `parent`); the result is returned for
/// checking.
pub fn replay(
    log: &mut SpanLog,
    req: u64,
    parent: Option<u32>,
    http: Option<&[u8]>,
    text: &str,
    engine: &mut Ssdm,
) -> Result<QueryResult, String> {
    let root = log.begin("replay", req, parent);
    let out = replay_chain(log, req, root, http, text, engine);
    log.end(root);
    out
}

fn replay_chain(
    log: &mut SpanLog,
    req: u64,
    root: u32,
    http: Option<&[u8]>,
    text: &str,
    engine: &mut Ssdm,
) -> Result<QueryResult, String> {
    let mut statement = text.to_string();
    if let Some(bytes) = http {
        let parsed = log.time("http.parse", req, Some(root), || {
            parse_request(bytes, &Limits::default())
        });
        let Parsed::Complete(request, _) = parsed else {
            return Err(format!("replayed request did not parse: {parsed:?}"));
        };
        let routed = log.time("http.route", req, Some(root), || route(&request));
        statement = match routed {
            Routed::Dispatch {
                exec: Exec::Query { statement, .. } | Exec::Update { statement, .. },
                ..
            } => statement,
            _ => return Err("replayed request was not routed to the engine".into()),
        };
    }
    let stmt = log
        .time("core.parse", req, Some(root), || {
            scisparql::parser::parse(&statement)
        })
        .map_err(|e| e.to_string())?;
    let pattern = match &stmt {
        Statement::Select(q) => Some(&q.pattern),
        Statement::Modify { pattern, .. } => Some(pattern),
        _ => None,
    };
    log.time("core.plan", req, Some(root), || {
        pattern.map(|p| {
            let ds = &engine.dataset;
            let ctx = PlannerCtx {
                graph: &ds.graph,
                config: ds.planner,
                calibration: Some(&ds.calibration),
                zones: Some(&ds.arrays),
            };
            algebra::optimize_with(algebra::translate(p), &ctx)
        })
    });
    let result = log
        .time("core.exec", req, Some(root), || {
            engine.dataset.execute(stmt)
        })
        .map_err(|e| e.to_string())?;
    let bytes = log.time("http.serialize", req, Some(root), || {
        results::serialize(&result, Format::Json)
    });
    log.response_bytes.push(bytes.len() as u64);
    Ok(result)
}

/// Span durations by name, in microseconds.
pub struct Layers {
    by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Per request: parse + exec, the work `Ssdm::query` does.
    query_us: BTreeMap<u64, f64>,
    response_bytes: Vec<u64>,
}

impl Layers {
    pub fn new(logs: &[&SpanLog]) -> Layers {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut query_us: BTreeMap<u64, f64> = BTreeMap::new();
        let mut response_bytes = Vec::new();
        for log in logs {
            for s in &log.spans {
                by_name.entry(s.name).or_default().push(s.us());
                if matches!(s.name, "core.parse" | "core.exec") {
                    *query_us.entry(s.req).or_default() += s.us();
                }
            }
            response_bytes.extend_from_slice(&log.response_bytes);
        }
        Layers {
            by_name,
            query_us,
            response_bytes,
        }
    }

    pub fn mean(&self, name: &str) -> f64 {
        match self.by_name.get(name) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => 0.0,
        }
    }

    pub fn p50(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map(|v| crate::stats::median(v))
            .unwrap_or(0.0)
    }

    /// Median of parse + exec over the requests whose ids pass `keep`.
    pub fn query_p50(&self, keep: impl Fn(u64) -> bool) -> f64 {
        let v: Vec<f64> = self
            .query_us
            .iter()
            .filter(|(r, _)| keep(**r))
            .map(|(_, us)| *us)
            .collect();
        crate::stats::median(&v)
    }

    pub fn mean_response_bytes(&self) -> f64 {
        if self.response_bytes.is_empty() {
            return 0.0;
        }
        self.response_bytes.iter().sum::<u64>() as f64 / self.response_bytes.len() as f64
    }
}

/// Share of client-measured latency the replayed layer spans account
/// for, summed over requests: `Σ layer spans / Σ client spans`.
pub fn coverage(logs: &[&SpanLog]) -> f64 {
    let (mut layers, mut client) = (0.0, 0.0);
    for log in logs {
        for s in &log.spans {
            if s.name.starts_with("client.") {
                client += s.us();
            } else if LAYER_SPANS.contains(&s.name) {
                layers += s.us();
            }
        }
    }
    if client > 0.0 {
        layers / client
    } else {
        0.0
    }
}

/// Spans written out per thread; aggregation uses all of them.
pub const WRITTEN_SPANS_PER_THREAD: usize = 100_000;

/// Write each thread's first [`WRITTEN_SPANS_PER_THREAD`] spans as one
/// JSON line each; returns how many were written.
pub fn write_spans(path: &Path, logs: &[&SpanLog]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for (thread, log) in logs.iter().enumerate() {
        for (id, s) in log.spans.iter().enumerate().take(WRITTEN_SPANS_PER_THREAD) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
            n += 1;
        }
    }
    out.flush()?;
    Ok(n)
}

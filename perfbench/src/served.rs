//! The served path: one in-process `Server` with the framed wire and
//! the HTTP front end on one engine, and the closed-loop client that
//! drives it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use ssdm::http::HttpConfig;
use ssdm::server::{Client, Server, ServerConfig};
use ssdm::Ssdm;

use crate::net::{HttpClient, Table};
use crate::ops::Op;
use crate::stats::Latencies;
use crate::trace::{self, SpanLog};

/// Execution slots of the framed server and workers of the HTTP pool.
/// One each: every statement takes the engine lock, so a second slot
/// per front end only adds threads competing for the two cores.
pub const SERVER_WORKERS: usize = 1;

/// Counter values parsed from a Prometheus text page, summed per
/// series name across labels.
#[derive(Debug, Default, Clone)]
pub struct Counters(HashMap<String, f64>);

impl Counters {
    pub fn parse(text: &str) -> Counters {
        let mut map: HashMap<String, f64> = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let name = series.split('{').next().unwrap_or(series);
            if let Ok(v) = value.parse::<f64>() {
                *map.entry(name.to_string()).or_default() += v;
            }
        }
        Counters(map)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self - before` for one series.
    pub fn since(&self, before: &Counters, name: &str) -> f64 {
        self.get(name) - before.get(name)
    }
}

/// A running server.
pub struct Served {
    pub framed: SocketAddr,
    pub http: SocketAddr,
    join: JoinHandle<std::io::Result<()>>,
}

pub fn serve(db: Ssdm) -> Served {
    let config = ServerConfig {
        workers: SERVER_WORKERS,
        ..ServerConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", db, config).expect("bind framed server");
    let http = server
        .enable_http_with(
            "127.0.0.1:0",
            HttpConfig {
                workers: SERVER_WORKERS,
                ..HttpConfig::default()
            },
        )
        .expect("bind http front end");
    let framed = server.local_addr().expect("framed address");
    let join = std::thread::spawn(move || server.serve());
    Served { framed, http, join }
}

impl Served {
    /// The `METRICS` page (engine report, tenant series, recorder).
    pub fn counters(&self) -> Counters {
        let mut c = Client::connect(self.framed).expect("metrics connection");
        Counters::parse(&c.query("METRICS").expect("METRICS"))
    }

    /// `SHUTDOWN` over the framed wire; waits for the server (and its
    /// HTTP front end) to drain and every server thread to end.
    pub fn stop(self) {
        let mut c = Client::connect(self.framed).expect("shutdown connection");
        c.shutdown().expect("SHUTDOWN");
        drop(c);
        self.join
            .join()
            .expect("server thread")
            .expect("server exited cleanly");
    }
}

/// Admission counters reconcile: every admitted statement completed,
/// failed or timed out.
pub fn tenants_reconcile(c: &Counters) -> Result<(), String> {
    let admitted = c.get("ssdm_tenant_admitted_total");
    let done = c.get("ssdm_tenant_completed_total")
        + c.get("ssdm_tenant_errors_total")
        + c.get("ssdm_tenant_timed_out_total");
    if admitted == done {
        Ok(())
    } else {
        Err(format!(
            "tenant counters do not reconcile: admitted {admitted} != {done} finished"
        ))
    }
}

pub fn tenants_rejected(c: &Counters) -> f64 {
    ["rate", "quota", "overload"]
        .iter()
        .map(|k| c.get(&format!("ssdm_tenant_rejected_{k}_total")))
        .sum()
}

/// One client connection.
pub enum Wire {
    Http(HttpClient),
    Framed(Client),
}

pub enum Reply {
    Table(Table),
    Ack(String),
}

impl Wire {
    pub fn http(served: &Served) -> Wire {
        Wire::Http(HttpClient::connect(served.http).expect("http connect"))
    }

    pub fn framed(served: &Served) -> Wire {
        Wire::Framed(Client::connect(served.framed).expect("framed connect"))
    }

    fn span_name(&self) -> &'static str {
        match self {
            Wire::Http(_) => "client.http",
            Wire::Framed(_) => "client.framed",
        }
    }

    /// The HTTP request bytes of a statement (`None` on the framed wire).
    pub fn request_bytes(&self, text: &str, update: bool) -> Option<Vec<u8>> {
        match self {
            Wire::Http(_) if update => Some(HttpClient::post_bytes(
                "/update",
                "application/sparql-update",
                text,
            )),
            Wire::Http(_) => Some(HttpClient::post_bytes(
                "/query",
                "application/sparql-query",
                text,
            )),
            Wire::Framed(_) => None,
        }
    }

    /// Send one statement. A non-2xx status (429 and 503 included) or a
    /// framed error reply is an error.
    pub fn call(
        &mut self,
        text: &str,
        update: bool,
        bytes: Option<&[u8]>,
    ) -> Result<Reply, String> {
        match self {
            Wire::Http(c) => {
                let resp = c
                    .send(bytes.expect("http request bytes"))
                    .map_err(|e| format!("http: {e}"))?;
                if !(200..300).contains(&resp.status) {
                    return Err(format!(
                        "HTTP {}: {}",
                        resp.status,
                        String::from_utf8_lossy(&resp.body)
                    ));
                }
                if update {
                    Ok(Reply::Ack(String::from_utf8_lossy(&resp.body).into_owned()))
                } else {
                    Table::from_json(&resp.body).map(Reply::Table)
                }
            }
            Wire::Framed(c) => {
                let payload = c.query(text).map_err(|e| format!("framed: {e}"))?;
                if update {
                    Ok(Reply::Ack(payload))
                } else {
                    Ok(Reply::Table(Table::from_tsv(&payload)))
                }
            }
        }
    }

    /// A framed control statement (`CHECKPOINT`).
    pub fn control(&mut self, text: &str) -> Result<String, String> {
        match self {
            Wire::Framed(c) => c.query(text).map_err(|e| e.to_string()),
            Wire::Http(_) => Err("control statements use the framed wire".into()),
        }
    }
}

/// What a client sends next.
pub enum Step {
    Op(Op, String),
    Checkpoint,
}

/// A client's operation source and answer check.
pub trait Plan {
    fn next(&mut self, n: u64) -> Step;
    /// Check the reply to the op `next` last returned.
    fn check(&mut self, op: &Op, reply: &Reply) -> Result<(), String>;
}

/// Reads completed per part of the window, and when the last of them
/// completed: a closed loop's rate is its completions over the time
/// they took, so a long last operation does not skew it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    reads: [u64; 2],
    last_done: [Option<Instant>; 2],
}

impl Phases {
    pub fn record(&mut self, traced: bool, done: Instant) {
        let p = usize::from(traced);
        self.reads[p] += 1;
        self.last_done[p] = Some(done);
    }

    /// Reads per second over `phase` (0 untraced, 1 traced) of all
    /// the given tallies.
    pub fn rate(all: &[Phases], window: &Window, phase: usize) -> f64 {
        let reads: u64 = all.iter().map(|p| p.reads[phase]).sum();
        let end = all.iter().filter_map(|p| p.last_done[phase]).max();
        match end {
            Some(end) => reads as f64 / end.duration_since(window.phase_start(phase)).as_secs_f64(),
            None => 0.0,
        }
    }

    /// Tracing overhead: the traced rate's shortfall against the
    /// untraced one.
    pub fn overhead(all: &[Phases], window: &Window) -> f64 {
        1.0 - Phases::rate(all, window, 1) / Phases::rate(all, window, 0)
    }
}

/// What one client did.
pub struct ClientRun {
    pub reads: Latencies,
    pub updates: Latencies,
    pub checkpoints: Latencies,
    pub phases: Phases,
    /// Untraced measured reads: (seconds from the window start to
    /// completion, latency in ms).
    pub timed_reads: Vec<(f64, f64)>,
    /// Operations sent, warm-up included (also the base of per-query
    /// counter ratios, whose deltas span the warm-up).
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// Operations replayed through the layer chain.
    pub replayed: u64,
    pub errors: Vec<String>,
    pub log: SpanLog,
}

impl ClientRun {
    fn new(epoch: Instant) -> ClientRun {
        ClientRun {
            reads: Latencies::default(),
            updates: Latencies::default(),
            checkpoints: Latencies::default(),
            phases: Phases::default(),
            timed_reads: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: 0,
            replayed: 0,
            errors: Vec::new(),
            log: SpanLog::new(epoch),
        }
    }

    pub fn fail(&mut self, why: String, mismatch: bool) {
        self.failed += 1;
        self.mismatches += u64::from(mismatch);
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// The measured window: operations before `warm_end` warm up and are
/// not counted; the client stops at `end`. A traced run traces from
/// `traced_from` on, so the window's first part gives the untraced
/// rate the tracing overhead is measured against.
#[derive(Clone, Copy)]
pub struct Window {
    pub epoch: Instant,
    pub warm_end: Instant,
    pub traced_from: Option<Instant>,
    pub end: Instant,
}

impl Window {
    pub fn new(warmup_s: f64, seconds: f64, trace: bool) -> Window {
        let epoch = Instant::now();
        let warm_end = epoch + std::time::Duration::from_secs_f64(warmup_s);
        let end = warm_end + std::time::Duration::from_secs_f64(seconds);
        let traced_from =
            trace.then(|| warm_end + std::time::Duration::from_secs_f64(seconds / 2.0));
        Window {
            epoch,
            warm_end,
            traced_from,
            end,
        }
    }

    /// Length of the untraced part.
    pub fn untraced_s(&self) -> f64 {
        self.traced_from
            .unwrap_or(self.end)
            .duration_since(self.warm_end)
            .as_secs_f64()
    }

    /// When the untraced (0) or traced (1) part starts.
    fn phase_start(&self, phase: usize) -> Instant {
        match (phase, self.traced_from) {
            (1, Some(t)) => t,
            _ => self.warm_end,
        }
    }

    /// `(measuring, traced)` at `now`.
    pub fn state(&self, now: Instant) -> (bool, bool) {
        (
            now >= self.warm_end,
            self.traced_from.is_some_and(|t| now >= t),
        )
    }
}

/// One served run: both clients' records, the `METRICS` counters
/// around them, and whether the tenant counters reconciled.
pub struct PairRun {
    pub runs: Vec<ClientRun>,
    pub before: Counters,
    pub after: Counters,
    pub window: Window,
    pub reconciled: Result<(), String>,
}

/// Serve `db`, drive it with two closed-loop clients (`http` over HTTP
/// keep-alive as client 0, `framed` over the framed wire as client 1)
/// for the window, then stop the server. With a replay engine the
/// second half of the window is traced.
pub fn run_pair(
    db: Ssdm,
    http: &mut (dyn Plan + Send),
    framed: &mut (dyn Plan + Send),
    warmup_s: f64,
    seconds: f64,
    replay: Option<&Mutex<Ssdm>>,
) -> PairRun {
    let served = serve(db);
    let before = served.counters();
    let (wire0, wire1) = (Wire::http(&served), Wire::framed(&served));
    let window = Window::new(warmup_s, seconds, replay.is_some());
    let runs = std::thread::scope(|s| {
        let h0 = s.spawn(|| run_client(0, wire0, http, window, replay));
        let h1 = s.spawn(|| run_client(1, wire1, framed, window, replay));
        vec![h0.join().expect("client 0"), h1.join().expect("client 1")]
    });
    let after = served.counters();
    served.stop();
    PairRun {
        runs,
        reconciled: tenants_reconcile(&after),
        before,
        after,
        window,
    }
}

/// Closed loop: send, wait, check, repeat until the window ends. With
/// a replay engine, every measured request is also replayed through
/// the layer chain (the traced run).
pub fn run_client(
    id: u64,
    mut wire: Wire,
    plan: &mut dyn Plan,
    window: Window,
    replay: Option<&Mutex<Ssdm>>,
) -> ClientRun {
    let mut run = ClientRun::new(window.epoch);
    let mut n = 0u64;
    loop {
        let now = Instant::now();
        if now >= window.end {
            break;
        }
        let (measuring, traced) = window.state(now);
        let traced = traced && replay.is_some();
        let step = plan.next(n);
        n += 1;
        match step {
            Step::Checkpoint => {
                let t0 = Instant::now();
                let reply = wire.control("CHECKPOINT");
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                // Every operation is checked and counted, warm-up
                // included; only measured ones enter the figures.
                run.attempted += 1;
                match reply {
                    Ok(r) if r == "checkpoint complete" => {
                        if measuring {
                            run.checkpoints.push(ms);
                        }
                    }
                    Ok(r) => run.fail(format!("CHECKPOINT answered {r:?}"), true),
                    Err(e) => run.fail(format!("CHECKPOINT: {e}"), false),
                }
            }
            Step::Op(op, text) => {
                let update = op.is_update();
                let bytes = wire.request_bytes(&text, update);
                let req = (id << 40) | n;
                let span = traced.then(|| run.log.begin(wire.span_name(), req, None));
                let t0 = Instant::now();
                let reply = wire.call(&text, update, bytes.as_deref());
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if let Some(span) = span {
                    run.log.end(span);
                }
                let verdict = match &reply {
                    Ok(r) => plan.check(&op, r).map_err(|e| (e, true)),
                    Err(e) => Err((e.clone(), false)),
                };
                run.attempted += 1;
                match verdict {
                    Ok(()) if !measuring => {}
                    Ok(()) if update => run.updates.push(ms),
                    Ok(()) => {
                        let done = Instant::now();
                        run.reads.push(ms);
                        run.phases.record(traced, done);
                        if !traced {
                            run.timed_reads
                                .push((done.duration_since(window.warm_end).as_secs_f64(), ms));
                        }
                    }
                    Err((why, mismatch)) => run.fail(format!("{}: {why}", op.name()), mismatch),
                }
                if let (Some(engine), true) = (replay, traced) {
                    let mut engine = engine.lock().expect("replay engine");
                    run.replayed += 1;
                    if let Err(e) = trace::replay(
                        &mut run.log,
                        req,
                        None,
                        bytes.as_deref(),
                        &text,
                        &mut engine,
                    ) {
                        run.fail(format!("replay of {}: {e}", op.name()), false);
                    }
                }
            }
        }
    }
    run
}

//! The metric sets every workload reports, and the result line.

use crate::served::Counters;
use crate::trace::Layers;

/// End-to-end metrics: what a user of the system sees.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub read_qps: f64,
    pub read_p50_ms: f64,
    pub read_tail_ms: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("read_qps", self.read_qps, "1/s"),
            ("read_p50_ms", self.read_p50_ms, "ms"),
            ("read_tail_ms", self.read_tail_ms, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MiB"),
        ]
    }
}

/// Per-layer metrics, from the traced run. Every workload reports all
/// of them; a layer its main loop does not use is measured by a probe
/// on the workload's own data (see `probes.rs`).
#[derive(Debug, Default, Clone)]
pub struct PerLayer {
    pub http_parse_us: f64,
    pub http_route_us: f64,
    pub http_serialize_us: f64,
    pub http_response_bytes: f64,
    pub http_server_us: f64,
    pub http_front_us: f64,
    pub server_front_us: f64,
    pub tenant_admitted: f64,
    pub tenant_rejected: f64,
    pub core_parse_us: f64,
    pub core_plan_us: f64,
    pub core_exec_us: f64,
    pub core_rows_per_result: f64,
    pub core_query_us: f64,
    pub apr_statements_per_query: f64,
    pub apr_chunks_per_query: f64,
    pub apr_bytes_per_query: f64,
    pub apr_fetch_us_per_query: f64,
    pub apr_skip_ratio: f64,
    pub cache_hit_rate: f64,
    pub cache_evictions_per_query: f64,
    pub codec_decode_gbps: f64,
    pub codec_encode_gbps: f64,
    pub codec_ratio: f64,
    pub relstore_range_us: f64,
    pub kernel_elements_per_s: f64,
    pub compute_elements_per_query: f64,
    pub wal_fsyncs_per_update: f64,
    pub wal_fsync_us: f64,
    pub wal_bytes_per_update: f64,
    pub durability_checkpoint_ms: f64,
    pub durability_replay_records_per_s: f64,
    pub rdf_insert_triples_per_s: f64,
    pub setup_externalize_s: f64,
    pub trace_overhead: f64,
    pub trace_coverage: f64,
}

impl PerLayer {
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("http.parse_us", self.http_parse_us, "us"),
            ("http.route_us", self.http_route_us, "us"),
            ("http.serialize_us", self.http_serialize_us, "us"),
            ("http.response_bytes", self.http_response_bytes, "bytes"),
            ("http.server_us", self.http_server_us, "us"),
            ("http.front_us", self.http_front_us, "us"),
            ("server.front_us", self.server_front_us, "us"),
            ("tenant.admitted", self.tenant_admitted, "count"),
            ("tenant.rejected", self.tenant_rejected, "count"),
            ("core.parse_us", self.core_parse_us, "us"),
            ("core.plan_us", self.core_plan_us, "us"),
            ("core.exec_us", self.core_exec_us, "us"),
            ("core.rows_per_result", self.core_rows_per_result, "ratio"),
            ("core.query_us", self.core_query_us, "us"),
            (
                "apr.statements_per_query",
                self.apr_statements_per_query,
                "count",
            ),
            ("apr.chunks_per_query", self.apr_chunks_per_query, "count"),
            ("apr.bytes_per_query", self.apr_bytes_per_query, "bytes"),
            ("apr.fetch_us_per_query", self.apr_fetch_us_per_query, "us"),
            ("apr.skip_ratio", self.apr_skip_ratio, "ratio"),
            ("cache.hit_rate", self.cache_hit_rate, "ratio"),
            (
                "cache.evictions_per_query",
                self.cache_evictions_per_query,
                "count",
            ),
            ("codec.decode_gbps", self.codec_decode_gbps, "GB/s"),
            ("codec.encode_gbps", self.codec_encode_gbps, "GB/s"),
            ("codec.ratio", self.codec_ratio, "ratio"),
            ("relstore.range_us", self.relstore_range_us, "us"),
            ("kernel.elements_per_s", self.kernel_elements_per_s, "1/s"),
            (
                "compute.elements_per_query",
                self.compute_elements_per_query,
                "count",
            ),
            ("wal.fsyncs_per_update", self.wal_fsyncs_per_update, "count"),
            ("wal.fsync_us", self.wal_fsync_us, "us"),
            ("wal.bytes_per_update", self.wal_bytes_per_update, "bytes"),
            (
                "durability.checkpoint_ms",
                self.durability_checkpoint_ms,
                "ms",
            ),
            (
                "durability.replay_records_per_s",
                self.durability_replay_records_per_s,
                "1/s",
            ),
            (
                "rdf.insert_triples_per_s",
                self.rdf_insert_triples_per_s,
                "1/s",
            ),
            ("setup.externalize_s", self.setup_externalize_s, "s"),
            ("trace.overhead", self.trace_overhead, "ratio"),
            ("trace.coverage", self.trace_coverage, "ratio"),
        ]
    }

    /// Layer times from the replayed spans.
    pub fn fill_spans(&mut self, layers: &Layers) {
        self.http_parse_us = layers.mean("http.parse");
        self.http_route_us = layers.mean("http.route");
        self.http_serialize_us = layers.mean("http.serialize");
        self.http_response_bytes = layers.mean_response_bytes();
        self.core_parse_us = layers.mean("core.parse");
        self.core_plan_us = layers.mean("core.plan");
        self.core_exec_us = layers.mean("core.exec");
        self.core_query_us = layers.query_p50(|_| true);
    }

    /// Storage and compute ratios from counter deltas. `queries` is the
    /// number of statements the engine behind `before`/`after` ran;
    /// `process_queries` the number every engine of the process ran
    /// (process-wide series: chunk fetch time, compute elements).
    pub fn fill_counters(
        &mut self,
        before: &Counters,
        after: &Counters,
        queries: f64,
        process_queries: f64,
    ) {
        let d = |name: &str| after.since(before, name);
        let q = queries.max(1.0);
        self.apr_statements_per_query = d("ssdm_apr_statements_total") / q;
        self.apr_chunks_per_query = d("ssdm_apr_chunks_total") / q;
        self.apr_bytes_per_query = d("ssdm_apr_bytes_total") / q;
        let (skipped, decoded) = (
            d("ssdm_apr_chunks_skipped_total"),
            d("ssdm_apr_chunks_decoded_total"),
        );
        self.apr_skip_ratio = ratio(skipped, skipped + decoded);
        let (hits, misses) = (d("ssdm_cache_hits_total"), d("ssdm_cache_misses_total"));
        self.cache_hit_rate = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            1.0
        };
        self.cache_evictions_per_query = d("ssdm_cache_evictions_total") / q;
        let pq = process_queries.max(1.0);
        self.apr_fetch_us_per_query = d("ssdm_chunk_fetch_seconds_sum") * 1e6 / pq;
        self.compute_elements_per_query = d("ssdm_compute_elements_total") / pq;
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: EndToEnd,
    pub per_layer: PerLayer,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Print the notes, then the result line.
    pub fn print(&self, trace: bool) {
        for n in &self.notes {
            println!("perfbench: {n}");
        }
        let metrics = if trace {
            self.per_layer.metrics()
        } else {
            self.end_to_end.metrics()
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(",")
        );
    }
}

//! Array-proxy resolution (APR) and the retrieval strategies.
//!
//! APR is the physical-algebra operator SSDM inserts where a query needs
//! the *elements* behind an array proxy (thesis §6.1.1). It computes the
//! linear addresses the proxy's view touches, maps them to chunk ids,
//! fetches those chunks from the back-end with a [`RetrievalStrategy`],
//! and assembles a resident [`NumArray`]. The aggregate variant (AAPR)
//! folds elements chunk-by-chunk without materializing the whole view —
//! the "costly array processing, e.g. filtering and aggregation, is thus
//! performed on the server" behaviour of the abstract.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use ssdm_array::{kernel, AggregateOp, ArrayData, LinearRuns, Num, NumArray, NumericType};

use crate::chunks::Chunking;
use crate::codec::{self, ChunkSummary, CodecPolicy, ValuePredicate, ZoneMap};
use crate::meta::{ArrayMeta, ArrayProxy};
use crate::parallel::ParallelConfig;
use crate::resilient::ResilienceStats;
use crate::spd::{self, FetchOp, SpdOptions};
use crate::store::{ChunkStore, IoStats, StorageError};
use crate::Result;

/// How the APR turns a set of needed chunk ids into back-end statements
/// (the strategies compared in thesis §6.3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrievalStrategy {
    /// One statement per chunk — the naive baseline whose cost is
    /// dominated by per-statement round trips.
    Single,
    /// Buffer up to `buffer_size` ids and issue one `IN`-list statement
    /// per batch (§6.2.4).
    BufferedIn { buffer_size: usize },
    /// Run the Sequence Pattern Detector over the id sequence and issue
    /// range statements for regular patterns (§6.2.5).
    SpdRange { options: SpdOptions },
    /// Fetch the whole array with one range statement regardless of the
    /// view — the degenerate strategy, optimal only for dense views.
    WholeArray,
}

impl RetrievalStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            RetrievalStrategy::Single => "SINGLE",
            RetrievalStrategy::BufferedIn { .. } => "BUFFERED-IN",
            RetrievalStrategy::SpdRange { .. } => "SPD-RANGE",
            RetrievalStrategy::WholeArray => "WHOLE-ARRAY",
        }
    }
}

/// Per-resolution statistics (deltas of the back-end counters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AprStats {
    pub statements: u64,
    pub chunks_fetched: u64,
    pub bytes_fetched: u64,
    pub elements_resolved: u64,
    /// Batched statements (`IN`-list or range) that failed and were
    /// served by per-chunk `Single` retrieval instead of aborting the
    /// query (graceful degradation).
    pub fallbacks: u64,
    /// Retries performed by a [`crate::ResilientChunkStore`] in the
    /// back-end stack during this resolution (zero for plain stacks).
    pub retries: u64,
    /// Checksum violations that were healed by a successful re-read
    /// during this resolution.
    pub corruption_repaired: u64,
    /// Chunks the zone map proved irrelevant for a filtered resolution:
    /// they were dropped from the fetch plan before any back-end
    /// statement was issued.
    pub chunks_skipped: u64,
    /// Fetched `SCC1` frames that were decompressed during this
    /// resolution (zero for raw-stored arrays).
    pub chunks_decoded: u64,
    /// Uncompressed bytes produced by those decodes.
    pub bytes_decoded: u64,
}

impl AprStats {
    /// True when this resolution needed any resilience machinery —
    /// useful to flag degraded-but-successful queries in logs.
    pub fn degraded(&self) -> bool {
        self.fallbacks > 0 || self.retries > 0 || self.corruption_repaired > 0
    }

    /// Field-wise accumulation (used for the store-lifetime totals).
    fn accumulate(&mut self, delta: &AprStats) {
        self.statements += delta.statements;
        self.chunks_fetched += delta.chunks_fetched;
        self.bytes_fetched += delta.bytes_fetched;
        self.elements_resolved += delta.elements_resolved;
        self.fallbacks += delta.fallbacks;
        self.retries += delta.retries;
        self.corruption_repaired += delta.corruption_repaired;
        self.chunks_skipped += delta.chunks_skipped;
        self.chunks_decoded += delta.chunks_decoded;
        self.bytes_decoded += delta.bytes_decoded;
    }
}

/// Process-wide count of chunks skipped via zone-map pruning.
fn obs_chunks_skipped() -> &'static Arc<ssdm_obs::Counter> {
    static C: OnceLock<Arc<ssdm_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| ssdm_obs::recorder().counter("ssdm_chunks_skipped"))
}

/// Process-wide count of `SCC1` frames decompressed.
fn obs_chunks_decoded() -> &'static Arc<ssdm_obs::Counter> {
    static C: OnceLock<Arc<ssdm_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| ssdm_obs::recorder().counter("ssdm_chunks_decoded"))
}

/// What one resolution tallied besides the back-end counters: batched
/// statements that fell back to per-chunk reads, and the chunk frames
/// decompressed with the uncompressed bytes they produced.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ExecTally {
    pub(crate) fallbacks: u64,
    pub(crate) chunks_decoded: u64,
    pub(crate) bytes_decoded: u64,
}

impl ExecTally {
    pub(crate) fn note_decode(&mut self, decoded_bytes: u64) {
        if decoded_bytes > 0 {
            self.chunks_decoded += 1;
            self.bytes_decoded += decoded_bytes;
        }
    }
}

/// Back-end counters at the start of one resolution: the stats bracket
/// every resolve closes with `ArrayStore::finish_stats`.
pub(crate) struct StatsMark {
    io: IoStats,
    res: ResilienceStats,
}

/// Decode a fetched payload back to raw little-endian elements when the
/// owning array stores `SCC1` frames; raw-stored arrays pass through
/// untouched. Returns the raw payload and the decoded byte count (zero
/// when no decode happened). Malformed frames surface as the same typed
/// [`StorageError::Corrupt`] the CRC layer raises, so resilience and
/// retry accounting treat codec damage exactly like frame damage.
pub(crate) fn decode_payload(
    encoded: bool,
    payload: Vec<u8>,
    array_id: u64,
    chunk_id: u64,
) -> Result<(Vec<u8>, u64)> {
    if !encoded {
        return Ok((payload, 0));
    }
    match codec::decode_chunk(&payload) {
        Ok(raw) => {
            let bytes = raw.len() as u64;
            if ssdm_obs::recorder().enabled() {
                obs_chunks_decoded().add(1);
            }
            Ok((raw, bytes))
        }
        Err(e) => Err(StorageError::Corrupt {
            array_id,
            chunk_id,
            detail: e.to_string(),
        }),
    }
}

/// Process-wide chunk-fetch latency histogram. Every fetch op the
/// pipeline in [`crate::parallel`] executes times its back-end
/// statement into it.
pub(crate) fn obs_chunk_fetch_hist() -> &'static Arc<ssdm_obs::Histogram> {
    static H: OnceLock<Arc<ssdm_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| ssdm_obs::recorder().histogram("ssdm_chunk_fetch_seconds"))
}

/// The array catalog plus its chunk back-end: SSDM's handle on
/// externally stored arrays.
pub struct ArrayStore<S: ChunkStore> {
    backend: S,
    catalog: HashMap<u64, Arc<ArrayMeta>>,
    /// Chunk-summary catalog: one zone map per *stored* array (linked
    /// external arrays have none until one is restored from a
    /// snapshot), consulted by the filtered resolve paths to skip
    /// chunks before fetch.
    zone_maps: HashMap<u64, Arc<ZoneMap>>,
    codec: CodecPolicy,
    skip_enabled: bool,
    next_id: u64,
    last_stats: AprStats,
    cumulative: AprStats,
}

impl<S: ChunkStore> ArrayStore<S> {
    pub fn new(backend: S) -> Self {
        ArrayStore {
            backend,
            catalog: HashMap::new(),
            zone_maps: HashMap::new(),
            codec: CodecPolicy::from_env(),
            skip_enabled: true,
            next_id: 1,
            last_stats: AprStats::default(),
            cumulative: AprStats::default(),
        }
    }

    /// The codec policy newly stored arrays are encoded with.
    pub fn codec(&self) -> CodecPolicy {
        self.codec
    }

    pub fn set_codec(&mut self, codec: CodecPolicy) {
        self.codec = codec;
    }

    /// Whether filtered resolutions consult zone maps to skip chunks.
    /// On by default; turning it off never changes results (skipping is
    /// strictly conservative), only how many chunks are fetched.
    pub fn skip_enabled(&self) -> bool {
        self.skip_enabled
    }

    pub fn set_skip_enabled(&mut self, enabled: bool) {
        self.skip_enabled = enabled;
    }

    /// The zone map of a stored array, if one exists.
    pub fn zone_map(&self, array_id: u64) -> Option<&Arc<ZoneMap>> {
        self.zone_maps.get(&array_id)
    }

    /// Install a zone map for an array (snapshot restore of linked
    /// external arrays).
    pub fn set_zone_map(&mut self, array_id: u64, zone_map: ZoneMap) {
        self.zone_maps.insert(array_id, Arc::new(zone_map));
    }

    /// Every zone map in the store, unordered. The planner walks these
    /// to cost `array_contains` / `array_*_range` pushdown by expected
    /// matching-chunk fraction.
    pub fn zone_maps(&self) -> impl Iterator<Item = &Arc<ZoneMap>> {
        self.zone_maps.values()
    }

    pub fn backend(&self) -> &S {
        &self.backend
    }

    pub fn backend_mut(&mut self) -> &mut S {
        &mut self.backend
    }

    /// Statistics of the most recent resolve call.
    pub fn last_stats(&self) -> AprStats {
        self.last_stats
    }

    /// Totals accumulated over every resolve this store has performed.
    /// Reported alongside [`last_stats`](Self::last_stats) under an
    /// explicit `cumulative` scope so the two can't be conflated.
    pub fn cumulative_stats(&self) -> AprStats {
        self.cumulative
    }

    /// Linearize and store an array in chunks of `chunk_bytes`,
    /// returning a whole-array proxy.
    pub fn store_array(&mut self, array: &NumArray, chunk_bytes: usize) -> Result<ArrayProxy> {
        let array_id = self.next_id;
        self.next_id += 1;
        let materialized;
        let dense = if array.view().is_contiguous() && array.view().offset() == 0 {
            array
        } else {
            materialized = array.materialize();
            &materialized
        };
        let shape = dense.shape();
        let chunking = Chunking::new(chunk_bytes, dense.element_count());
        let ty = dense.numeric_type();
        self.backend.begin_array(array_id, chunk_bytes)?;
        let mut summaries: Vec<ChunkSummary> = Vec::with_capacity(chunking.chunk_count() as usize);
        for c in 0..chunking.chunk_count() {
            let (start, end) = chunking.chunk_span(c);
            let raw = dense.data().serialize_range(start, end);
            let (frame, summary) = codec::encode_chunk(&raw, ty, self.codec);
            summaries.push(summary);
            self.backend.put_chunk(array_id, c, &frame)?;
        }
        self.zone_maps
            .insert(array_id, Arc::new(ZoneMap { ty, summaries }));
        let meta = Arc::new(ArrayMeta {
            array_id,
            numeric_type: ty,
            shape,
            chunking,
            encoded: true,
        });
        self.catalog.insert(array_id, Arc::clone(&meta));
        Ok(ArrayProxy::whole(meta))
    }

    /// A whole-array proxy for a cataloged array.
    pub fn proxy(&self, array_id: u64) -> Result<ArrayProxy> {
        self.catalog
            .get(&array_id)
            .map(|m| ArrayProxy::whole(Arc::clone(m)))
            .ok_or(StorageError::MissingArray(array_id))
    }

    /// Register an array that already lives in the back-end (the
    /// *mediator scenario*, thesis §6: linking external arrays into an
    /// RDF graph without loading them).
    pub fn link_external(&mut self, meta: ArrayMeta) -> ArrayProxy {
        let id = meta.array_id;
        self.next_id = self.next_id.max(id + 1);
        let meta = Arc::new(meta);
        self.catalog.insert(id, Arc::clone(&meta));
        ArrayProxy::whole(meta)
    }

    /// Iterate the catalog entries (for snapshots and inspection).
    pub fn catalog(&self) -> impl Iterator<Item = &Arc<ArrayMeta>> {
        self.catalog.values()
    }

    /// Drop an array from the catalog and the back-end.
    pub fn delete_array(&mut self, array_id: u64) -> Result<()> {
        let meta = self
            .catalog
            .remove(&array_id)
            .ok_or(StorageError::MissingArray(array_id))?;
        self.zone_maps.remove(&array_id);
        self.backend
            .delete_array(array_id, meta.chunking.chunk_count())
    }

    /// Resolve a proxy to a resident array (the APR operator).
    ///
    /// The fetch plan runs on the APR executor with `config.workers`
    /// (see [`crate::parallel`]); the result is bit-identical and
    /// [`last_stats`](Self::last_stats) exact for every worker count,
    /// because the same statements execute and the elements are
    /// gathered in view order either way.
    pub fn resolve(
        &mut self,
        proxy: &ArrayProxy,
        strategy: RetrievalStrategy,
        config: ParallelConfig,
    ) -> Result<NumArray> {
        let mark = self.mark();
        let meta = proxy.meta();
        let addresses = proxy.view().addresses();
        let needed = needed_chunks(proxy, &meta.chunking);
        let (chunks, tally) = self.fetch(meta, &needed, strategy, config)?;
        let data = gather(meta, &addresses, |c| chunks.get(&c).map(Vec::as_slice))?;
        self.finish_stats(mark, tally, addresses.len(), 0);
        Ok(NumArray::from_data(data, &proxy.shape())?)
    }

    /// Streamed aggregate over a proxy (the AAPR operator): each fetched
    /// chunk's needed elements are folded into a *per-chunk partial* by
    /// the typed kernels (`ssdm_array::kernel`) inside the worker that
    /// fetched it, and the payload is dropped without central assembly,
    /// so peak memory is one op's chunks regardless of the view size.
    /// Partials combine in plan order, so the result is bit-identical
    /// for every worker count and strategy (`f64` sums follow the
    /// documented pairwise order; see DESIGN.md).
    pub fn resolve_aggregate(
        &mut self,
        proxy: &ArrayProxy,
        op: AggregateOp,
        strategy: RetrievalStrategy,
        config: ParallelConfig,
    ) -> Result<Num> {
        self.aggregate(proxy, None, op, strategy, config)
    }

    /// Streamed aggregate over the elements of a proxy's view that
    /// satisfy `pred` (filtered AAPR). Non-qualifying chunks are
    /// skipped before fetch; chunks none of whose addressed elements
    /// match contribute *no* fold partial, which is what makes the
    /// result bit-identical with skipping on or off (including `f64`
    /// sums, whose fold order is structural). With no matching elements
    /// the result mirrors the empty-view semantics: `Count`/`Sum` are
    /// 0, `Prod` is 1, the rest error.
    pub fn resolve_aggregate_filtered(
        &mut self,
        proxy: &ArrayProxy,
        pred: &ValuePredicate,
        op: AggregateOp,
        strategy: RetrievalStrategy,
        config: ParallelConfig,
    ) -> Result<Num> {
        self.aggregate(proxy, Some(pred), op, strategy, config)
    }

    /// Resolve the elements of a proxy's view that satisfy `pred`, in
    /// view order (the APR analogue of a `FILTER` scan). Chunks whose
    /// summary proves no element can match are skipped before fetch;
    /// the returned values are identical with skipping on or off.
    pub fn resolve_filtered(
        &mut self,
        proxy: &ArrayProxy,
        pred: &ValuePredicate,
        strategy: RetrievalStrategy,
        config: ParallelConfig,
    ) -> Result<Vec<Num>> {
        let mark = self.mark();
        let meta = proxy.meta();
        let chunking = meta.chunking;
        let addresses = proxy.view().addresses();
        let mut by_chunk = group_by_chunk(proxy, &chunking);
        let skipped = self.prune_chunks(meta.array_id, &mut by_chunk, pred);
        let needed: Vec<u64> = by_chunk.keys().copied().collect();
        let (chunks, tally) = self.fetch(meta, &needed, strategy, config)?;
        let mut out = Vec::new();
        for &a in &addresses {
            let cid = chunking.chunk_of(a);
            if !by_chunk.contains_key(&cid) {
                continue; // skipped: provably no match at this address
            }
            let (start, _) = chunking.chunk_span(cid);
            let v = chunks
                .get(&cid)
                .and_then(|payload| decode_element(payload, a - start, meta.numeric_type))
                .ok_or(StorageError::MissingChunk {
                    array_id: meta.array_id,
                    chunk_id: cid,
                })?;
            if pred.matches(v) {
                out.push(v);
            }
        }
        self.finish_stats(mark, tally, out.len(), skipped);
        Ok(out)
    }

    /// Whether any element of the proxy's view satisfies `pred`
    /// (membership / `EXISTS`). Skips non-qualifying chunks via the
    /// zone map and stops claiming fetch ops after the first match.
    pub fn resolve_exists(
        &mut self,
        proxy: &ArrayProxy,
        pred: &ValuePredicate,
        strategy: RetrievalStrategy,
        config: ParallelConfig,
    ) -> Result<bool> {
        let mark = self.mark();
        let meta = proxy.meta();
        let mut by_chunk = group_by_chunk(proxy, &meta.chunking);
        let skipped = self.prune_chunks(meta.array_id, &mut by_chunk, pred);
        let needed: Vec<u64> = by_chunk.keys().copied().collect();
        let plan = make_plan(&needed, &meta.chunking, strategy);
        let examined = AtomicU64::new(0);
        let (hits, tally) = self.execute(meta, &plan, &needed, config, true, |cid, payload| {
            let (start, _) = meta.chunking.chunk_span(cid);
            let mut seen = 0;
            let mut found = false;
            for &a in &by_chunk[&cid] {
                let v = decode_element(&payload, a - start, meta.numeric_type).ok_or(
                    StorageError::MissingChunk {
                        array_id: meta.array_id,
                        chunk_id: cid,
                    },
                )?;
                seen += 1;
                if pred.matches(v) {
                    found = true;
                    break;
                }
            }
            examined.fetch_add(seen, Ordering::Relaxed);
            Ok(found.then_some(()))
        })?;
        let examined = examined.into_inner() as usize;
        self.finish_stats(mark, tally, examined, skipped);
        Ok(!hits.is_empty())
    }

    /// The streamed (filtered) aggregate behind
    /// [`resolve_aggregate`](Self::resolve_aggregate) and
    /// [`resolve_aggregate_filtered`](Self::resolve_aggregate_filtered):
    /// the fold sink on the APR executor.
    fn aggregate(
        &mut self,
        proxy: &ArrayProxy,
        pred: Option<&ValuePredicate>,
        op: AggregateOp,
        strategy: RetrievalStrategy,
        config: ParallelConfig,
    ) -> Result<Num> {
        let mark = self.mark();
        let meta = proxy.meta();
        let mut by_chunk = group_by_chunk(proxy, &meta.chunking);
        let skipped = match pred {
            Some(pred) => self.prune_chunks(meta.array_id, &mut by_chunk, pred),
            None => {
                // An unfiltered count or an empty view needs no I/O.
                let count: usize = by_chunk.values().map(Vec::len).sum();
                if count == 0 || op == AggregateOp::Count {
                    self.finish_stats(mark, ExecTally::default(), 0, 0);
                    return match count {
                        0 => empty_aggregate(op, "aggregate over empty array view"),
                        n => Ok(Num::Int(n as i64)),
                    };
                }
                0
            }
        };
        let needed: Vec<u64> = by_chunk.keys().copied().collect();
        let plan = make_plan(&needed, &meta.chunking, strategy);
        let (parts, tally) =
            self.execute(meta, &plan, &needed, config, false, |cid, payload| {
                chunk_partial(&payload, &by_chunk[&cid], meta, cid, op, pred)
            })?;
        if self.workers(config) > 1 {
            kernel::note_parallel_folds(parts.len() as u64);
        }
        let mut acc: Option<Num> = None;
        let mut n = 0u64;
        for (part, c) in parts {
            n += c;
            acc = Some(match acc {
                None => part,
                Some(prev) => fold(combine_op(op), prev, part)?,
            });
        }
        self.finish_stats(mark, tally, n as usize, skipped);
        match acc {
            None if pred.is_none() => Err(StorageError::Backend("no elements resolved".into())),
            None => empty_aggregate(op, "aggregate over empty filtered view"),
            Some(total) if op == AggregateOp::Avg => Ok(Num::Real(total.as_f64() / n as f64)),
            Some(total) => Ok(total),
        }
    }

    /// The gather sink: fetch the `needed` chunks of `meta`'s array and
    /// keep their decoded payloads by chunk id.
    fn fetch(
        &self,
        meta: &ArrayMeta,
        needed: &[u64],
        strategy: RetrievalStrategy,
        config: ParallelConfig,
    ) -> Result<(HashMap<u64, Vec<u8>>, ExecTally)> {
        let plan = make_plan(needed, &meta.chunking, strategy);
        let (rows, tally) = self.execute(meta, &plan, needed, config, false, |cid, raw| {
            Ok(Some((cid, raw)))
        })?;
        Ok((rows.into_iter().collect(), tally))
    }

    /// Worker count the executor runs with: `config.workers`, clamped
    /// to one when the back-end does not tolerate concurrent reads.
    fn workers(&self, config: ParallelConfig) -> usize {
        if self.backend.capabilities().supports_parallel {
            config.workers.max(1)
        } else {
            1
        }
    }

    /// The one APR executor. Runs `plan` on [`crate::parallel::run_plan`]
    /// with [`workers`](Self::workers) threads — one worker *is* the
    /// sequential path — and, inside the worker that fetched it, decodes
    /// each chunk the view `needed` (rows a covering range overfetched
    /// are dropped undecoded) and hands it to `sink`. Sink outputs
    /// return in plan order and the earliest failing op's error wins,
    /// so every worker count yields the same answer. With `first_only`
    /// the run ends at the first output: later ops are not claimed.
    fn execute<T: Send>(
        &self,
        meta: &ArrayMeta,
        plan: &[FetchOp],
        needed: &[u64],
        config: ParallelConfig,
        first_only: bool,
        sink: impl Fn(u64, Vec<u8>) -> Result<Option<T>> + Sync,
    ) -> Result<(Vec<T>, ExecTally)> {
        let (array_id, encoded) = (meta.array_id, meta.encoded);
        // Ops at or past `limit` are not claimed (existence scans). A
        // skip hint only: results travel through `run_plan`'s slots.
        let limit = AtomicUsize::new(usize::MAX);
        let dec_chunks = AtomicU64::new(0);
        let dec_bytes = AtomicU64::new(0);
        let (per_op, fallbacks) = crate::parallel::run_plan(
            &self.backend,
            array_id,
            plan,
            needed,
            self.workers(config),
            &limit,
            |i, rows| {
                let mut out = Vec::new();
                for (cid, payload) in rows {
                    if i >= limit.load(Ordering::Relaxed) {
                        break; // a plan-earlier op already answered
                    }
                    if needed.binary_search(&cid).is_err() {
                        continue; // overfetched by a covering range
                    }
                    let (raw, bytes) = decode_payload(encoded, payload, array_id, cid)?;
                    if bytes > 0 {
                        dec_chunks.fetch_add(1, Ordering::Relaxed);
                        dec_bytes.fetch_add(bytes, Ordering::Relaxed);
                    }
                    if let Some(v) = sink(cid, raw)? {
                        out.push(v);
                        if first_only {
                            limit.fetch_min(i + 1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                Ok(out)
            },
        );
        let mut out = Vec::new();
        for rows in per_op {
            let rows = rows?;
            let done = first_only && !rows.is_empty();
            out.extend(rows);
            if done {
                break;
            }
        }
        let tally = ExecTally {
            fallbacks,
            chunks_decoded: dec_chunks.into_inner(),
            bytes_decoded: dec_bytes.into_inner(),
        };
        Ok((out, tally))
    }

    /// Open the stats bracket of one resolution.
    pub(crate) fn mark(&self) -> StatsMark {
        StatsMark {
            io: self.backend.io_stats(),
            res: self.backend.resilience_stats(),
        }
    }

    /// Close the stats bracket: [`last_stats`](Self::last_stats) becomes
    /// the back-end counter movement since `mark` plus what the
    /// resolution itself tallied, and is added to the cumulative totals.
    pub(crate) fn finish_stats(
        &mut self,
        mark: StatsMark,
        tally: ExecTally,
        elements: usize,
        skipped: u64,
    ) {
        let after = self.backend.io_stats();
        let res = self.backend.resilience_stats().since(&mark.res);
        self.last_stats = AprStats {
            statements: after.statements - mark.io.statements,
            chunks_fetched: after.chunks_returned - mark.io.chunks_returned,
            bytes_fetched: after.bytes_returned - mark.io.bytes_returned,
            elements_resolved: elements as u64,
            fallbacks: tally.fallbacks,
            retries: res.retries,
            corruption_repaired: res.corruption_repaired,
            chunks_skipped: skipped,
            chunks_decoded: tally.chunks_decoded,
            bytes_decoded: tally.bytes_decoded,
        };
        self.cumulative.accumulate(&self.last_stats);
    }

    /// Drop the chunks of `by_chunk` whose zone-map summary proves they
    /// cannot hold a match for `pred` — *before* the fetch plan is
    /// built, so range plans shrink and skipped chunks never reach the
    /// back-end. Returns the number of chunks skipped. No-ops (and
    /// stays correct) when skipping is disabled or the array has no
    /// zone map.
    fn prune_chunks(
        &self,
        array_id: u64,
        by_chunk: &mut BTreeMap<u64, Vec<usize>>,
        pred: &ValuePredicate,
    ) -> u64 {
        if !self.skip_enabled {
            return 0;
        }
        let Some(zm) = self.zone_maps.get(&array_id) else {
            return 0;
        };
        let before = by_chunk.len();
        by_chunk.retain(|cid, _| zm.may_match(*cid, pred));
        let skipped = (before - by_chunk.len()) as u64;
        if skipped > 0 && ssdm_obs::recorder().enabled() {
            obs_chunks_skipped().add(skipped);
        }
        skipped
    }
}

/// Needed chunk ids of a proxy's view, ascending.
fn needed_chunks(proxy: &ArrayProxy, chunking: &Chunking) -> Vec<u64> {
    let runs = LinearRuns::of_view(proxy.view());
    let mut set = BTreeSet::new();
    for run in runs.runs() {
        set.extend(chunking.chunks_for_run(run));
    }
    set.into_iter().collect()
}

/// A proxy's view addresses grouped by chunk, chunks ascending, each
/// chunk's addresses in view order.
fn group_by_chunk(proxy: &ArrayProxy, chunking: &Chunking) -> BTreeMap<u64, Vec<usize>> {
    let mut by_chunk: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    proxy.view().for_each_address(|a| {
        by_chunk.entry(chunking.chunk_of(a)).or_default().push(a);
    });
    by_chunk
}

/// Build the statement plan for a strategy.
fn make_plan(needed: &[u64], chunking: &Chunking, strategy: RetrievalStrategy) -> Vec<FetchOp> {
    match strategy {
        RetrievalStrategy::Single => needed.iter().map(|&c| FetchOp::In(vec![c])).collect(),
        RetrievalStrategy::BufferedIn { buffer_size } => needed
            .chunks(buffer_size.max(1))
            .map(|b| FetchOp::In(b.to_vec()))
            .collect(),
        RetrievalStrategy::SpdRange { options } => spd::plan(needed, options),
        RetrievalStrategy::WholeArray => {
            if chunking.chunk_count() == 0 {
                Vec::new()
            } else {
                vec![FetchOp::Range {
                    lo: 0,
                    hi: chunking.chunk_count() - 1,
                }]
            }
        }
    }
}

/// Fold one decoded chunk's addressed elements — only those satisfying
/// `pred`, when given — into a partial aggregate with the typed kernels
/// (`ssdm_array::kernel`). Returns the partial and the number of
/// elements it covers, or `None` when no addressed element matches: the
/// chunk then contributes nothing to the combine, exactly as if the
/// zone map had skipped it, which keeps filtered aggregates
/// bit-identical with skipping on or off. `Count` partials are element
/// counts; `Avg` partials are raw sums — the caller divides once by the
/// total count.
fn chunk_partial(
    payload: &[u8],
    addrs: &[usize],
    meta: &ArrayMeta,
    chunk_id: u64,
    op: AggregateOp,
    pred: Option<&ValuePredicate>,
) -> Result<Option<(Num, u64)>> {
    let (start, _) = meta.chunking.chunk_span(chunk_id);
    let missing = || StorageError::MissingChunk {
        array_id: meta.array_id,
        chunk_id,
    };
    let keep = |v: Num| pred.is_none_or(|p| p.matches(v));
    match meta.numeric_type {
        NumericType::Int => {
            let vals = words(payload, addrs, start, i64::from_le_bytes, |v| {
                keep(Num::Int(v))
            })
            .ok_or_else(missing)?;
            partial(vals.len(), op, || kernel::fold_i64(&vals, op))
        }
        NumericType::Real => {
            let vals = words(payload, addrs, start, f64::from_le_bytes, |v| {
                keep(Num::Real(v))
            })
            .ok_or_else(missing)?;
            partial(vals.len(), op, || kernel::fold_f64(&vals, op))
        }
    }
}

/// The elements at `addrs` of a chunk payload starting at element
/// `start` that satisfy `keep`; `None` when the payload is too short.
fn words<T: Copy>(
    payload: &[u8],
    addrs: &[usize],
    start: usize,
    word: fn([u8; 8]) -> T,
    keep: impl Fn(T) -> bool,
) -> Option<Vec<T>> {
    let mut vals = Vec::with_capacity(addrs.len());
    for &a in addrs {
        let off = (a - start) * 8;
        let v = word(payload.get(off..off + 8)?.try_into().expect("8 bytes"));
        if keep(v) {
            vals.push(v);
        }
    }
    Some(vals)
}

/// The partial of `n` matched elements: nothing when none matched, the
/// count for `Count`, otherwise `fold()`.
fn partial(
    n: usize,
    op: AggregateOp,
    fold: impl FnOnce() -> std::result::Result<Num, ssdm_array::ArrayError>,
) -> Result<Option<(Num, u64)>> {
    Ok(match (n, op) {
        (0, _) => None,
        (n, AggregateOp::Count) => Some((Num::Int(n as i64), n as u64)),
        (n, _) => Some((fold().map_err(StorageError::Array)?, n as u64)),
    })
}

/// The operator used to *combine* per-chunk partials of `op`: `Count`
/// partials are counts, so they add; everything else combines with the
/// aggregate itself (`Avg` partials are raw sums, divided once by the
/// caller).
fn combine_op(op: AggregateOp) -> AggregateOp {
    match op {
        AggregateOp::Count => AggregateOp::Sum,
        other => other,
    }
}

/// An aggregate over no elements: `Count`/`Sum` are 0, `Prod` is 1, the
/// rest fail with `what`.
fn empty_aggregate(op: AggregateOp, what: &str) -> Result<Num> {
    match op {
        AggregateOp::Count | AggregateOp::Sum => Ok(Num::Int(0)),
        AggregateOp::Prod => Ok(Num::Int(1)),
        _ => Err(StorageError::Backend(what.into())),
    }
}

/// Decode element `off` (in elements) of a chunk payload.
fn decode_element(payload: &[u8], off: usize, ty: NumericType) -> Option<Num> {
    let bytes = payload.get(off * 8..off * 8 + 8)?;
    Some(match ty {
        NumericType::Int => Num::Int(i64::from_le_bytes(bytes.try_into().unwrap())),
        NumericType::Real => Num::Real(f64::from_le_bytes(bytes.try_into().unwrap())),
    })
}

/// Gather the elements at `addresses` of `meta`'s array, in order,
/// straight into a typed buffer. `chunk` looks up a decoded chunk
/// payload by chunk id; a missing chunk or a short payload is a
/// [`StorageError::MissingChunk`].
pub(crate) fn gather<'a>(
    meta: &ArrayMeta,
    addresses: &[usize],
    chunk: impl Fn(u64) -> Option<&'a [u8]>,
) -> Result<ArrayData> {
    fn typed<'a, T>(
        meta: &ArrayMeta,
        addresses: &[usize],
        chunk: impl Fn(u64) -> Option<&'a [u8]>,
        word: fn([u8; 8]) -> T,
    ) -> Result<Vec<T>> {
        let chunking = meta.chunking;
        let mut out = Vec::with_capacity(addresses.len());
        // Consecutive addresses mostly share a chunk: keep the last one.
        let mut current: Option<(u64, usize, &[u8])> = None;
        for &a in addresses {
            let cid = chunking.chunk_of(a);
            let missing = StorageError::MissingChunk {
                array_id: meta.array_id,
                chunk_id: cid,
            };
            let (start, payload) = match current {
                Some((c, start, payload)) if c == cid => (start, payload),
                _ => {
                    let payload = chunk(cid).ok_or(missing)?;
                    let (start, _) = chunking.chunk_span(cid);
                    current = Some((cid, start, payload));
                    (start, payload)
                }
            };
            let off = (a - start) * 8;
            let bytes = payload
                .get(off..off + 8)
                .ok_or(StorageError::MissingChunk {
                    array_id: meta.array_id,
                    chunk_id: cid,
                })?;
            out.push(word(bytes.try_into().expect("8 bytes")));
        }
        Ok(out)
    }
    Ok(match meta.numeric_type {
        NumericType::Int => ArrayData::from_i64(typed(meta, addresses, chunk, i64::from_le_bytes)?),
        NumericType::Real => {
            ArrayData::from_f64(typed(meta, addresses, chunk, f64::from_le_bytes)?)
        }
    })
}

fn fold(op: AggregateOp, a: Num, b: Num) -> Result<Num> {
    let r = match op {
        AggregateOp::Sum | AggregateOp::Avg => a.checked_add(b),
        AggregateOp::Prod => a.checked_mul(b),
        AggregateOp::Min => Ok(a.min(b)),
        AggregateOp::Max => Ok(a.max(b)),
        AggregateOp::Count => unreachable!("count partials combine with Sum"),
    };
    r.map_err(StorageError::Array)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryChunkStore;
    use ssdm_array::Subscript;

    fn store_with_matrix(chunk_bytes: usize) -> (ArrayStore<MemoryChunkStore>, ArrayProxy) {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let m = NumArray::from_i64_shaped((0..400).collect(), &[20, 20]).unwrap();
        let proxy = store.store_array(&m, chunk_bytes).unwrap();
        (store, proxy)
    }

    #[test]
    fn whole_array_round_trip() {
        let (mut store, proxy) = store_with_matrix(64);
        let back = store
            .resolve(
                &proxy,
                RetrievalStrategy::WholeArray,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(back.shape(), vec![20, 20]);
        assert_eq!(back.get(&[19, 19]).unwrap().as_i64(), 399);
        assert_eq!(store.last_stats().statements, 1);
    }

    #[test]
    fn strategies_agree_on_content() {
        let (mut store, proxy) = store_with_matrix(64);
        let col = proxy.subscript(1, 7).unwrap();
        let strategies = [
            RetrievalStrategy::Single,
            RetrievalStrategy::BufferedIn { buffer_size: 4 },
            RetrievalStrategy::SpdRange {
                options: SpdOptions::default(),
            },
            RetrievalStrategy::WholeArray,
        ];
        let expected: Vec<i64> = (0..20).map(|r| r * 20 + 7).collect();
        for s in strategies {
            let a = store
                .resolve(&col, s, crate::ParallelConfig::SEQUENTIAL)
                .unwrap();
            let got: Vec<i64> = a.elements().iter().map(|n| n.as_i64()).collect();
            assert_eq!(got, expected, "strategy {}", s.name());
        }
    }

    #[test]
    fn statement_counts_differ_by_strategy() {
        let (mut store, proxy) = store_with_matrix(64); // 8 elems/chunk, 50 chunks
        let col = proxy.subscript(1, 0).unwrap(); // touches 20 distinct rows
        store
            .resolve(
                &col,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        let single = store.last_stats();
        store
            .resolve(
                &col,
                RetrievalStrategy::BufferedIn { buffer_size: 8 },
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        let buffered = store.last_stats();
        store
            .resolve(
                &col,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        let spd = store.last_stats();
        assert!(single.statements > buffered.statements);
        assert!(buffered.statements >= spd.statements);
        assert_eq!(single.chunks_fetched, buffered.chunks_fetched);
    }

    #[test]
    fn spd_overfetch_is_filtered_out() {
        let (mut store, proxy) = store_with_matrix(8); // 1 element per chunk
                                                       // Every second element of row 0: chunks 0,2,4,...,18 -> one
                                                       // covering range 0..=18 fetches 19 chunks for 10 elements.
        let row = proxy.subscript(0, 0).unwrap();
        let every2 = row.slice(0, 0, 2, 18).unwrap();
        let a = store
            .resolve(
                &every2,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        let got: Vec<i64> = a.elements().iter().map(|n| n.as_i64()).collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
        let st = store.last_stats();
        assert_eq!(st.statements, 1);
        assert_eq!(st.chunks_fetched, 19);
        assert_eq!(st.elements_resolved, 10);
    }

    #[test]
    fn single_element_access() {
        let (mut store, proxy) = store_with_matrix(64);
        let cell = proxy
            .dereference(&[Subscript::Index(3), Subscript::Index(5)])
            .unwrap();
        let a = store
            .resolve(
                &cell,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(a.scalar_value().unwrap().as_i64(), 2 * 20 + 4); // (3-1)*20+(5-1)
        assert_eq!(store.last_stats().chunks_fetched, 1);
    }

    #[test]
    fn aggregate_matches_materialized() {
        let (mut store, proxy) = store_with_matrix(64);
        let slice = proxy.slice(0, 2, 3, 17).unwrap();
        let materialized = store
            .resolve(
                &slice,
                RetrievalStrategy::WholeArray,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        for op in [
            AggregateOp::Sum,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
            AggregateOp::Count,
        ] {
            let streamed = store
                .resolve_aggregate(
                    &slice,
                    op,
                    RetrievalStrategy::BufferedIn { buffer_size: 4 },
                    crate::ParallelConfig::SEQUENTIAL,
                )
                .unwrap();
            assert_eq!(streamed, materialized.aggregate(op).unwrap(), "{op:?}");
        }
    }

    #[test]
    fn aggregate_count_needs_no_io() {
        let (mut store, proxy) = store_with_matrix(64);
        let n = store
            .resolve_aggregate(
                &proxy,
                AggregateOp::Count,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(n, Num::Int(400));
        assert_eq!(store.last_stats().statements, 0);
    }

    #[test]
    fn real_arrays_round_trip() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let a = NumArray::from_f64((0..100).map(|i| i as f64 / 4.0).collect());
        let proxy = store.store_array(&a, 32).unwrap();
        let back = store
            .resolve(
                &proxy,
                RetrievalStrategy::WholeArray,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert!(back.array_eq(&a));
        assert_eq!(back.numeric_type(), NumericType::Real);
    }

    #[test]
    fn storing_a_view_stores_logical_content() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let m = NumArray::from_i64_shaped((0..12).collect(), &[3, 4]).unwrap();
        let t = m.transpose();
        let proxy = store.store_array(&t, 32).unwrap();
        let back = store
            .resolve(
                &proxy,
                RetrievalStrategy::WholeArray,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert!(back.array_eq(&t));
    }

    #[test]
    fn delete_array_removes_chunks() {
        let (mut store, proxy) = store_with_matrix(64);
        let id = proxy.array_id();
        store.delete_array(id).unwrap();
        assert!(store.proxy(id).is_err());
        assert!(store
            .resolve(
                &proxy,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL
            )
            .is_err());
    }

    #[test]
    fn mediator_link_external() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        // Simulate pre-existing chunks written by another system.
        let chunking = Chunking::new(32, 10);
        for c in 0..chunking.chunk_count() {
            let (s, e) = chunking.chunk_span(c);
            let data: Vec<u8> = (s..e).flat_map(|i| (i as i64).to_le_bytes()).collect();
            store.backend_mut().put_chunk(77, c, &data).unwrap();
        }
        let proxy = store.link_external(ArrayMeta {
            array_id: 77,
            numeric_type: NumericType::Int,
            shape: vec![10],
            chunking,
            encoded: false,
        });
        let a = store
            .resolve(
                &proxy,
                RetrievalStrategy::WholeArray,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(a.elements().iter().map(|n| n.as_i64()).sum::<i64>(), 45);
    }

    #[test]
    fn stored_chunks_are_scc1_frames_with_zone_map() {
        let (mut store, proxy) = store_with_matrix(64); // 8 elems/chunk, 50 chunks
        let id = proxy.array_id();
        let zm = Arc::clone(store.zone_map(id).expect("zone map built at store time"));
        assert_eq!(zm.summaries.len(), 50);
        assert_eq!(zm.summaries[0].min(NumericType::Int), Num::Int(0));
        assert_eq!(zm.summaries[0].max(NumericType::Int), Num::Int(7));
        let frame = store.backend_mut().get_chunk(id, 0).unwrap();
        let (summary, ty) = codec::summary_of(&frame).expect("SCC1 frame");
        assert_eq!(ty, NumericType::Int);
        assert_eq!(summary.min_bits, zm.summaries[0].min_bits);
        store.delete_array(id).unwrap();
        assert!(store.zone_map(id).is_none());
    }

    #[test]
    fn filtered_aggregate_skips_and_is_identical_without_skipping() {
        let (mut store, proxy) = store_with_matrix(64); // values 0..400
        let pred = ValuePredicate::Range {
            lo: Num::Int(100),
            hi: Num::Int(149),
        };
        let expected: i64 = (100..150).sum();
        let sum = store
            .resolve_aggregate_filtered(
                &proxy,
                &pred,
                AggregateOp::Sum,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(sum, Num::Int(expected));
        let st = store.last_stats();
        // Chunks 12..=18 qualify (they span elements 96..152); the other
        // 43 are proven irrelevant and never fetched.
        assert_eq!(st.chunks_skipped, 43);
        assert_eq!(st.chunks_fetched, 7);
        assert_eq!(st.chunks_decoded, 7);
        assert!(st.bytes_decoded > 0);
        store.set_skip_enabled(false);
        let sum_off = store
            .resolve_aggregate_filtered(
                &proxy,
                &pred,
                AggregateOp::Sum,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(sum_off, sum);
        let st_off = store.last_stats();
        assert_eq!(st_off.chunks_skipped, 0);
        assert_eq!(st_off.chunks_fetched, 50);
    }

    #[test]
    fn filtered_count_and_avg_follow_matched_elements() {
        let (mut store, proxy) = store_with_matrix(64);
        let pred = ValuePredicate::Range {
            lo: Num::Int(10),
            hi: Num::Int(13),
        };
        let n = store
            .resolve_aggregate_filtered(
                &proxy,
                &pred,
                AggregateOp::Count,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(n, Num::Int(4));
        let avg = store
            .resolve_aggregate_filtered(
                &proxy,
                &pred,
                AggregateOp::Avg,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(avg, Num::Real(11.5));
        // No matches: Count/Sum yield zero, Min errors (empty semantics).
        let none = ValuePredicate::Range {
            lo: Num::Int(1000),
            hi: Num::Int(2000),
        };
        assert_eq!(
            store
                .resolve_aggregate_filtered(
                    &proxy,
                    &none,
                    AggregateOp::Count,
                    RetrievalStrategy::Single,
                    crate::ParallelConfig::SEQUENTIAL
                )
                .unwrap(),
            Num::Int(0)
        );
        assert_eq!(store.last_stats().chunks_skipped, 50);
        assert_eq!(store.last_stats().statements, 0);
        assert!(store
            .resolve_aggregate_filtered(
                &proxy,
                &none,
                AggregateOp::Min,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL
            )
            .is_err());
    }

    #[test]
    fn resolve_filtered_preserves_view_order() {
        let (mut store, proxy) = store_with_matrix(64);
        let pred = ValuePredicate::In(vec![Num::Int(399), Num::Int(5), Num::Int(123)]);
        let got = store
            .resolve_filtered(
                &proxy,
                &pred,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        // View order, not predicate order.
        assert_eq!(got, vec![Num::Int(5), Num::Int(123), Num::Int(399)]);
        assert_eq!(store.last_stats().chunks_fetched, 3);
        assert_eq!(store.last_stats().chunks_skipped, 47);
    }

    #[test]
    fn resolve_exists_early_exit_and_full_skip() {
        let (mut store, proxy) = store_with_matrix(64);
        let hit = ValuePredicate::In(vec![Num::Int(42)]);
        assert!(store
            .resolve_exists(
                &proxy,
                &hit,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL
            )
            .unwrap());
        let miss = ValuePredicate::In(vec![Num::Int(-7)]);
        assert!(!store
            .resolve_exists(
                &proxy,
                &miss,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL
            )
            .unwrap());
        // Everything pruned: no statements reached the back-end.
        assert_eq!(store.last_stats().statements, 0);
        assert_eq!(store.last_stats().chunks_skipped, 50);
    }

    #[test]
    fn filtered_parallel_matches_sequential_bitwise() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let vals: Vec<f64> = (0..500).map(|i| (i as f64 * 0.7).sin() * 100.0).collect();
        let a = NumArray::from_f64(vals);
        let proxy = store.store_array(&a, 64).unwrap();
        let pred = ValuePredicate::Range {
            lo: Num::Real(-25.0),
            hi: Num::Real(25.0),
        };
        for op in [
            AggregateOp::Sum,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
            AggregateOp::Count,
        ] {
            let seq = store
                .resolve_aggregate_filtered(
                    &proxy,
                    &pred,
                    op,
                    RetrievalStrategy::Single,
                    crate::ParallelConfig::SEQUENTIAL,
                )
                .unwrap();
            for workers in [2, 4, 8] {
                let par = store
                    .resolve_aggregate_filtered(
                        &proxy,
                        &pred,
                        op,
                        RetrievalStrategy::Single,
                        crate::ParallelConfig::with_workers(workers),
                    )
                    .unwrap();
                assert_eq!(
                    par.as_f64().to_bits(),
                    seq.as_f64().to_bits(),
                    "{op:?} @ {workers} workers"
                );
            }
        }
    }

    #[test]
    fn raw_policy_still_skips_via_summaries() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        store.set_codec(CodecPolicy::Raw);
        let m = NumArray::from_i64_shaped((0..400).collect(), &[20, 20]).unwrap();
        let proxy = store.store_array(&m, 64).unwrap();
        let pred = ValuePredicate::Range {
            lo: Num::Int(0),
            hi: Num::Int(7),
        };
        let sum = store
            .resolve_aggregate_filtered(
                &proxy,
                &pred,
                AggregateOp::Sum,
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        assert_eq!(sum, Num::Int(28));
        assert_eq!(store.last_stats().chunks_fetched, 1);
        assert_eq!(store.last_stats().chunks_skipped, 49);
    }
}

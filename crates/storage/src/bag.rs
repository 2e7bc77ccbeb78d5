//! Resolving bags of array proxies (thesis §6.2.4).
//!
//! A query that touches an array per solution — every task's trajectory,
//! say — produces a *bag* of proxies. Resolving them one at a time pays
//! one round of statements per proxy; resolving the **bag** collects all
//! needed `(array, chunk)` keys first, linearizes them in clustered
//! table order, lets the SPD discover regularity *across* proxies, and
//! issues a few composite-range / IN statements for the whole bag. This
//! is where the thesis' "discover that regularity at query runtime"
//! pays off most: chunk ids of consecutive arrays are adjacent rows in
//! the clustered table, so per-array point probes become one scan.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ssdm_array::{AggregateOp, LinearRuns, Num, NumArray};

use crate::apr::{decode_payload, gather, ArrayStore, ExecTally, RetrievalStrategy};
use crate::meta::ArrayProxy;
use crate::spd::{self, FetchOp};
use crate::store::{ChunkStore, StorageError};
use crate::Result;

/// Decoded chunk payloads of a bag, by `(array, chunk)` key.
type BagChunks = HashMap<(u64, u64), Vec<u8>>;

impl<S: ChunkStore> ArrayStore<S> {
    /// Resolve every proxy in the bag, sharing back-end statements
    /// across them. Returns the resident arrays in input order;
    /// [`last_stats`](Self::last_stats) covers the whole bag.
    pub fn resolve_bag(
        &mut self,
        proxies: &[ArrayProxy],
        strategy: RetrievalStrategy,
    ) -> Result<Vec<NumArray>> {
        let mark = self.mark();
        let (chunks, tally) = self.fetch_bag(proxies, strategy)?;
        let mut elements = 0;
        let arrays = proxies
            .iter()
            .map(|p| {
                let meta = p.meta();
                let addresses = p.view().addresses();
                elements += addresses.len();
                let data = gather(meta, &addresses, |c| {
                    chunks.get(&(meta.array_id, c)).map(Vec::as_slice)
                })?;
                Ok(NumArray::from_data(data, &p.shape())?)
            })
            .collect::<Result<Vec<_>>>()?;
        self.finish_stats(mark, tally, elements, 0);
        Ok(arrays)
    }

    /// Aggregate every proxy in the bag (AAPR over a bag): one shared
    /// fetch, one scalar per proxy.
    pub fn resolve_aggregate_bag(
        &mut self,
        proxies: &[ArrayProxy],
        op: AggregateOp,
        strategy: RetrievalStrategy,
    ) -> Result<Vec<Num>> {
        self.resolve_bag(proxies, strategy)?
            .iter()
            .map(|a| a.aggregate(op).map_err(StorageError::Array))
            .collect()
    }

    /// Fetch the union of chunks the bag needs, decoded.
    fn fetch_bag(
        &self,
        proxies: &[ArrayProxy],
        strategy: RetrievalStrategy,
    ) -> Result<(BagChunks, ExecTally)> {
        // 1. The needed composite keys, in clustered order.
        let mut needed: BTreeSet<(u64, u64)> = BTreeSet::new();
        for p in proxies {
            let chunking = p.meta().chunking;
            for run in LinearRuns::of_view(p.view()).runs() {
                for c in chunking.chunks_for_run(run) {
                    needed.insert((p.array_id(), c));
                }
            }
        }
        if needed.is_empty() {
            return Ok((HashMap::new(), ExecTally::default()));
        }
        // 2. Linearize composite keys into global clustered positions
        //    using the catalog's chunk counts (arrays sorted by id are
        //    physically consecutive in the clustered table).
        let mut offsets: BTreeMap<u64, u64> = BTreeMap::new();
        {
            let mut metas: Vec<(u64, u64)> = self
                .catalog()
                .map(|m| (m.array_id, m.chunking.chunk_count()))
                .collect();
            metas.sort_unstable();
            let mut acc = 0u64;
            for (id, count) in metas {
                offsets.insert(id, acc);
                acc += count;
            }
        }
        let linearize = |(a, c): (u64, u64)| -> Option<u64> { offsets.get(&a).map(|off| off + c) };
        let mut by_linear: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut unlinearizable: Vec<(u64, u64)> = Vec::new();
        for &key in &needed {
            match linearize(key) {
                Some(l) => {
                    by_linear.insert(l, key);
                }
                None => unlinearizable.push(key),
            }
        }

        // 3. Plan and execute.
        let supports_cross = self.backend().capabilities().supports_cross_range;
        let mut out: HashMap<(u64, u64), Vec<u8>> = HashMap::new();
        match strategy {
            RetrievalStrategy::Single => {
                for &(a, c) in &needed {
                    out.insert((a, c), self.backend().get_chunk(a, c)?);
                }
            }
            RetrievalStrategy::BufferedIn { buffer_size } => {
                // Per-array IN batches (the §6.2.4 buffered strategy).
                let mut per_array: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                for &(a, c) in &needed {
                    per_array.entry(a).or_default().push(c);
                }
                for (a, cs) in per_array {
                    for batch in cs.chunks(buffer_size.max(1)) {
                        for (c, payload) in self.backend().get_chunks_in(a, batch)? {
                            out.insert((a, c), payload);
                        }
                    }
                }
            }
            RetrievalStrategy::SpdRange { options } => {
                let linear_ids: Vec<u64> = by_linear.keys().copied().collect();
                let plan = spd::plan(&linear_ids, options);
                for op in plan {
                    match op {
                        FetchOp::Range { lo, hi } if supports_cross => {
                            let lo_key = delinearize(lo, &offsets);
                            let hi_key = delinearize(hi, &offsets);
                            for (k, payload) in
                                self.backend().get_composite_range(lo_key, hi_key)?
                            {
                                out.insert(k, payload);
                            }
                        }
                        FetchOp::Range { lo, hi } => {
                            // No cross-array scans: split per array.
                            let mut per_array: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
                            for l in lo..=hi {
                                let (a, c) = delinearize(l, &offsets);
                                per_array
                                    .entry(a)
                                    .and_modify(|(plo, phi)| {
                                        *plo = (*plo).min(c);
                                        *phi = (*phi).max(c);
                                    })
                                    .or_insert((c, c));
                            }
                            for (a, (clo, chi)) in per_array {
                                for (c, payload) in self.backend().get_chunk_range(a, clo, chi)? {
                                    out.insert((a, c), payload);
                                }
                            }
                        }
                        FetchOp::In(ids) if supports_cross => {
                            // Row-value IN over composite keys: one
                            // statement per batch regardless of how many
                            // arrays it spans.
                            let keys: Vec<(u64, u64)> =
                                ids.iter().map(|&l| delinearize(l, &offsets)).collect();
                            for (k, payload) in self.backend().get_composite_in(&keys)? {
                                out.insert(k, payload);
                            }
                        }
                        FetchOp::In(ids) => {
                            let mut per_array: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                            for l in ids {
                                let (a, c) = delinearize(l, &offsets);
                                per_array.entry(a).or_default().push(c);
                            }
                            for (a, cs) in per_array {
                                for (c, payload) in self.backend().get_chunks_in(a, &cs)? {
                                    out.insert((a, c), payload);
                                }
                            }
                        }
                    }
                }
                for (a, c) in unlinearizable {
                    out.insert((a, c), self.backend().get_chunk(a, c)?);
                }
            }
            RetrievalStrategy::WholeArray => {
                let arrays: BTreeSet<u64> = needed.iter().map(|&(a, _)| a).collect();
                for a in arrays {
                    let meta = self.proxy(a)?.meta().clone();
                    let count = meta.chunking.chunk_count();
                    if count == 0 {
                        continue;
                    }
                    for (c, payload) in self.backend().get_chunk_range(a, 0, count - 1)? {
                        out.insert((a, c), payload);
                    }
                }
            }
        }
        // 4. Decode the SCC1 frames the bag needs — once per chunk,
        //    shared by every proxy that reads it. Chunks a covering
        //    range overfetched are dropped undecoded.
        let encoded: HashMap<u64, bool> = proxies
            .iter()
            .map(|p| (p.array_id(), p.meta().encoded))
            .collect();
        let mut tally = ExecTally::default();
        let mut chunks = HashMap::with_capacity(needed.len());
        for key @ (a, c) in needed {
            let Some(payload) = out.remove(&key) else {
                continue; // not returned: gathering reports it missing
            };
            let (raw, bytes) = decode_payload(encoded[&a], payload, a, c)?;
            tally.note_decode(bytes);
            chunks.insert(key, raw);
        }
        Ok((chunks, tally))
    }
}

fn delinearize(linear: u64, offsets: &BTreeMap<u64, u64>) -> (u64, u64) {
    // The greatest offset <= linear identifies the array.
    let (&array_id, &off) = offsets
        .iter()
        .rfind(|(_, &o)| o <= linear)
        .expect("offsets start at 0");
    (array_id, linear - off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spd::SpdOptions;
    use crate::store::{MemoryChunkStore, RelChunkStore};

    /// 50 small arrays of 8 elements, 2 chunks each (32-byte chunks).
    fn store_with_fleet<S: ChunkStore>(backend: S) -> (ArrayStore<S>, Vec<ArrayProxy>) {
        let mut store = ArrayStore::new(backend);
        let mut proxies = Vec::new();
        for k in 0..50i64 {
            let a = NumArray::from_i64((0..8).map(|i| k * 100 + i).collect());
            proxies.push(store.store_array(&a, 32).unwrap());
        }
        (store, proxies)
    }

    #[test]
    fn bag_matches_individual_resolution() {
        let (mut store, proxies) = store_with_fleet(RelChunkStore::open_memory().unwrap());
        // A slice of each array: elements 3..=6.
        let views: Vec<ArrayProxy> = proxies
            .iter()
            .map(|p| p.slice(0, 2, 1, 5).unwrap())
            .collect();
        for strategy in [
            RetrievalStrategy::Single,
            RetrievalStrategy::BufferedIn { buffer_size: 8 },
            RetrievalStrategy::SpdRange {
                options: SpdOptions::default(),
            },
            RetrievalStrategy::WholeArray,
        ] {
            let bag = store.resolve_bag(&views, strategy).unwrap();
            for (v, got) in views.iter().zip(&bag) {
                let individually = store
                    .resolve(v, strategy, crate::ParallelConfig::SEQUENTIAL)
                    .unwrap();
                assert!(got.array_eq(&individually), "{}", strategy.name());
            }
        }
    }

    #[test]
    fn bag_spd_uses_one_cross_array_statement() {
        let (mut store, proxies) = store_with_fleet(RelChunkStore::open_memory().unwrap());
        // The whole fleet: every chunk of every array — one dense
        // composite range.
        store.backend_mut().reset_io_stats();
        let bag = store
            .resolve_bag(
                &proxies,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        assert_eq!(bag.len(), 50);
        let stats = store.backend().io_stats();
        assert_eq!(stats.statements, 1, "one clustered scan for the bag");
        assert_eq!(stats.chunks_returned, 100);
        // Versus per-proxy resolution: at least one statement each.
        store.backend_mut().reset_io_stats();
        for p in &proxies {
            store
                .resolve(
                    p,
                    RetrievalStrategy::SpdRange {
                        options: SpdOptions::default(),
                    },
                    crate::ParallelConfig::SEQUENTIAL,
                )
                .unwrap();
        }
        assert!(store.backend().io_stats().statements >= 50);
    }

    #[test]
    fn bag_first_chunk_of_each_array_is_strided_pattern() {
        let (mut store, proxies) = store_with_fleet(RelChunkStore::open_memory().unwrap());
        // Elements 1..=4 live in chunk 0 of each array: the composite
        // keys are (a, 0) for all a — stride 2 in linearized space.
        let heads: Vec<ArrayProxy> = proxies
            .iter()
            .map(|p| p.slice(0, 0, 1, 3).unwrap())
            .collect();
        store.backend_mut().reset_io_stats();
        let bag = store
            .resolve_bag(
                &heads,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        assert_eq!(bag.len(), 50);
        let stats = store.backend().io_stats();
        // Density 0.5 with the default threshold: one covering range.
        assert_eq!(stats.statements, 1);
        assert_eq!(stats.chunks_returned, 99, "covering scan overfetches");
        for (k, a) in bag.iter().enumerate() {
            assert_eq!(a.elements()[0], Num::Int(k as i64 * 100));
        }
    }

    #[test]
    fn bag_on_memory_backend() {
        let (mut store, proxies) = store_with_fleet(MemoryChunkStore::new());
        let sums = store
            .resolve_aggregate_bag(
                &proxies,
                AggregateOp::Sum,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        assert_eq!(sums.len(), 50);
        assert_eq!(sums[0], Num::Int(28)); // 0+..+7
        assert_eq!(sums[1], Num::Int(828)); // 100..107
    }

    #[test]
    fn bag_without_cross_range_support_falls_back() {
        let dir = std::env::temp_dir().join(format!("ssdm-bag-{}", std::process::id()));
        let backend = crate::store::FileChunkStore::new(&dir).unwrap();
        let (mut store, proxies) = store_with_fleet(backend);
        let bag = store
            .resolve_bag(
                &proxies,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        assert_eq!(bag.len(), 50);
        assert_eq!(bag[7].elements()[2], Num::Int(702));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bag_records_stats() {
        let (mut store, proxies) = store_with_fleet(RelChunkStore::open_memory().unwrap());
        // A single-array resolve first, so stale stats would show.
        store
            .resolve(
                &proxies[0],
                RetrievalStrategy::Single,
                crate::ParallelConfig::SEQUENTIAL,
            )
            .unwrap();
        let before = store.backend().io_stats();
        store
            .resolve_bag(
                &proxies,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        let after = store.backend().io_stats();
        let st = store.last_stats();
        assert_eq!(st.statements, after.statements - before.statements);
        assert_eq!(
            st.chunks_fetched,
            after.chunks_returned - before.chunks_returned
        );
        // Every fetched chunk is an SCC1 frame the bag needs.
        assert_eq!(
            st.chunks_decoded,
            after.chunks_returned - before.chunks_returned
        );
        assert_eq!(st.elements_resolved, 50 * 8);
    }

    #[test]
    fn empty_bag() {
        let (mut store, _) = store_with_fleet(MemoryChunkStore::new());
        let bag = store.resolve_bag(&[], RetrievalStrategy::Single).unwrap();
        assert!(bag.is_empty());
    }
}

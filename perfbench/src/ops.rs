//! The operations the workloads send, their statement text, and the
//! oracle check of every answer.

use crate::gen::{self, close, same_bits, Summary, Task, PROLOGUE};
use crate::net::Table;

/// Value ranges of the zone-map-filtered `array_count_range` queries:
/// the low stable level, then three bands of the high one.
pub const RANGES: [(f64, f64); 4] = [(0.0, 10.0), (40.0, 80.0), (80.0, 140.0), (140.0, 220.0)];
/// Width of the `k_1` bands of Q4.
pub const BAND: f64 = 5.0;
/// Elements per slice average of the interactive mix.
pub const SLICE: usize = 64;

#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// One trajectory element, `?tr[i]` (1-based).
    Element { t: usize, i: usize },
    /// `array_avg(?tr[i:i+63])`.
    SliceAvg { t: usize, i: usize },
    /// Metadata lookup of one task: `k_d`, realization and result.
    Meta { t: usize },
    /// Q2: first and last element of every trajectory of a realization.
    FirstLast { realization: i64 },
    /// Q3: average of the first 32 elements per task with a `result`.
    EarlyAvg { result: i64 },
    /// Q4 with a `k_1` band: mean of whole-trajectory maxima.
    BandMax { lo: f64 },
    /// `array_count_range` per task of a realization.
    CountRange { realization: i64, range: usize },
    /// Ingest read: metadata plus one element of an acknowledged task.
    Point { t: usize, i: usize },
    /// Ingest write: `INSERT DATA` of a whole new task.
    Insert { t: usize },
    /// Ingest write: flip a task's `result` flag from `from`.
    Flip { t: usize, from: i64 },
}

impl Op {
    pub fn is_update(&self) -> bool {
        matches!(self, Op::Insert { .. } | Op::Flip { .. })
    }

    pub fn name(&self) -> &'static str {
        match self {
            Op::Element { .. } => "element",
            Op::SliceAvg { .. } => "slice_avg",
            Op::Meta { .. } => "meta",
            Op::FirstLast { .. } => "q2_first_last",
            Op::EarlyAvg { .. } => "q3_early_avg",
            Op::BandMax { .. } => "q4_band_max",
            Op::CountRange { .. } => "count_range",
            Op::Point { .. } => "point",
            Op::Insert { .. } => "insert",
            Op::Flip { .. } => "flip",
        }
    }

    /// The statement text. `steps`/`realizations` describe the data.
    pub fn text(&self, seed: u64, steps: usize, realizations: usize) -> String {
        match *self {
            Op::Element { t, i } => {
                format!("{PROLOGUE}SELECT (?tr[{i}] AS ?v) WHERE {{ b:task{t} b:trajectory ?tr }}")
            }
            Op::SliceAvg { t, i } => format!(
                "{PROLOGUE}SELECT (array_avg(?tr[{i}:{}]) AS ?v) WHERE {{ b:task{t} b:trajectory ?tr }}",
                i + SLICE - 1
            ),
            Op::Meta { t } => format!(
                "{PROLOGUE}SELECT ?kd ?r ?res WHERE {{ b:task{t} b:k_d ?kd ; \
                 b:realization ?r ; b:result ?res }}"
            ),
            Op::FirstLast { realization } => format!(
                "{PROLOGUE}SELECT ?task (?tr[1] AS ?first) (?tr[-1] AS ?last) WHERE {{ \
                 ?task b:trajectory ?tr ; b:realization {realization} . }}"
            ),
            Op::EarlyAvg { result } => format!(
                "{PROLOGUE}SELECT ?task (array_avg(?tr[1:32]) AS ?early) WHERE {{ \
                 ?task b:trajectory ?tr ; b:result {result} . }}"
            ),
            Op::BandMax { lo } => format!(
                "{PROLOGUE}SELECT (AVG(?m) AS ?avgmax) (COUNT(?task) AS ?n) WHERE {{ \
                 ?task b:k_1 ?k1 ; b:trajectory ?tr . FILTER (?k1 > {} && ?k1 < {}) \
                 BIND (array_max(?tr) AS ?m) }}",
                gen::real_literal(lo),
                gen::real_literal(lo + BAND)
            ),
            Op::CountRange { realization, range } => {
                let (lo, hi) = RANGES[range];
                format!(
                    "{PROLOGUE}SELECT ?task (array_count_range(?tr, {}, {}) AS ?c) WHERE {{ \
                     ?task b:trajectory ?tr ; b:realization {realization} . }}",
                    gen::real_literal(lo),
                    gen::real_literal(hi)
                )
            }
            Op::Point { t, i } => format!(
                "{PROLOGUE}SELECT ?k1 ?r (?tr[{i}] AS ?v) WHERE {{ b:task{t} b:k_1 ?k1 ; \
                 b:realization ?r ; b:trajectory ?tr }}"
            ),
            Op::Insert { t } => gen::insert_statement(seed, t, steps, realizations),
            Op::Flip { t, from } => {
                let to = 1 - from;
                format!(
                    "{PROLOGUE}DELETE {{ b:task{t} b:result {from} }} INSERT {{ b:task{t} b:result {to} }} \
                     WHERE {{ b:task{t} b:result {from} }}"
                )
            }
        }
    }
}

/// What the oracle knows: the seed and shape, plus (for the analytic
/// workload) per-task summaries.
pub struct Oracle {
    pub seed: u64,
    pub steps: usize,
    pub realizations: usize,
    pub summaries: Vec<(Task, Summary)>,
}

impl Oracle {
    pub fn new(seed: u64, steps: usize, realizations: usize) -> Oracle {
        Oracle {
            seed,
            steps,
            realizations,
            summaries: Vec::new(),
        }
    }

    /// Precompute the per-task aggregates of tasks `0..tasks`.
    pub fn with_summaries(mut self, tasks: usize) -> Oracle {
        self.summaries = (0..tasks)
            .map(|t| {
                let m = self.task(t);
                let s = gen::summarize(self.seed, t, &m, self.steps, &RANGES);
                (m, s)
            })
            .collect();
        self
    }

    pub fn task(&self, t: usize) -> Task {
        gen::task(self.seed, t, self.realizations)
    }

    /// Check a read answer. `tasks` is the set of tasks the answer may
    /// cover: `must` of them have to appear, and at most `may`.
    pub fn check(&self, op: &Op, table: &Table, must: usize, may: usize) -> Result<(), String> {
        let seed = self.seed;
        match *op {
            Op::Element { t, i } => {
                let want = self.task(t).value(seed, t, i - 1);
                expect_bits(single(table, "v")?, want)
            }
            Op::SliceAvg { t, i } => {
                let m = self.task(t);
                let sum: f64 = (i - 1..i - 1 + SLICE).map(|j| m.value(seed, t, j)).sum();
                expect_close(single(table, "v")?, sum / SLICE as f64)
            }
            Op::Meta { t } => {
                let m = self.task(t);
                one_row(table)?;
                expect_bits(cell(table, 0, "kd")?, m.kd)?;
                expect_int(cell(table, 0, "r")?, m.realization)?;
                expect_int(cell(table, 0, "res")?, m.result)
            }
            Op::Point { t, i } => {
                let m = self.task(t);
                one_row(table)?;
                expect_bits(cell(table, 0, "k1")?, m.k1)?;
                expect_int(cell(table, 0, "r")?, m.realization)?;
                expect_bits(cell(table, 0, "v")?, m.value(seed, t, i - 1))
            }
            Op::FirstLast { realization } => {
                let (tc, fc, lc) = (table.col("task")?, table.col("first")?, table.col("last")?);
                self.per_task(
                    table,
                    tc,
                    must,
                    may,
                    |_, m| m.realization == realization,
                    |t, m, row| {
                        expect_bits(&row[fc], m.value(seed, t, 0))?;
                        expect_bits(&row[lc], m.value(seed, t, self.steps - 1))
                    },
                )
            }
            Op::EarlyAvg { result } => {
                let (tc, ec) = (table.col("task")?, table.col("early")?);
                self.per_task(
                    table,
                    tc,
                    must,
                    may,
                    |_, m| m.result == result,
                    |t, _, row| expect_close(&row[ec], self.summaries[t].1.early_avg),
                )
            }
            Op::CountRange { realization, range } => {
                let (tc, cc) = (table.col("task")?, table.col("c")?);
                self.per_task(
                    table,
                    tc,
                    must,
                    may,
                    |_, m| m.realization == realization,
                    |t, _, row| expect_int(&row[cc], self.summaries[t].1.in_range[range]),
                )
            }
            Op::BandMax { lo } => {
                let hi = lo + BAND;
                let (mut n, mut sum) = (0i64, 0.0);
                for (m, s) in &self.summaries[..must] {
                    if m.k1 > lo && m.k1 < hi {
                        n += 1;
                        sum += s.max;
                    }
                }
                one_row(table)?;
                expect_int(cell(table, 0, "n")?, n)?;
                match (n, cell(table, 0, "avgmax")?) {
                    // AVG over no rows is unbound.
                    (0, "") => Ok(()),
                    (_, avg) => expect_close(avg, sum / n as f64),
                }
            }
            Op::Insert { .. } | Op::Flip { .. } => Err("updates have no table".into()),
        }
    }

    /// Check a per-task answer: every row names a distinct task among
    /// the first `may` that passes `keep`, every such task below `must`
    /// is present, and each row passes `row_ok`.
    fn per_task(
        &self,
        table: &Table,
        task_col: usize,
        must: usize,
        may: usize,
        keep: impl Fn(usize, &Task) -> bool,
        row_ok: impl Fn(usize, &Task, &[String]) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut seen = vec![false; may];
        for row in &table.rows {
            let t = task_index(&row[task_col])?;
            let m = self.task(t);
            if t >= may || !keep(t, &m) {
                return Err(format!("unexpected row for task {t}"));
            }
            if std::mem::replace(&mut seen[t], true) {
                return Err(format!("duplicate row for task {t}"));
            }
            row_ok(t, &m, row).map_err(|e| format!("task {t}: {e}"))?;
        }
        for (t, &s) in seen.iter().enumerate().take(must) {
            if !s && keep(t, &self.task(t)) {
                return Err(format!("missing row for task {t}"));
            }
        }
        Ok(())
    }
}

/// The engine's mutation acknowledgement, `inserted N deleted M`.
pub fn check_update(op: &Op, ack: &str) -> Result<(), String> {
    let want = match op {
        Op::Insert { .. } => "inserted 8 deleted 0",
        Op::Flip { .. } => "inserted 1 deleted 1",
        _ => return Err("not an update".into()),
    };
    if ack.trim() == want {
        Ok(())
    } else {
        Err(format!("update acknowledged as {ack:?}, expected {want:?}"))
    }
}

pub fn task_index(uri: &str) -> Result<usize, String> {
    uri.strip_prefix(gen::NS)
        .and_then(|l| l.strip_prefix("task"))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| format!("not a task URI: {uri}"))
}

fn one_row(table: &Table) -> Result<(), String> {
    if table.rows.len() == 1 {
        Ok(())
    } else {
        Err(format!("expected one row, got {}", table.rows.len()))
    }
}

fn cell<'a>(table: &'a Table, row: usize, var: &str) -> Result<&'a str, String> {
    let c = table.col(var)?;
    Ok(&table.rows[row][c])
}

fn single<'a>(table: &'a Table, var: &str) -> Result<&'a str, String> {
    one_row(table)?;
    cell(table, 0, var)
}

fn parse_f64(cell: &str) -> Result<f64, String> {
    cell.parse().map_err(|_| format!("not a number: {cell:?}"))
}

pub fn expect_bits(cell: &str, want: f64) -> Result<(), String> {
    let got = parse_f64(cell)?;
    if same_bits(got, want) {
        Ok(())
    } else {
        Err(format!("got {got:?}, expected {want:?} bit-exact"))
    }
}

pub fn expect_close(cell: &str, want: f64) -> Result<(), String> {
    let got = parse_f64(cell)?;
    if close(got, want) {
        Ok(())
    } else {
        Err(format!("got {got:?}, expected {want:?} within 1e-12"))
    }
}

pub fn expect_int(cell: &str, want: i64) -> Result<(), String> {
    match cell.parse::<i64>() {
        Ok(got) if got == want => Ok(()),
        _ => Err(format!("got {cell:?}, expected {want}")),
    }
}

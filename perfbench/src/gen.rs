//! The benchmark's own seeded BISTAB generator and answer oracle.
//!
//! Every value is a pure function of `(seed, task, step)`, so any
//! task's parameters or trajectory can be regenerated on demand: the
//! program only ever sees the generated triples and statements, and the
//! oracle keeps no resident copy of the data.

use ssdm_array::NumArray;
use ssdm_rdf::{Graph, Term};

pub const NS: &str = "http://udbl.uu.se/bistab#";
pub const PROLOGUE: &str = "PREFIX b: <http://udbl.uu.se/bistab#>\n";

/// Trajectories relax geometrically from the midpoint to the task's
/// stable level, so the first chunk spans the switch and later chunks
/// stay in a narrow band around the level (what zone maps exploit).
const DECAY: f64 = 0.99;

/// One BISTAB task's metadata.
#[derive(Debug, Clone, Copy)]
pub struct Task {
    pub k1: f64,
    pub ka: f64,
    pub kd: f64,
    pub k4: f64,
    pub realization: i64,
    pub result: i64,
    start: f64,
    target: f64,
}

/// splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` keyed by `(seed, a, b)`.
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    let h = mix(seed ^ mix(a.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ mix(b)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform index in `0..n` keyed by `(seed, a, b)`.
pub fn index(seed: u64, a: u64, b: u64, n: usize) -> usize {
    ((unit(seed, a, b) * n as f64) as usize).min(n.saturating_sub(1))
}

/// Round to four decimals (simulation output precision); `+ 0.0`
/// normalizes a negative zero.
fn quantize(x: f64) -> f64 {
    (x * 1e4).round() / 1e4 + 0.0
}

pub fn task(seed: u64, t: usize, realizations: usize) -> Task {
    let t64 = t as u64;
    let k1 = 10.0 + unit(seed, t64, 1) * 40.0;
    let ka = 30.0 + unit(seed, t64, 2) * 60.0;
    let kd = 1.0e8 * (0.5 + unit(seed, t64, 3) * 9.5);
    let k4 = 40.0 + unit(seed, t64, 4) * 40.0;
    let switched = unit(seed, t64, 5) < 0.5;
    let (high, low) = (k1 * 4.0, k4 / 8.0);
    Task {
        k1,
        ka,
        kd,
        k4,
        realization: (t % realizations) as i64 + 1,
        result: i64::from(switched),
        start: (high + low) / 2.0,
        target: if switched { high } else { low },
    }
}

impl Task {
    /// Trajectory element `i` (0-based) of task `t`.
    pub fn value(&self, seed: u64, t: usize, i: usize) -> f64 {
        let noise = (unit(seed ^ 0x5151, t as u64, i as u64) - 0.5) * self.target * 0.1;
        let level = self.target + (self.start - self.target) * DECAY.powi(i as i32) + noise;
        quantize(level.max(0.0))
    }

    pub fn trajectory(&self, seed: u64, t: usize, steps: usize) -> Vec<f64> {
        (0..steps).map(|i| self.value(seed, t, i)).collect()
    }
}

pub fn task_uri(t: usize) -> String {
    format!("{NS}task{t}")
}

/// Insert task `t` into a graph the way the BISTAB loader does: one node
/// per task, one property per variable, the trajectory as an array.
pub fn insert_task(g: &mut Graph, seed: u64, t: usize, steps: usize, realizations: usize) -> usize {
    let m = task(seed, t, realizations);
    let node = Term::uri(task_uri(t));
    let p = |local: &str| Term::uri(format!("{NS}{local}"));
    g.insert(
        Term::uri(format!("{NS}experiment1")),
        p("task"),
        node.clone(),
    );
    g.insert(node.clone(), p("k_1"), Term::double(m.k1));
    g.insert(node.clone(), p("k_a"), Term::double(m.ka));
    g.insert(node.clone(), p("k_d"), Term::double(m.kd));
    g.insert(node.clone(), p("k_4"), Term::double(m.k4));
    g.insert(node.clone(), p("realization"), Term::integer(m.realization));
    g.insert(node.clone(), p("result"), Term::integer(m.result));
    let traj = NumArray::from_f64(m.trajectory(seed, t, steps));
    g.insert(node, p("trajectory"), Term::Array(traj));
    8
}

/// A real literal as the engine renders it (and parses it back
/// bit-exact): shortest round-trip digits, integral values keep `.0`.
pub fn real_literal(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// The `INSERT DATA` statement that adds task `t` with its trajectory
/// as a SciSPARQL collection.
pub fn insert_statement(seed: u64, t: usize, steps: usize, realizations: usize) -> String {
    let m = task(seed, t, realizations);
    let mut s = String::with_capacity(steps * 10 + 512);
    s.push_str(PROLOGUE);
    s.push_str(&format!(
        "INSERT DATA {{ b:experiment1 b:task b:task{t} . b:task{t} b:k_1 {} ; b:k_a {} ; \
         b:k_d {} ; b:k_4 {} ; b:realization {} ; b:result {} ; b:trajectory (",
        real_literal(m.k1),
        real_literal(m.ka),
        real_literal(m.kd),
        real_literal(m.k4),
        m.realization,
        m.result
    ));
    for i in 0..steps {
        s.push(' ');
        s.push_str(&real_literal(m.value(seed, t, i)));
    }
    s.push_str(" ) }");
    s
}

/// Per-task aggregates the analytic oracle needs, computed in one pass
/// over regenerated values (a few floats per task, not the data).
#[derive(Debug, Clone)]
pub struct Summary {
    pub max: f64,
    /// Mean of the first 32 elements, summed left to right.
    pub early_avg: f64,
    /// Element counts inside each of the oracle's value ranges.
    pub in_range: Vec<i64>,
}

pub fn summarize(seed: u64, t: usize, m: &Task, steps: usize, ranges: &[(f64, f64)]) -> Summary {
    let mut s = Summary {
        max: f64::NEG_INFINITY,
        early_avg: 0.0,
        in_range: vec![0; ranges.len()],
    };
    let mut early = 0.0;
    for i in 0..steps {
        let v = m.value(seed, t, i);
        if i == 0 {
            early = v;
        } else if i < 32 {
            early += v;
        }
        if v > s.max {
            s.max = v;
        }
        for (c, &(lo, hi)) in s.in_range.iter_mut().zip(ranges) {
            if lo <= v && v <= hi {
                *c += 1;
            }
        }
    }
    s.early_avg = early / 32.0;
    s
}

/// Floats compare bit-exact.
pub fn same_bits(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits()
}

/// Folds (sums, averages) compare within 1e-12 relative: the engine may
/// fold in another order than the oracle.
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-12 * got.abs().max(want.abs())
}

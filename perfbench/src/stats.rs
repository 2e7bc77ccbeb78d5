//! Latency samples, percentiles, medians and process memory.

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latencies of one operation class, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.ms.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn mean(&self) -> f64 {
        if self.ms.is_empty() {
            return 0.0;
        }
        self.ms.iter().sum::<f64>() / self.ms.len() as f64
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.sorted(), 50.0)
    }

    /// The highest percentile with at least `k` samples beyond it: the
    /// `(k + 1)`-th largest sample, with its percentile.
    pub fn tail_beyond(&self, k: usize) -> (f64, f64) {
        let sorted = self.sorted();
        if sorted.len() <= k {
            return (sorted.first().copied().unwrap_or(0.0), 0.0);
        }
        let rank = sorted.len() - k;
        (sorted[rank - 1], 100.0 * rank as f64 / sorted.len() as f64)
    }

    /// The tail: percentile `p`, with how many samples lie beyond it.
    pub fn tail(&self, p: f64) -> (f64, usize) {
        let sorted = self.sorted();
        let v = percentile(&sorted, p);
        let beyond = sorted.iter().filter(|&&x| x > v).count();
        (v, beyond)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Read figures of a closed loop as medians over fixed windows, so a
/// stall of the shared machine moves one window, not the run.
#[derive(Debug, Clone, Copy)]
pub struct Windowed {
    pub qps: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub windows: usize,
    /// The fewest samples beyond the tail percentile in any window.
    pub min_beyond: usize,
}

/// Split `(completed_at_s, ms)` samples into the full `width`-second
/// windows of `span` seconds; per window take the rate, the median and
/// percentile `pct`; report the median of each over the windows.
pub fn windowed(samples: &[(f64, f64)], width: f64, span: f64, pct: f64) -> Windowed {
    let n = ((span / width).floor() as usize).max(1);
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, ms) in samples {
        let w = (at / width) as usize;
        if w < n {
            buckets[w].push(ms);
        }
    }
    let (mut qps, mut p50, mut tail, mut min_beyond) =
        (Vec::new(), Vec::new(), Vec::new(), usize::MAX);
    for b in buckets.iter_mut().filter(|b| !b.is_empty()) {
        b.sort_by(f64::total_cmp);
        qps.push(b.len() as f64 / width);
        p50.push(percentile(b, 50.0));
        let t = percentile(b, pct);
        tail.push(t);
        min_beyond = min_beyond.min(b.iter().filter(|&&x| x > t).count());
    }
    Windowed {
        qps: median(&qps),
        p50_ms: median(&p50),
        tail_ms: median(&tail),
        windows: qps.len(),
        min_beyond: if qps.is_empty() { 0 } else { min_beyond },
    }
}

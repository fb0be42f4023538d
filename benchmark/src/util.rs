//! Small dependency-free helpers: seeded RNG, order statistics, process
//! memory, JSON string escaping.

/// SplitMix64: every generated key, goal and mix choice comes from one
/// of these, seeded from `--seed`, so the same seed gives the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Sorts the nanosecond samples and returns their nearest-rank `p`-th
/// percentile (`p` in 0..=100) in microseconds; 0 when empty.
pub fn percentile_us<T: Copy + Ord + Into<u64>>(samples: &mut [T], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1].into() as f64 / 1_000.0
}

/// Median of unsorted floats; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// on this workload reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB. 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Escapes a string for embedding in a JSON document.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a float as a JSON number with all its digits (non-finite
/// values, which no metric should produce, degrade to 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// One completed, verified op: when it finished (since the timed run
/// began) and how long the client waited for it. Eight bytes, so that
/// the process's peak memory does not follow its op count.
#[derive(Clone, Copy)]
pub struct Sample {
    end_ms: u32,
    latency_ns: u32,
}

impl Sample {
    /// A latency past 4.29 s saturates.
    pub fn new(end_ns: u64, latency_ns: u64) -> Sample {
        Sample {
            end_ms: (end_ns / 1_000_000) as u32,
            latency_ns: latency_ns.min(u32::MAX as u64) as u32,
        }
    }

    pub fn latency_ns(&self) -> u64 {
        self.latency_ns as u64
    }
}

/// Length of the windows the timed run is cut into.
const WINDOW_MS: u64 = 500;

/// Throughput and latency of the typical window.
pub struct Windowed {
    pub throughput_ops_s: f64,
    pub latency_p50_us: f64,
    pub latency_p95_us: f64,
    pub windows: usize,
}

/// Cuts the run into half-second windows by completion time, computes
/// throughput, p50 and p95 in each full window, and reports the median
/// window for each. A descheduled moment, a checkpoint, or a transient
/// scheduling state then moves a few windows, not the reported number.
/// Samples of all clients are pooled.
pub fn windowed(samples: &[Sample], run_ns: u64) -> Windowed {
    let run_ms = run_ns / 1_000_000;
    let full = ((run_ms / WINDOW_MS) as usize).max(1);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); full];
    for s in samples {
        if let Some(bucket) = buckets.get_mut((s.end_ms as u64 / WINDOW_MS) as usize) {
            bucket.push(s.latency_ns);
        }
    }
    let window_s = WINDOW_MS.min(run_ms.max(1)) as f64 / 1e3;
    let mut throughput = Vec::with_capacity(full);
    let mut p50 = Vec::with_capacity(full);
    let mut p95 = Vec::with_capacity(full);
    for bucket in &mut buckets {
        throughput.push(bucket.len() as f64 / window_s);
        if !bucket.is_empty() {
            p50.push(percentile_us(bucket, 50.0));
            p95.push(percentile_us(bucket, 95.0));
        }
    }
    Windowed {
        throughput_ops_s: median(&mut throughput),
        latency_p50_us: median(&mut p50),
        latency_p95_us: median(&mut p95),
        windows: full,
    }
}

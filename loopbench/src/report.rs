//! Metric tables, order statistics, run metadata and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics of an untraced run, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_us_p50", "us"),
    ("op_us_p99", "us"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("inject.first_chunk_us", "us"),
    ("inject.jobs_per_op", "count"),
    ("latch.return_us", "us"),
    ("sleep.notified_wakes_per_op", "count"),
    ("sleep.backstop_wakes_per_op", "count"),
    ("sleep.join_us", "us"),
    ("hybrid.workers_per_loop", "count"),
    ("hybrid.affinity", "ratio"),
    ("deque.pushes_per_op", "count"),
    ("deque.steals_per_op", "count"),
    ("registry.failed_sweeps_per_op", "count"),
    ("registry.steal_yield", "ratio"),
    ("lazy.assists_per_op", "count"),
    ("schedule.chunks_per_op", "count"),
    ("leaf.busy_frac", "ratio"),
    ("overhead.us_per_op", "us"),
    ("nas.mg.loops", "count"),
    ("nas.ft.loops", "count"),
    ("nas.ep.loops", "count"),
    ("nas.is.loops", "count"),
    ("nas.cg.loops", "count"),
    ("nas.mg.ms", "ms"),
    ("nas.ft.ms", "ms"),
    ("nas.ep.ms", "ms"),
    ("nas.is.ms", "ms"),
    ("nas.cg.ms", "ms"),
    ("micro.gbps_computed", "GB/s"),
    ("trace.overhead_frac", "ratio"),
    ("deque.push_pop_ns", "ns"),
    ("deque.steal_ns", "ns"),
    ("claim.try_claim_ns", "ns"),
    ("latch.count_set_ns", "ns"),
    ("latch.lock_wake_us", "us"),
];

/// Values for one declared metric table. Every declared metric is printed;
/// one the workload cannot measure prints as 0 and is named in a comment.
pub struct Metrics {
    decl: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(decl: &'static [(&'static str, &'static str)]) -> Self {
        Metrics { decl, values: vec![None; decl.len()] }
    }

    /// Record `name`; panics on a name the table does not declare.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .decl
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.decl.iter().position(|&(n, _)| n == name).and_then(|i| self.values[i])
    }

    /// Declared metrics this run left unmeasured.
    pub fn unmeasured(&self) -> Vec<&'static str> {
        self.decl.iter().zip(&self.values).filter(|(_, v)| v.is_none()).map(|(d, _)| d.0).collect()
    }

    /// The JSON object `{"name": {"value": v, "unit": "u"}, ...}`.
    fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (&(name, unit), v)) in self.decl.iter().zip(&self.values).enumerate() {
            let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}").unwrap();
        }
        s.push('}');
        s
    }
}

/// The result line: the last line the benchmark prints.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let correct = attempted > 0 && failed == 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// A uniform random sample of at most `cap` values (Algorithm R).
pub struct Reservoir {
    values: Vec<f64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    pub fn new(cap: usize) -> Self {
        Reservoir { values: Vec::with_capacity(cap), cap, seen: 0, rng: 0 }
    }

    pub fn push(&mut self, v: f64) {
        self.seen += 1;
        if self.values.len() < self.cap {
            self.values.push(v);
        } else {
            let j = splitmix64(&mut self.rng) % self.seen;
            if let Some(slot) = self.values.get_mut(j as usize) {
                *slot = v;
            }
        }
    }

    /// Median of the kept values (0 when empty).
    pub fn median(&self) -> f64 {
        median(&self.values)
    }

    pub fn into_sorted(mut self) -> Vec<f64> {
        self.values.sort_by(f64::total_cmp);
        self.values
    }
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nearest-rank percentile (`q` in 0..=1) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set (VmHWM) of this process in MB, 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working directory
/// (the benchmark runs from the repository root); `unknown` outside git.
pub fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            packed.lines().find(|l| l.ends_with(r)).map(|l| l[..l.len() - r.len()].to_string())
        }),
        None => Some(head.to_string()),
    };
    match rev.map(|r| r.trim().to_string()) {
        Some(r) if !r.is_empty() => r,
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn unset_metrics_print_as_zero_and_are_listed() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.5);
        assert_eq!(m.unmeasured().len(), END_TO_END.len() - 1);
        let line = result_line(3, 1, &m);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"rss_mb\": {\"value\": 0, \"unit\": \"MB\"}"));
    }

    #[test]
    fn reservoir_keeps_at_most_cap_values() {
        let mut r = Reservoir::new(100);
        (0..10_000).for_each(|i| r.push(f64::from(i)));
        let v = r.into_sorted();
        assert_eq!(v.len(), 100);
        assert!(v.windows(2).all(|w| w[0] <= w[1]) && v[99] > 5000.0);
    }
}

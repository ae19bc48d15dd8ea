//! Result plumbing shared by every workload: metric values that are either
//! measured or `null` with a reason, output-check accounting, in-memory
//! spans, order statistics, and the process facts (`VmHWM`) the end-to-end
//! metrics read.

use std::fmt::Write as _;
use std::time::Instant;

/// One metric: a measured number, or `null` with the reason it was not
/// measured. There is no "0 for unknown": an unmeasured field can never
/// read as a result.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Num(f64),
    Null(String),
}

/// Named metrics in insertion order, each with its unit.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, Value, &'static str)>,
}

impl Metrics {
    pub fn num(&mut self, name: &str, value: f64, unit: &'static str) {
        self.set(name, Value::Num(value), unit);
    }

    pub fn null(&mut self, name: &str, reason: &str, unit: &'static str) {
        self.set(name, Value::Null(reason.to_string()), unit);
    }

    /// `value` when present, otherwise `null` with `reason`.
    pub fn opt(&mut self, name: &str, value: Option<f64>, reason: &str, unit: &'static str) {
        match value {
            Some(v) => self.num(name, v, unit),
            None => self.null(name, reason, unit),
        }
    }

    pub fn set(&mut self, name: &str, value: Value, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| v)
    }

    /// The metric's value when it is a number.
    pub fn number(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            Value::Num(v) => Some(*v),
            Value::Null(_) => None,
        }
    }

    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, u)| *u)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (name, value, unit) in other.entries {
            self.set(&name, value, unit);
        }
    }

    /// `{"name": {"value": x|null, "unit": u[, "reason": r]}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {{\"value\": ", json_str(name));
            match value {
                Value::Num(v) => out.push_str(&json_num(*v)),
                Value::Null(reason) => {
                    let _ = write!(out, "null, \"reason\": {}", json_str(reason));
                }
            }
            let _ = write!(out, ", \"unit\": {}}}", json_str(unit));
        }
        out.push('}');
        out
    }
}

/// Output-check accounting: every operation a workload attempts is counted,
/// and every outcome the workload cannot explain is a failure with a
/// message (the first few are kept for the report).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Check {
    pub fn fail(&mut self, message: impl Into<String>) {
        self.fail_n(1, message);
    }

    pub fn fail_n(&mut self, n: u64, message: impl Into<String>) {
        self.failed += n;
        if self.messages.len() < 8 {
            self.messages.push(message.into());
        }
    }

    pub fn absorb(&mut self, other: Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// A span recorded from the benchmark's side of a layer boundary.
#[derive(Clone, Debug)]
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name span totals: `self_ns` is the total minus the time covered by
/// child spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// In-memory span recorder. Disabled, `enter`/`exit` do nothing; enabled,
/// spans nest by call order and stay in memory until [`Tracer::to_json`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("exit matches an enter");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Totals for one span name (all zero when never recorded).
    pub fn totals(&self, name: &str) -> SpanTotals {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end_ns - s.start_ns;
            }
        }
        let mut t = SpanTotals::default();
        for (s, child_ns) in self.spans.iter().zip(children) {
            if s.name != name {
                continue;
            }
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns);
        }
        t
    }

    /// Aggregated span table, one entry per name in first-seen order.
    pub fn to_json(&self) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut out = String::from("{");
        for (i, name) in names.iter().enumerate() {
            let t = self.totals(name);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                json_str(name),
                t.count,
                t.total_ns,
                t.self_ns
            );
        }
        out.push('}');
        out
    }
}

/// `NextEventCache` effectiveness from its harvested counters: the share of
/// refresh calls the cache absorbed outright, and children re-probed per
/// refresh that had work (`null`, with `no_refresh_reason`, when none did).
pub fn cache_metrics(
    m: &mut Metrics,
    refreshes: u64,
    hot_hits: u64,
    probes: u64,
    volatile_probes: u64,
    no_refresh_reason: &str,
) {
    let calls = refreshes + hot_hits;
    m.opt(
        "sim.cache.hot_hit_ratio",
        (calls > 0).then(|| hot_hits as f64 / calls as f64),
        no_refresh_reason,
        "ratio",
    );
    m.opt(
        "sim.cache.probes_per_refresh",
        (refreshes > 0).then(|| probes as f64 / refreshes as f64),
        no_refresh_reason,
        "probes",
    );
    m.num("sim.cache.volatile_probes", volatile_probes as f64, "count");
}

/// Each operation's median wall time over a run's repeats. `repeats[r][i]`
/// is operation `i` (a wave of the day, a scenario of the fleet) in repeat
/// `r`; every repeat does the same deterministic work (the digest check
/// proves it), so an operation's repeats are samples of one cost.
pub fn median_per_op(repeats: &[Vec<f64>]) -> Vec<f64> {
    let first = repeats.first().expect("at least one repeat");
    (0..first.len())
        .map(|i| median(&repeats.iter().map(|r| r[i]).collect::<Vec<_>>()))
        .collect()
}

/// Whether one more unit of work (a day, a fleet) that takes about as long
/// as the last one, `unit_s`, still ends within `seconds` of `start`; a run
/// then ends inside its budget rather than overrunning it by up to a unit.
pub fn fits_another(start: Instant, unit_s: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + unit_s <= seconds
}

/// Median of a sample (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` (the "inclusive" method).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a, folded incrementally over byte slices.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB; `None`
/// where procfs is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON form; non-finite values cannot be encoded and
/// indicate a bug in the metric, so they panic.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn median_per_op_is_taken_per_operation() {
        let repeats = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 2.0, 0.0],
        ];
        assert_eq!(median_per_op(&repeats), vec![3.0, 2.0, 5.0]);
    }

    #[test]
    fn null_metrics_carry_their_reason() {
        let mut m = Metrics::default();
        m.opt("a", None, "not compiled in", "count");
        m.num("b", 1.5, "ms");
        assert_eq!(
            m.to_json(),
            r#"{"a": {"value": null, "reason": "not compiled in", "unit": "count"}, "b": {"value": 1.5, "unit": "ms"}}"#
        );
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.enter("outer");
        t.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let outer = t.totals("outer");
        let inner = t.totals("inner");
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }
}

//! A session-level metrics registry: counters, gauges and fixed-bucket
//! histograms with deterministic (sorted-name) ordering.
//!
//! The registry is thread-safe behind one mutex; for hot paths (the
//! batch compile workers) the intended pattern is a *worker-local*
//! registry that is [`merge`](MetricsRegistry::merge)d into the shared
//! one when the worker joins, so the lock is taken once per worker
//! rather than once per observation. Several observations of one event
//! go through one [`lock`](MetricsRegistry::lock).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Mutex, MutexGuard};

use crate::json;

/// Counter bumped (in the destination registry) for every metric a
/// [`MetricsRegistry::merge`] had to refuse — a histogram arriving with
/// different bucket bounds, or a metric arriving under a name already
/// registered as a different type.
pub const MERGE_ERRORS: &str = "trace_merge_errors";

/// Escapes a label *value* for the Prometheus exposition format:
/// backslash, double quote and line feed must be written as `\\`, `\"`
/// and `\n` — label values are attacker-influenced (kernel names flow
/// into them), and an unescaped quote or newline would let one hostile
/// name corrupt the whole scrape.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    push_escaped(&mut out, v);
    out
}

/// Appends `v` to `out`, escaped as [`escape_label_value`] escapes it.
fn push_escaped(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// The canonical registry key for `name` under `labels`:
/// `name{k="v",...}` with each value escaped by [`escape_label_value`].
/// With no labels the key is just `name`. Labeled and unlabeled series
/// of the same name coexist; [`MetricsRegistry::merge`] matches on the
/// full key, so per-label series fold independently.
pub fn labeled_key(name: &str, labels: &[(&str, &str)]) -> String {
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    push_labeled_key(&mut key, name, labels);
    key
}

/// Appends [`labeled_key`]`(name, labels)` to `key`.
fn push_labeled_key(key: &mut String, name: &str, labels: &[(&str, &str)]) {
    key.push_str(name);
    if labels.is_empty() {
        return;
    }
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(k);
        key.push_str("=\"");
        push_escaped(key, v);
        key.push('"');
    }
    key.push('}');
}

/// Splits a registry key into its base name and (when present) the
/// brace-delimited label part, `", "`-joinable into bucket lines.
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.find('{') {
        Some(ix) => (&key[..ix], Some(&key[ix + 1..key.len() - 1])),
        None => (key, None),
    }
}

/// One named metric's current value.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time value (last write wins).
    Gauge(f64),
    /// A fixed-bucket distribution.
    Histogram(Histogram),
}

/// A fixed-bucket histogram: `bounds` are ascending upper bounds, with an
/// implicit `+Inf` bucket at the end, so `counts.len() == bounds.len() + 1`.
/// Bucket counts are stored non-cumulatively; the Prometheus exporter
/// renders the conventional cumulative `_bucket` series.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Ascending upper bounds (exclusive of the implicit `+Inf`).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of every observed value.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    /// An empty histogram over ascending upper `bounds` (an implicit
    /// `+Inf` bucket is appended).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend: {bounds:?}");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], sum: 0.0, count: 0 }
    }

    /// Records one observation into its bucket.
    pub fn observe(&mut self, v: f64) {
        let ix = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[ix] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) estimated by deterministic
    /// linear interpolation within the fixed buckets — the same
    /// estimate `histogram_quantile` computes server-side, but without
    /// a Prometheus in the loop, so p50/p99 gates can run in tests and
    /// CI on the raw registry.
    ///
    /// The distribution is assumed non-negative (the first bucket
    /// interpolates from 0); a quantile landing in the implicit `+Inf`
    /// bucket reports the highest finite bound, which *under*-estimates
    /// — pick bounds that comfortably cover any value a gate must
    /// detect. Empty histograms report 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let before = cumulative;
            cumulative += c;
            if c > 0 && cumulative as f64 >= rank {
                if i == self.bounds.len() {
                    return self.bounds.last().copied().unwrap_or(0.0);
                }
                let upper = self.bounds[i];
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = ((rank - before as f64) / c as f64).clamp(0.0, 1.0);
                return lower + (upper - lower) * frac;
            }
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Adds `other`'s observations into `self`. Returns `false` — and
    /// changes *nothing* — when the bucket bounds differ: folding counts
    /// into foreign buckets would silently corrupt the distribution,
    /// which is exactly the bug this used to have (a `debug_assert!`
    /// that release builds compiled away, followed by a wrong-bucket
    /// merge). [`MetricsRegistry::merge`] turns a refusal into a
    /// `trace_merge_errors` count.
    #[must_use]
    fn absorb(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
        true
    }
}

/// A thread-safe registry of named metrics with deterministic ordering.
///
/// ```
/// use record_trace::MetricsRegistry;
///
/// let m = MetricsRegistry::new();
/// m.inc("compiles_total");
/// m.observe("latency_us", &[100.0, 1000.0], 250.0);
/// let text = m.render_prometheus();
/// assert!(text.contains("compiles_total 1"));
/// assert!(text.contains("latency_us_bucket{le=\"1000\"} 1"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Series>,
}

/// The registry's metrics, by key, and a buffer labeled keys are built
/// in, so counting an existing labeled series allocates nothing.
#[derive(Debug, Default)]
struct Series {
    metrics: BTreeMap<String, Metric>,
    key: String,
}

/// A [`MetricsRegistry`] held locked, from [`MetricsRegistry::lock`]: the
/// observations made through it take the registry's lock once.
pub struct Locked<'a>(MutexGuard<'a, Series>);

impl Locked<'_> {
    /// Adds `n` to the counter `name` (created at zero on first use).
    pub fn add(&mut self, name: &str, n: u64) {
        // the key is allocated only when the series is new
        let metrics = &mut self.0.metrics;
        match metrics.get_mut(name) {
            Some(Metric::Counter(c)) => *c += n,
            Some(other) => debug_assert!(false, "{name} is not a counter: {other:?}"),
            None => {
                metrics.insert(name.to_string(), Metric::Counter(n));
            }
        }
    }

    /// Adds 1 to the counter `name`.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the counter `name` under `labels` (see
    /// [`MetricsRegistry::add_with`]). The key is built in the registry's
    /// buffer, so an existing series is counted without allocating.
    pub fn add_with(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        let Series { metrics, key } = &mut *self.0;
        key.clear();
        push_labeled_key(key, name, labels);
        match metrics.get_mut(key.as_str()) {
            Some(Metric::Counter(c)) => *c += n,
            Some(other) => debug_assert!(false, "{key} is not a counter: {other:?}"),
            None => {
                metrics.insert(key.clone(), Metric::Counter(n));
            }
        }
    }

    /// Sets the gauge `name` to `v` (last write wins).
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        let metrics = &mut self.0.metrics;
        match metrics.get_mut(name) {
            Some(Metric::Gauge(g)) => *g = v,
            Some(other) => debug_assert!(false, "{name} is not a gauge: {other:?}"),
            None => {
                metrics.insert(name.to_string(), Metric::Gauge(v));
            }
        }
    }

    /// Records `v` into the histogram `name`, creating it with `bounds`
    /// on first use (later calls must pass the same bounds).
    pub fn observe(&mut self, name: &str, bounds: &[f64], v: f64) {
        let metrics = &mut self.0.metrics;
        match metrics.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(v),
            Some(other) => debug_assert!(false, "{name} is not a histogram: {other:?}"),
            None => {
                let mut h = Histogram::new(bounds);
                h.observe(v);
                metrics.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The registry, locked until the result is dropped: a batch of
    /// observations of one event takes the lock once. Do not call the
    /// registry's other methods on this thread while it is held.
    pub fn lock(&self) -> Locked<'_> {
        Locked(self.inner.lock().expect("metrics lock"))
    }

    /// Adds `n` to the counter `name` (created at zero on first use).
    pub fn add(&self, name: &str, n: u64) {
        self.lock().add(name, n);
    }

    /// Adds 1 to the counter `name`.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the counter `name` under `labels` (one independent
    /// series per distinct label set; values escaped at key time, so
    /// hostile label values can never break the exposition text).
    pub fn add_with(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        self.lock().add_with(name, labels, n);
    }

    /// Adds 1 to the counter `name` under `labels`.
    pub fn inc_with(&self, name: &str, labels: &[(&str, &str)]) {
        self.add_with(name, labels, 1);
    }

    /// Sets the gauge `name` under `labels` to `v`.
    pub fn set_gauge_with(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        self.set_gauge(&labeled_key(name, labels), v);
    }

    /// Records `v` into the histogram `name` under `labels`.
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64], v: f64) {
        self.observe(&labeled_key(name, labels), bounds, v);
    }

    /// Convenience: the counter `name` under `labels` (0 when absent).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counter(&labeled_key(name, labels))
    }

    /// Sums every counter series of `name` across all label sets (the
    /// bare unlabeled series included).
    pub fn counter_sum(&self, name: &str) -> u64 {
        let inner = self.inner.lock().expect("metrics lock");
        inner
            .metrics
            .iter()
            .filter(|(key, _)| split_key(key).0 == name)
            .filter_map(|(_, m)| match m {
                Metric::Counter(c) => Some(c),
                _ => None,
            })
            .sum()
    }

    /// Sets the gauge `name` to `v` (last write wins).
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.lock().set_gauge(name, v);
    }

    /// Records `v` into the histogram `name`, creating it with `bounds`
    /// on first use (later calls must pass the same bounds).
    pub fn observe(&self, name: &str, bounds: &[f64], v: f64) {
        self.lock().observe(name, bounds, v);
    }

    /// The current value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.inner.lock().expect("metrics lock").metrics.get(name).cloned()
    }

    /// Convenience: the counter `name`'s value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric::Counter(c)) => c,
            _ => 0,
        }
    }

    /// Every metric, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, Metric> {
        self.inner.lock().expect("metrics lock").metrics.clone()
    }

    /// Folds `other` into `self`: counters and histograms add, gauges
    /// take `other`'s value. This is the worker-join aggregation path.
    ///
    /// An incompatible pair — a counter arriving under a gauge's name,
    /// or two histograms with different bucket bounds — **refuses to
    /// merge**: the existing metric is left untouched, the incoming one
    /// dropped, and the [`MERGE_ERRORS`] counter (`trace_merge_errors`)
    /// incremented in `self`, so the corruption is counted instead of
    /// silently folded into the wrong buckets.
    pub fn merge(&self, other: &MetricsRegistry) {
        let theirs = other.snapshot();
        let mut guard = self.inner.lock().expect("metrics lock");
        let inner = &mut guard.metrics;
        let mut refused = 0u64;
        for (name, metric) in theirs {
            match (inner.get_mut(&name), metric) {
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a += b,
                (Some(Metric::Gauge(a)), Metric::Gauge(b)) => *a = b,
                (Some(Metric::Histogram(a)), Metric::Histogram(ref b)) => {
                    if !a.absorb(b) {
                        refused += 1;
                    }
                }
                (Some(_), _) => refused += 1,
                (None, metric) => {
                    inner.insert(name, metric);
                }
            }
        }
        if refused > 0 {
            // if the error counter itself was registered as something
            // else, there is nothing sane left to do but leave it alone
            if let Metric::Counter(c) =
                inner.entry(MERGE_ERRORS.to_string()).or_insert(Metric::Counter(0))
            {
                *c += refused;
            }
        }
    }

    /// Renders the registry as flat Prometheus-style exposition text,
    /// metrics sorted by name, histograms as cumulative `_bucket` /
    /// `_sum` / `_count` series. Labeled series (registered through the
    /// `*_with` methods) render with their label sets; a `# TYPE` line
    /// is emitted once per base name even when many label sets share it.
    /// Every metric block — and the document itself — ends with a
    /// trailing newline, and label values arrive pre-escaped
    /// ([`escape_label_value`]), so hostile kernel names can never smear
    /// one series into the next.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed_bases = std::collections::BTreeSet::new();
        for (key, metric) in self.snapshot() {
            let (base, labels) = split_key(&key);
            let mut typed = |t: &str, out: &mut String| {
                if typed_bases.insert(base.to_string()) {
                    out.push_str(&format!("# TYPE {base} {t}\n"));
                }
            };
            match metric {
                Metric::Counter(c) => {
                    typed("counter", &mut out);
                    out.push_str(&format!("{key} {c}\n"));
                }
                Metric::Gauge(g) => {
                    typed("gauge", &mut out);
                    let mut v = String::new();
                    json::push_f64(&mut v, g);
                    out.push_str(&format!("{key} {v}\n"));
                }
                Metric::Histogram(h) => {
                    typed("histogram", &mut out);
                    // `le` joins any existing labels inside one brace set
                    let with_le = |le: &str| match labels {
                        Some(l) => format!("{base}_bucket{{{l},le=\"{le}\"}}"),
                        None => format!("{base}_bucket{{le=\"{le}\"}}"),
                    };
                    let mut cumulative = 0u64;
                    for (bound, count) in h.bounds.iter().zip(&h.counts) {
                        cumulative += count;
                        let mut b = String::new();
                        json::push_f64(&mut b, *bound);
                        out.push_str(&format!("{} {cumulative}\n", with_le(&b)));
                    }
                    out.push_str(&format!("{} {}\n", with_le("+Inf"), h.count));
                    let mut sum = String::new();
                    json::push_f64(&mut sum, h.sum);
                    let series = |suffix: &str| match labels {
                        Some(l) => format!("{base}_{suffix}{{{l}}}"),
                        None => format!("{base}_{suffix}"),
                    };
                    out.push_str(&format!(
                        "{} {sum}\n{} {}\n",
                        series("sum"),
                        series("count"),
                        h.count
                    ));
                }
            }
        }
        debug_assert!(out.is_empty() || out.ends_with('\n'));
        if !out.is_empty() && !out.ends_with('\n') {
            out.push('\n');
        }
        out
    }

    /// Writes [`render_prometheus`](Self::render_prometheus) to `w`.
    ///
    /// # Errors
    ///
    /// Any I/O error from `w`.
    pub fn write_prometheus(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(self.render_prometheus().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register() {
        let m = MetricsRegistry::new();
        m.inc("a_total");
        m.add("a_total", 4);
        m.set_gauge("ratio", 0.5);
        m.set_gauge("ratio", 0.75);
        assert_eq!(m.get("a_total"), Some(Metric::Counter(5)));
        assert_eq!(m.get("ratio"), Some(Metric::Gauge(0.75)));
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn histogram_buckets_fill_correctly() {
        let m = MetricsRegistry::new();
        let bounds = [10.0, 100.0];
        for v in [5.0, 10.0, 11.0, 250.0] {
            m.observe("h", &bounds, v);
        }
        let Some(Metric::Histogram(h)) = m.get("h") else { panic!("missing histogram") };
        assert_eq!(h.counts, vec![2, 1, 1], "10.0 lands in the le=10 bucket");
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 276.0);
        assert_eq!(h.mean(), 69.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[10.0, 100.0, 1000.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");
        // 10 observations spread evenly through the (10, 100] bucket
        for _ in 0..10 {
            h.observe(50.0);
        }
        // rank 5 of 10, all in one bucket: halfway through (10, 100]
        assert_eq!(h.quantile(0.5), 55.0);
        assert_eq!(h.quantile(1.0), 100.0, "p100 is the bucket's upper bound");
        // first bucket interpolates from zero
        let mut lo = Histogram::new(&[10.0, 100.0]);
        lo.observe(1.0);
        lo.observe(2.0);
        assert_eq!(lo.quantile(0.5), 5.0, "half of (0, 10]");
        // a quantile in the +Inf bucket reports the last finite bound
        let mut inf = Histogram::new(&[10.0]);
        inf.observe(1e9);
        assert_eq!(inf.quantile(0.99), 10.0);
        // deterministic: same observations, same estimate
        assert_eq!(h.quantile(0.99), h.quantile(0.99));
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0, 1000.0]);
        for v in [0.5, 3.0, 7.0, 20.0, 80.0, 500.0, 900.0, 5000.0] {
            h.observe(v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        for w in qs.windows(2) {
            assert!(
                h.quantile(w[0]) <= h.quantile(w[1]),
                "quantile must be monotone: q={} -> {}, q={} -> {}",
                w[0],
                h.quantile(w[0]),
                w[1],
                h.quantile(w[1])
            );
        }
    }

    #[test]
    fn merge_folds_worker_registries() {
        let shared = MetricsRegistry::new();
        shared.add("n_total", 1);
        shared.observe("h", &[10.0], 3.0);
        let local = MetricsRegistry::new();
        local.add("n_total", 2);
        local.observe("h", &[10.0], 30.0);
        local.set_gauge("g", 9.0);
        shared.merge(&local);
        assert_eq!(shared.get("n_total"), Some(Metric::Counter(3)));
        assert_eq!(shared.get("g"), Some(Metric::Gauge(9.0)));
        let Some(Metric::Histogram(h)) = shared.get("h") else { panic!() };
        assert_eq!(h.counts, vec![1, 1]);
        assert_eq!(h.count, 2);
    }

    #[test]
    fn merge_refuses_mismatched_histogram_buckets() {
        // regression: this used to debug_assert (stripped in release) and
        // then fold the counts into the wrong buckets anyway
        let shared = MetricsRegistry::new();
        shared.observe("h", &[10.0, 100.0], 3.0);
        let local = MetricsRegistry::new();
        local.observe("h", &[5.0], 3.0);
        shared.merge(&local);
        let Some(Metric::Histogram(h)) = shared.get("h") else { panic!() };
        assert_eq!(h.bounds, vec![10.0, 100.0], "destination buckets untouched");
        assert_eq!(h.count, 1, "foreign observations not folded in");
        assert_eq!(shared.counter(MERGE_ERRORS), 1);
    }

    #[test]
    fn merge_refuses_type_mismatches_and_counts_them() {
        let shared = MetricsRegistry::new();
        shared.inc("x");
        shared.set_gauge("y", 1.0);
        let local = MetricsRegistry::new();
        local.set_gauge("x", 2.0); // counter vs gauge
        local.inc("y"); // gauge vs counter
        local.inc("z"); // clean
        shared.merge(&local);
        assert_eq!(shared.get("x"), Some(Metric::Counter(1)), "counter survives");
        assert_eq!(shared.get("y"), Some(Metric::Gauge(1.0)), "gauge survives");
        assert_eq!(shared.counter("z"), 1);
        assert_eq!(shared.counter(MERGE_ERRORS), 2);
    }

    #[test]
    fn prometheus_text_is_sorted_and_cumulative() {
        let m = MetricsRegistry::new();
        m.observe("zz_lat", &[1.0, 2.0], 0.5);
        m.observe("zz_lat", &[1.0, 2.0], 1.5);
        m.observe("zz_lat", &[1.0, 2.0], 99.0);
        m.inc("aa_total");
        let text = m.render_prometheus();
        let aa = text.find("aa_total").unwrap();
        let zz = text.find("zz_lat").unwrap();
        assert!(aa < zz, "sorted by name:\n{text}");
        assert!(text.contains("zz_lat_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("zz_lat_bucket{le=\"2\"} 2\n"), "cumulative: {text}");
        assert!(text.contains("zz_lat_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("zz_lat_count 3\n"), "{text}");
    }
}

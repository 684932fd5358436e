//! Hierarchical metrics registry with first-class snapshot, diff and
//! rate-over-window.
//!
//! Every layer of the reproduction keeps its counters as plain struct
//! fields ([`Counter`](crate::stats::Counter), [`Histogram`],
//! [`RateMeter`]) — cheap to bump on
//! the hot path and directly assertable in unit tests. This module adds
//! the *read side* real serving stacks have: each layer implements
//! [`Instrumented`] once, naming its instruments into a [`MetricSink`],
//! and every consumer (chaos snapshots, example printouts, bench JSON, CI
//! determinism gates) walks the resulting [`MetricsSnapshot`] instead of
//! hand-formatting its own subset of fields.
//!
//! ## Paths
//!
//! Metrics are addressed by stable dotted paths assembled from nested
//! scopes: a rack absorbs each server under `srv{N}`, a server absorbs
//! each DIMM under `dimm{M}` and its driver stats under `driver`, so the
//! host driver's ring-reset counter of DIMM 1 on server 0 is
//! `srv0.driver.ring_resets` and the DIMM-side crash counter is
//! `srv0.dimm1.driver.crashes`. Paths are unique — [`MetricSink::finish`]
//! panics on a duplicate, so a registration bug fails loudly in every
//! test that takes a snapshot.
//!
//! ## Snapshot, diff, rate
//!
//! ```
//! use mcn_sim::metrics::{Instrumented, MetricSink, MetricsSnapshot};
//! use mcn_sim::SimTime;
//!
//! struct Port { frames: u64 }
//! impl Instrumented for Port {
//!     fn metrics(&self, out: &mut MetricSink) {
//!         out.counter("frames", self.frames);
//!     }
//! }
//!
//! let before = MetricsSnapshot::collect(&Port { frames: 10 });
//! let after = MetricsSnapshot::collect(&Port { frames: 70 });
//! let delta = after.diff(&before);
//! assert_eq!(delta.get_u64("frames"), 60);
//! let rate = after.rate_per_sec(&before, SimTime::from_secs(2));
//! assert_eq!(rate.get("frames").unwrap().as_f64(), 30.0);
//! ```
//!
//! Both renderers are deterministic: entries are sorted by path and
//! formatted without any ambient state, so two same-seed simulation runs
//! produce byte-identical text and JSON (the CI chaos gate diffs them).

use std::fmt;

use crate::stats::{Histogram, RateMeter};
use crate::SimTime;

/// A single metric reading.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A monotone count (events, bytes, picoseconds).
    U64(u64),
    /// A derived measurement (a rate, a ratio, seconds of wall time).
    F64(f64),
    /// A label riding along with the numbers (a workload name).
    Text(String),
}

impl MetricValue {
    /// The value as `f64` (text labels read as 0).
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::U64(v) => *v as f64,
            MetricValue::F64(v) => *v,
            MetricValue::Text(_) => 0.0,
        }
    }

    /// JSON rendering of just the value (numbers bare, text quoted,
    /// non-finite floats as `null`).
    fn render_json(&self, out: &mut String) {
        use std::fmt::Write;
        match self {
            MetricValue::U64(v) => write!(out, "{v}").unwrap(),
            MetricValue::F64(v) if v.is_finite() => write!(out, "{v}").unwrap(),
            MetricValue::F64(_) => out.push_str("null"),
            MetricValue::Text(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::U64(v) => write!(f, "{v}"),
            MetricValue::F64(v) => write!(f, "{v}"),
            MetricValue::Text(s) => write!(f, "{s}"),
        }
    }
}

/// A layer that can name its instruments into a [`MetricSink`].
///
/// Implementations emit paths *relative to their own scope*; owners embed
/// them under a segment with [`MetricSink::absorb`]. That is what makes
/// paths stable across embeddings: a standalone `McnSystem` and the same
/// system inside a rack's `srv0` scope register the identical relative
/// tree.
pub trait Instrumented {
    /// Registers every instrument of this layer (and its children) into
    /// `out`.
    fn metrics(&self, out: &mut MetricSink);
}

/// Collects `(dotted path, value)` pairs while walking an
/// [`Instrumented`] tree.
///
/// The sink keeps the current scope prefix; leaf methods
/// ([`counter`](MetricSink::counter), [`value`](MetricSink::value),
/// [`histogram`](MetricSink::histogram), ...) record under it and
/// [`scoped`](MetricSink::scoped)/[`absorb`](MetricSink::absorb) push a
/// path segment for the duration of a closure or child walk.
#[derive(Debug, Default)]
pub struct MetricSink {
    prefix: String,
    entries: Vec<(String, MetricValue)>,
}

impl MetricSink {
    /// An empty sink with no scope prefix.
    pub fn new() -> Self {
        Self::default()
    }

    fn path(&self, name: &str) -> String {
        debug_assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_graphic() && c != '"'),
            "metric name {name:?} must be non-empty printable ASCII"
        );
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }

    /// Records a monotone counter reading.
    pub fn counter(&mut self, name: &str, value: u64) {
        let p = self.path(name);
        self.entries.push((p, MetricValue::U64(value)));
    }

    /// Records a derived floating-point measurement.
    pub fn value(&mut self, name: &str, value: f64) {
        let p = self.path(name);
        self.entries.push((p, MetricValue::F64(value)));
    }

    /// Records a text label.
    pub fn text(&mut self, name: &str, value: &str) {
        let p = self.path(name);
        self.entries.push((p, MetricValue::Text(value.to_string())));
    }

    /// Records a [`Histogram`] as its deterministic summary:
    /// `name.count`, `name.min_ps`, `name.mean_ps`, `name.p50_ps`,
    /// `name.p99_ps`, `name.p999_ps`, `name.max_ps` (the time points are 0
    /// when the histogram is empty).
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        let ps = |t: Option<SimTime>| t.map_or(0, |t| t.as_ps());
        self.scoped(name, |out| {
            out.counter("count", h.count());
            out.counter("min_ps", ps(h.min()));
            out.counter("mean_ps", ps(h.mean()));
            out.counter("p50_ps", ps(h.percentile(50.0)));
            out.counter("p99_ps", ps(h.percentile(99.0)));
            out.counter("p999_ps", ps(h.percentile(99.9)));
            out.counter("max_ps", ps(h.max()));
        });
    }

    /// Records a [`RateMeter`] window as `name.bytes` and
    /// `name.elapsed_ps` (the achieved rate is derivable and kept out of
    /// the registry so snapshots stay integer-exact).
    pub fn meter(&mut self, name: &str, m: &RateMeter) {
        self.scoped(name, |out| {
            out.counter("bytes", m.bytes());
            out.counter("elapsed_ps", m.elapsed().as_ps());
        });
    }

    /// Runs `f` with `segment` pushed onto the scope prefix.
    pub fn scoped<F: FnOnce(&mut MetricSink)>(&mut self, segment: &str, f: F) {
        let saved = self.prefix.len();
        if !self.prefix.is_empty() {
            self.prefix.push('.');
        }
        self.prefix.push_str(segment);
        f(self);
        self.prefix.truncate(saved);
    }

    /// Registers `child`'s whole tree under `segment`.
    pub fn absorb(&mut self, segment: &str, child: &dyn Instrumented) {
        self.scoped(segment, |out| child.metrics(out));
    }

    /// Replays every entry of an already-sealed snapshot under `segment`.
    ///
    /// This is the merge primitive of the sweep runner: per-cell result
    /// trees (loaded back from their done-marker files) are mounted into
    /// one merged registry under disjoint `cells.<id>` prefixes. Because
    /// [`finish`](MetricSink::finish) sorts by path and panics on
    /// duplicates, mounting disjoint subtrees is commutative — any mount
    /// order produces the identical sealed snapshot.
    pub fn absorb_snapshot(&mut self, segment: &str, snap: &MetricsSnapshot) {
        self.scoped(segment, |out| {
            for (path, value) in snap.iter() {
                let p = out.path(path);
                out.entries.push((p, value.clone()));
            }
        });
    }

    /// Seals the sink into a sorted snapshot.
    ///
    /// Panics if two registrations produced the same path — duplicate
    /// paths are a wiring bug and must not silently shadow each other.
    pub fn finish(mut self) -> MetricsSnapshot {
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
        for w in self.entries.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "duplicate metric path registered: {}",
                w[0].0
            );
        }
        MetricsSnapshot {
            entries: self.entries,
        }
    }
}

/// An immutable, path-sorted reading of a whole [`Instrumented`] tree.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Sorted by path, paths unique.
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Walks `root` and seals the result (see [`MetricSink::finish`]).
    pub fn collect(root: &dyn Instrumented) -> Self {
        let mut sink = MetricSink::new();
        root.metrics(&mut sink);
        sink.finish()
    }

    /// Number of registered paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(path, value)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(p, v)| (p.as_str(), v))
    }

    /// Looks up one path.
    pub fn get(&self, path: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Looks up a counter by path.
    ///
    /// Panics when the path is missing or not a [`MetricValue::U64`]:
    /// consumers name exact registry paths, and a typo must fail loudly
    /// rather than read as zero.
    pub fn get_u64(&self, path: &str) -> u64 {
        match self.get(path) {
            Some(MetricValue::U64(v)) => *v,
            Some(other) => panic!("metric {path} is {other:?}, not a counter"),
            None => panic!("metric path {path} not registered"),
        }
    }

    /// Per-path difference `self - baseline` (counters saturate at zero,
    /// floats subtract, text is carried over from `self`). Paths missing
    /// from `baseline` diff against zero; paths only in `baseline` are
    /// dropped.
    pub fn diff(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let entries = self
            .entries
            .iter()
            .map(|(p, v)| {
                let d = match (v, baseline.get(p)) {
                    (MetricValue::U64(a), Some(MetricValue::U64(b))) => {
                        MetricValue::U64(a.saturating_sub(*b))
                    }
                    (MetricValue::F64(a), Some(MetricValue::F64(b))) => MetricValue::F64(a - b),
                    (v, _) => v.clone(),
                };
                (p.clone(), d)
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Rate-over-window: `(self - baseline) / window` per numeric path,
    /// as [`MetricValue::F64`] per-second rates (text entries are
    /// dropped; an empty window yields zeros).
    pub fn rate_per_sec(&self, baseline: &MetricsSnapshot, window: SimTime) -> MetricsSnapshot {
        let secs = window.as_secs_f64();
        let entries = self
            .diff(baseline)
            .entries
            .into_iter()
            .filter(|(_, v)| !matches!(v, MetricValue::Text(_)))
            .map(|(p, v)| {
                let rate = if secs > 0.0 { v.as_f64() / secs } else { 0.0 };
                (p, MetricValue::F64(rate))
            })
            .collect();
        MetricsSnapshot { entries }
    }

    /// Deterministic `path = value` lines, one per entry, sorted by path.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (p, v) in &self.entries {
            writeln!(s, "{p} = {v}").unwrap();
        }
        s
    }

    /// Parses the flat JSON produced by [`to_json`](Self::to_json) back
    /// into a snapshot.
    ///
    /// This is deliberately a parser for *our own renderer's* output —
    /// one flat object, one `"path": value` entry per line — not a
    /// general JSON reader (the workspace vendors no JSON crate). It is
    /// the read side of the sweep runner's done-marker files: a cell
    /// result written by `to_json` round-trips byte-identically through
    /// `parse_flat_json(...).to_json()`. Integer-valued floats that the
    /// renderer printed without a decimal point read back as counters;
    /// that is fine because every consumer of a reloaded snapshot either
    /// re-renders it (identical bytes either way) or reads counters.
    ///
    /// Returns `Err` with a line-numbered message on anything the
    /// renderer could not have produced.
    pub fn parse_flat_json(text: &str) -> Result<MetricsSnapshot, String> {
        let mut entries = Vec::new();
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "{")) => {}
            other => return Err(format!("expected '{{' on line 1, got {other:?}")),
        }
        let mut closed = false;
        for (i, line) in lines {
            let err = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
            if closed {
                return Err(err("content after closing '}'"));
            }
            if line == "}" {
                closed = true;
                continue;
            }
            let body = line
                .strip_prefix("  \"")
                .ok_or_else(|| err("expected two-space-indented \"path\""))?;
            let body = body.strip_suffix(',').unwrap_or(body);
            let (path, value) = body
                .split_once("\": ")
                .ok_or_else(|| err("expected '\": ' separator"))?;
            let value =
                if let Some(text) = value.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
                    MetricValue::Text(Self::unescape(text).map_err(|e| err(&e))?)
                } else if value == "null" {
                    // The renderer writes non-finite floats as null.
                    MetricValue::F64(f64::NAN)
                } else if value.bytes().all(|b| b.is_ascii_digit()) {
                    MetricValue::U64(value.parse().map_err(|_| err("bad counter"))?)
                } else {
                    MetricValue::F64(value.parse().map_err(|_| err("bad number"))?)
                };
            entries.push((path.to_string(), value));
        }
        if !closed {
            return Err("missing closing '}'".into());
        }
        // Re-seal with the same sortedness and path-uniqueness rules that
        // finish() enforces, but fail softly: a mangled marker file must
        // read as "invalid, re-run the cell", not abort the whole sweep.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        if let Some(w) = entries.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("duplicate path {}", w[0].0));
        }
        Ok(MetricsSnapshot { entries })
    }

    fn unescape(s: &str) -> Result<String, String> {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                if c == '"' {
                    return Err("bare quote inside text value".into());
                }
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('u') => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                    out.push(char::from_u32(code).ok_or_else(|| format!("bad codepoint {code}"))?);
                }
                other => return Err(format!("bad escape {other:?}")),
            }
        }
        Ok(out)
    }

    /// Deterministic JSON: one flat object, keys sorted, one entry per
    /// line, trailing newline. Hand-rolled (the workspace vendors no JSON
    /// crate) and byte-stable for identical readings.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        for (i, (p, v)) in self.entries.iter().enumerate() {
            s.push_str("  \"");
            s.push_str(p);
            s.push_str("\": ");
            v.render_json(&mut s);
            if i + 1 < self.entries.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Leaf {
        a: u64,
        b: u64,
    }

    impl Instrumented for Leaf {
        fn metrics(&self, out: &mut MetricSink) {
            out.counter("a", self.a);
            out.counter("b", self.b);
        }
    }

    struct Tree {
        left: Leaf,
        right: Leaf,
    }

    impl Instrumented for Tree {
        fn metrics(&self, out: &mut MetricSink) {
            out.absorb("left", &self.left);
            out.absorb("right", &self.right);
            out.counter("total", self.left.a + self.right.a);
        }
    }

    fn tree() -> Tree {
        Tree {
            left: Leaf { a: 1, b: 2 },
            right: Leaf { a: 30, b: 40 },
        }
    }

    #[test]
    fn paths_nest_and_sort() {
        let snap = MetricsSnapshot::collect(&tree());
        let paths: Vec<&str> = snap.iter().map(|(p, _)| p).collect();
        assert_eq!(
            paths,
            vec!["left.a", "left.b", "right.a", "right.b", "total"]
        );
        assert_eq!(snap.get_u64("right.b"), 40);
        assert!(snap.get("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate metric path")]
    fn duplicate_paths_panic() {
        let mut sink = MetricSink::new();
        sink.counter("x", 1);
        sink.counter("x", 2);
        sink.finish();
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn get_u64_panics_on_missing_path() {
        MetricsSnapshot::collect(&tree()).get_u64("left.typo");
    }

    #[test]
    fn diff_saturates_and_drops_stale_paths() {
        let before = MetricsSnapshot::collect(&tree());
        let after = MetricsSnapshot::collect(&Tree {
            left: Leaf { a: 5, b: 1 },
            right: Leaf { a: 31, b: 45 },
        });
        let d = after.diff(&before);
        assert_eq!(d.get_u64("left.a"), 4);
        assert_eq!(d.get_u64("left.b"), 0, "counters saturate, never wrap");
        assert_eq!(d.get_u64("right.b"), 5);
    }

    #[test]
    fn rate_over_window() {
        let before = MetricsSnapshot::collect(&Leaf { a: 0, b: 0 });
        let after = MetricsSnapshot::collect(&Leaf { a: 100, b: 7 });
        let r = after.rate_per_sec(&before, SimTime::from_ms(500));
        assert_eq!(r.get("a").unwrap().as_f64(), 200.0);
        assert_eq!(r.get("b").unwrap().as_f64(), 14.0);
        let z = after.rate_per_sec(&before, SimTime::ZERO);
        assert_eq!(z.get("a").unwrap().as_f64(), 0.0);
    }

    #[test]
    fn renderers_are_deterministic_and_sorted() {
        let a = MetricsSnapshot::collect(&tree());
        let b = MetricsSnapshot::collect(&tree());
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(
            a.render_text(),
            "left.a = 1\nleft.b = 2\nright.a = 30\nright.b = 40\ntotal = 31\n"
        );
        assert_eq!(
            a.to_json(),
            "{\n  \"left.a\": 1,\n  \"left.b\": 2,\n  \"right.a\": 30,\n  \
             \"right.b\": 40,\n  \"total\": 31\n}\n"
        );
    }

    #[test]
    fn flat_json_round_trips_byte_identically() {
        let mut sink = MetricSink::new();
        sink.counter("a.count", 7);
        sink.value("a.ratio", 2.5);
        sink.value("a.nan", f64::NAN);
        sink.text("a.label", "line\none \"quoted\\thing\"\u{1}");
        let snap = sink.finish();
        let json = snap.to_json();
        let back = MetricsSnapshot::parse_flat_json(&json).expect("parses");
        assert_eq!(back.to_json(), json, "round trip is byte-identical");
        assert_eq!(back.get_u64("a.count"), 7);
        assert_eq!(back.get("a.ratio").unwrap().as_f64(), 2.5);
    }

    #[test]
    fn flat_json_parser_rejects_mangled_markers() {
        for bad in [
            "",
            "{\n}\n trailing",
            "{\n  \"a\": 1\n",
            "{\n  \"a\" 1\n}\n",
            "{\n\"a\": 1\n}\n",
            "{\n  \"a\": 1,\n  \"a\": 2\n}\n",
            "{\n  \"a\": zz\n}\n",
        ] {
            assert!(
                MetricsSnapshot::parse_flat_json(bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn absorb_snapshot_mounts_are_commutative() {
        let left = MetricsSnapshot::collect(&Leaf { a: 1, b: 2 });
        let right = MetricsSnapshot::collect(&Leaf { a: 30, b: 40 });
        let mount = |order: &[(&str, &MetricsSnapshot)]| {
            let mut sink = MetricSink::new();
            for (seg, snap) in order {
                sink.absorb_snapshot(&format!("cells.{seg}"), snap);
            }
            sink.finish()
        };
        let ab = mount(&[("l", &left), ("r", &right)]);
        let ba = mount(&[("r", &right), ("l", &left)]);
        assert_eq!(ab.to_json(), ba.to_json(), "mount order cannot matter");
        assert_eq!(ab.get_u64("cells.l.a"), 1);
        assert_eq!(ab.get_u64("cells.r.b"), 40);
    }

    #[test]
    fn json_escapes_text_and_guards_non_finite() {
        let mut sink = MetricSink::new();
        sink.text("label", "a \"quoted\\path\"\n");
        sink.value("bad", f64::NAN);
        sink.value("ratio", 2.5);
        let json = sink.finish().to_json();
        assert!(json.contains("\"label\": \"a \\\"quoted\\\\path\\\"\\n\""));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("\"ratio\": 2.5"));
    }

    #[test]
    fn histogram_and_meter_expand_to_summaries() {
        let mut h = Histogram::new();
        h.record(SimTime::from_us(10));
        h.record(SimTime::from_us(20));
        let mut m = RateMeter::new();
        m.record(SimTime::ZERO, 0);
        m.record(SimTime::from_secs(1), 1000);
        let mut sink = MetricSink::new();
        sink.histogram("lat", &h);
        sink.meter("goodput", &m);
        let snap = sink.finish();
        assert_eq!(snap.get_u64("lat.count"), 2);
        assert_eq!(snap.get_u64("lat.min_ps"), SimTime::from_us(10).as_ps());
        assert_eq!(snap.get_u64("lat.max_ps"), SimTime::from_us(20).as_ps());
        assert_eq!(snap.get_u64("goodput.bytes"), 1000);
        assert_eq!(
            snap.get_u64("goodput.elapsed_ps"),
            SimTime::from_secs(1).as_ps()
        );
        // Empty instruments still register (as zeros) so the path set is
        // stable from the first snapshot on.
        let mut sink = MetricSink::new();
        sink.histogram("lat", &Histogram::new());
        assert_eq!(sink.finish().get_u64("lat.count"), 0);
    }
}

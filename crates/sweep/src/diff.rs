//! Run-vs-run registry diff: which paths moved between two flat JSON
//! registries (a merged `sweep.json`, a `BENCH_*.json`, any
//! [`MetricsSnapshot::to_json`] output), grouped so that the reader sees
//! *where* a change landed before reading individual counters.
//!
//! Paths group by their sweep cell (`cells.<id>`), or else by their first
//! segment; groups rank by how many of their paths differ. A path that
//! contains an ignored dot-separated segment is tallied but never makes
//! the registries count as different — the way to say "only the
//! `fast_forwarded` counters may move".
//!
//! ```
//! use mcn_sim::metrics::MetricsSnapshot;
//! use mcn_sweep::diff::RegistryDiff;
//!
//! let a = MetricsSnapshot::parse_flat_json("{\n  \"x.polls\": 3,\n  \"x.skips\": 1\n}\n").unwrap();
//! let b = MetricsSnapshot::parse_flat_json("{\n  \"x.polls\": 3,\n  \"x.skips\": 2\n}\n").unwrap();
//! assert!(RegistryDiff::new(&a, &b, &[]).differs());
//! assert!(!RegistryDiff::new(&a, &b, &["skips"]).differs());
//! ```

use std::collections::BTreeMap;
use std::fmt::Write;

use mcn_sim::metrics::{MetricValue, MetricsSnapshot};

/// How one path differs between registry A and registry B.
#[derive(Debug, Clone, PartialEq)]
pub enum Change {
    /// Present in both with different values.
    Moved {
        /// The value in A.
        a: MetricValue,
        /// The value in B.
        b: MetricValue,
    },
    /// Present only in A.
    OnlyA(MetricValue),
    /// Present only in B.
    OnlyB(MetricValue),
}

/// The differences between two registries; see the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct RegistryDiff {
    /// `(group, changed paths)`, most changes first, ties by group name.
    pub groups: Vec<(String, Vec<(String, Change)>)>,
    /// Differing paths that contain an ignored segment.
    pub ignored: usize,
}

/// The group a path belongs to: `cells.<id>` inside a merged sweep tree,
/// otherwise its first segment.
fn group_of(path: &str) -> &str {
    let mut cut = path.match_indices('.').map(|(i, _)| i);
    let first = cut.next().unwrap_or(path.len());
    if &path[..first] == "cells" {
        &path[..cut.next().unwrap_or(path.len())]
    } else {
        &path[..first]
    }
}

impl RegistryDiff {
    /// Diffs `a` against `b`, ignoring paths with any segment in `ignore`.
    /// Values compare by their rendered form, so two `null` floats match.
    pub fn new(a: &MetricsSnapshot, b: &MetricsSnapshot, ignore: &[&str]) -> Self {
        let mut changes: Vec<(String, Change)> = Vec::new();
        for (path, va) in a.iter() {
            match b.get(path) {
                Some(vb) if vb.to_string() == va.to_string() => {}
                Some(vb) => changes.push((
                    path.to_string(),
                    Change::Moved {
                        a: va.clone(),
                        b: vb.clone(),
                    },
                )),
                None => changes.push((path.to_string(), Change::OnlyA(va.clone()))),
            }
        }
        for (path, vb) in b.iter() {
            if a.get(path).is_none() {
                changes.push((path.to_string(), Change::OnlyB(vb.clone())));
            }
        }
        let mut diff = RegistryDiff::default();
        let mut groups: BTreeMap<String, Vec<(String, Change)>> = BTreeMap::new();
        for (path, change) in changes {
            if path.split('.').any(|seg| ignore.contains(&seg)) {
                diff.ignored += 1;
            } else {
                groups
                    .entry(group_of(&path).to_string())
                    .or_default()
                    .push((path, change));
            }
        }
        diff.groups = groups.into_iter().collect();
        // Stable: equal counts keep the BTreeMap's name order.
        diff.groups
            .sort_by_key(|(_, paths)| std::cmp::Reverse(paths.len()));
        for (_, paths) in &mut diff.groups {
            paths.sort_by(|x, y| x.0.cmp(&y.0));
        }
        diff
    }

    /// Whether any path differs outside the ignored segments.
    pub fn differs(&self) -> bool {
        !self.groups.is_empty()
    }

    /// Human-readable report: one block per group, then a summary line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let mut total = 0;
        for (group, paths) in &self.groups {
            total += paths.len();
            writeln!(s, "{group}: {} changed", paths.len()).unwrap();
            for (path, change) in paths {
                match change {
                    Change::Moved { a, b } => writeln!(s, "  {path}: {a} -> {b}"),
                    Change::OnlyA(v) => writeln!(s, "  {path}: only in A ({v})"),
                    Change::OnlyB(v) => writeln!(s, "  {path}: only in B ({v})"),
                }
                .unwrap();
            }
        }
        writeln!(
            s,
            "{total} paths differ in {} groups; {} ignored",
            self.groups.len(),
            self.ignored
        )
        .unwrap();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(entries: &[(&str, &str)]) -> MetricsSnapshot {
        let body: Vec<String> = entries
            .iter()
            .map(|(p, v)| format!("  \"{p}\": {v}"))
            .collect();
        MetricsSnapshot::parse_flat_json(&format!("{{\n{}\n}}\n", body.join(",\n"))).unwrap()
    }

    #[test]
    fn groups_by_cell_ranks_by_changes_and_honours_ignores() {
        let a = tree(&[
            ("cells.kv-rack.engine.advances", "10"),
            ("cells.kv-rack.perf", "1.5"),
            ("cells.iperf-single.engine.advances", "7"),
            ("cells.iperf-single.now_ps", "9"),
            ("cells.iperf-single.rtt", "null"),
            ("sched.windows", "4"),
            ("gone", "1"),
        ]);
        let b = tree(&[
            ("cells.kv-rack.engine.advances", "11"),
            ("cells.kv-rack.engine.fast_forwarded", "3"),
            ("cells.kv-rack.perf", "1.5"),
            ("cells.iperf-single.engine.advances", "5"),
            ("cells.iperf-single.now_ps", "8"),
            ("cells.iperf-single.rtt", "null"),
            ("sched.windows", "4"),
        ]);
        let d = RegistryDiff::new(&a, &b, &[]);
        assert!(d.differs());
        let names: Vec<&str> = d.groups.iter().map(|(g, _)| g.as_str()).collect();
        // Two changes each rank above one; equal counts sort by name.
        assert_eq!(names, ["cells.iperf-single", "cells.kv-rack", "gone"]);
        assert_eq!(
            d.groups[1].1,
            vec![
                (
                    "cells.kv-rack.engine.advances".to_string(),
                    Change::Moved {
                        a: MetricValue::U64(10),
                        b: MetricValue::U64(11)
                    }
                ),
                (
                    "cells.kv-rack.engine.fast_forwarded".to_string(),
                    Change::OnlyB(MetricValue::U64(3))
                ),
            ]
        );
        assert_eq!(d.groups[2].1[0].1, Change::OnlyA(MetricValue::U64(1)));
        let text = d.render();
        assert!(
            text.contains("cells.kv-rack.engine.fast_forwarded: only in B (3)"),
            "{text}"
        );
        assert!(
            text.ends_with("5 paths differ in 3 groups; 0 ignored\n"),
            "{text}"
        );

        // Ignoring segments (not substrings of them) hides exactly those paths.
        let d = RegistryDiff::new(&a, &b, &["engine", "gone"]);
        assert!(d.differs(), "now_ps still moved");
        assert_eq!(d.ignored, 4);
        let d = RegistryDiff::new(&a, &b, &["engine", "gone", "now_ps"]);
        assert!(!d.differs());
        assert!(!RegistryDiff::new(&a, &b, &["engin", "gone", "now_ps"])
            .groups
            .is_empty());
        assert!(
            !RegistryDiff::new(&a, &a, &[]).differs(),
            "null equals null"
        );
    }
}

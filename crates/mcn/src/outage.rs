//! The one outage grammar of the MCN topologies.
//!
//! An [`OutagePlan`] names components with free-form strings. Every
//! topology of this crate — a standalone [`McnSystem`](crate::McnSystem),
//! an [`McnRack`](crate::McnRack) and a [`Datacenter`](crate::Datacenter)
//! — spells them with [`Part`]'s `Display` and reads them back with
//! [`Part::parse`], so one name means the same part everywhere. A
//! failure domain's members use the same names (any part but the
//! `switch`, whose partition needs port groups), and the domain's own
//! name takes [`OutageKind::DomainDown`]. Each topology lists the parts
//! it honours, lets one installer expand a plan into time-stamped
//! down/up edges, and maps each edge to its own command; a name, kind
//! or domain it cannot honour panics at install time, naming it.
//!
//! The spellings are part of the determinism contract:
//! [`OutagePlan::random_crashes`] forks its stream from the component
//! name, and the agg and spine names are registry paths.
//!
//! ```
//! use mcn::outage::Part;
//!
//! assert_eq!(Part::Dimm(1, 0).to_string(), "server1.dimm0");
//! assert_eq!(Part::parse("pod0.agg1"), Some(Part::Agg(0, 1)));
//! assert_eq!(Part::parse("srv0.dimm0"), None);
//! ```

use std::fmt;

use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::Counter;
use mcn_sim::{OutageKind, OutagePlan, SimTime};

/// A component an [`OutagePlan`] can name, with its spelling and the
/// kind it takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// DIMM `.1` of server `.0`, `server{s}.dimm{d}`: [`OutageKind::DimmCrash`].
    Dimm(usize, usize),
    /// Server `.0`'s ToR uplink, `server{s}.link`: [`OutageKind::LinkDown`].
    Link(usize),
    /// Server `.0` as a whole, `server{s}`: [`OutageKind::NodeReboot`].
    Node(usize),
    /// The rack's top-of-rack switch, `switch`: [`OutageKind::SwitchPartition`].
    Switch,
    /// Aggregation switch `.1` of pod `.0`, `pod{p}.agg{a}`: [`OutageKind::SwitchDown`].
    Agg(usize, usize),
    /// Spine switch `.0`, `spine{j}`: [`OutageKind::SwitchDown`].
    Spine(usize),
    /// Every server of rack `.0` at once, `rack{r}`: [`OutageKind::NodeReboot`].
    Rack(usize),
}

impl fmt::Display for Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Part::Dimm(s, d) => write!(f, "server{s}.dimm{d}"),
            Part::Link(s) => write!(f, "server{s}.link"),
            Part::Node(s) => write!(f, "server{s}"),
            Part::Switch => f.write_str("switch"),
            Part::Agg(p, a) => write!(f, "pod{p}.agg{a}"),
            Part::Spine(j) => write!(f, "spine{j}"),
            Part::Rack(r) => write!(f, "rack{r}"),
        }
    }
}

impl Part {
    /// The part `name` spells, or `None` when it is not exactly some
    /// part's `Display` output.
    pub fn parse(name: &str) -> Option<Part> {
        let n = |s: &str| s.parse::<usize>().ok();
        let part = if name == "switch" {
            Part::Switch
        } else if let Some(rest) = name.strip_prefix("server") {
            match rest.split_once('.') {
                None => Part::Node(n(rest)?),
                Some((s, "link")) => Part::Link(n(s)?),
                Some((s, d)) => Part::Dimm(n(s)?, n(d.strip_prefix("dimm")?)?),
            }
        } else if let Some(rest) = name.strip_prefix("pod") {
            let (p, a) = rest.split_once(".agg")?;
            Part::Agg(n(p)?, n(a)?)
        } else if let Some(j) = name.strip_prefix("spine") {
            Part::Spine(n(j)?)
        } else {
            Part::Rack(n(name.strip_prefix("rack")?)?)
        };
        // Rejects non-canonical numbers (`server01`, `spine+1`).
        (part.to_string() == name).then_some(part)
    }
}

/// One edge of an installed outage plan.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Edge {
    /// Failure domain `.0` (index into [`OutagePlan::domains`]) goes
    /// down; its members' `Down` edges follow at the same instant.
    DomainDown(usize),
    /// Failure domain `.0` comes back; its members' `Up` edges follow.
    DomainUp(usize),
    /// The part goes dark.
    Down(Part),
    /// The part comes back (for [`Part::Switch`]: the partition heals).
    Up(Part),
    /// The ToR splits into these port groups until `Up(Part::Switch)`.
    Partition(Vec<Vec<usize>>),
}

/// Lifecycle counters of one failure domain of an installed plan.
#[derive(Debug, Default)]
pub struct DomainStats {
    /// Domain name from the plan.
    pub name: String,
    /// Whole-domain crashes applied.
    pub crashes: Counter,
    /// Whole-domain heals applied.
    pub heals: Counter,
}

impl Instrumented for DomainStats {
    fn metrics(&self, out: &mut MetricSink) {
        out.counter("crashes", self.crashes.get());
        out.counter("heals", self.heals.get());
    }
}

/// Expands `plan` for a topology that honours exactly `parts`, listed
/// in the topology's enumeration order. `scope` names the topology in
/// panic messages; `domains` receives one [`DomainStats`] per domain not
/// yet counted, or is `None` for a topology without failure domains.
///
/// Edges come back in insertion order, and the order matters because
/// simultaneous edges apply first in, first out. Domains come first:
/// per `DomainDown` event, the domain's down and up markers, then each
/// member's down and up edge. The parts follow in `parts` order: per
/// event, the down edge and then the up edge. A partition heals at
/// `heal_at` (never before it starts); every other kind comes back
/// `down_for` after it goes down.
///
/// # Panics
///
/// Panics, naming the offender, on a component name that is not in
/// `parts`, a kind its part cannot take, a domain member that is not in
/// `parts` (or is the `switch`), an event other than `DomainDown` on a
/// domain, and any domain when `domains` is `None`.
pub(crate) fn expand(
    plan: &OutagePlan,
    scope: &str,
    parts: &[Part],
    domains: Option<&mut Vec<DomainStats>>,
) -> Vec<(SimTime, Edge)> {
    let mut edges = Vec::new();
    if let Some(dom) = plan.domains().first() {
        assert!(
            domains.is_some(),
            "a {scope} has no failure domains: cannot install '{}'",
            dom.name
        );
    }
    if let Some(stats) = domains {
        for dom in &plan.domains()[stats.len().min(plan.domains().len())..] {
            stats.push(DomainStats {
                name: dom.name.clone(),
                ..DomainStats::default()
            });
        }
    }
    for (i, dom) in plan.domains().iter().enumerate() {
        let members: Vec<Part> = dom
            .members
            .iter()
            .map(|m| {
                Part::parse(m)
                    .filter(|p| *p != Part::Switch && parts.contains(p))
                    .unwrap_or_else(|| {
                        panic!(
                            "failure domain '{}': member '{m}' names no component of this \
                             {scope} that a domain can take down",
                            dom.name
                        )
                    })
            })
            .collect();
        for (t, kind) in plan.schedule(&dom.name) {
            let OutageKind::DomainDown { down_for } = kind else {
                panic!("failure domain '{}' cannot take {kind:?}", dom.name);
            };
            edges.push((t, Edge::DomainDown(i)));
            edges.push((t + down_for, Edge::DomainUp(i)));
            for &m in &members {
                edges.push((t, Edge::Down(m)));
                edges.push((t + down_for, Edge::Up(m)));
            }
        }
    }
    let mut named: Vec<(usize, Part, &str)> = plan
        .components()
        .into_iter()
        .filter(|name| plan.domain(name).is_none())
        .map(|name| {
            Part::parse(name)
                .and_then(|p| Some((parts.iter().position(|q| *q == p)?, p, name)))
                .unwrap_or_else(|| {
                    panic!("outage component '{name}' names no component of this {scope}")
                })
        })
        .collect();
    named.sort_by_key(|&(i, ..)| i);
    for (_, part, name) in named {
        for (t, kind) in plan.schedule(name) {
            match (part, kind) {
                (Part::Switch, OutageKind::SwitchPartition { groups, heal_at }) => {
                    edges.push((t, Edge::Partition(groups)));
                    edges.push((heal_at.max(t), Edge::Up(part)));
                }
                (Part::Dimm(..), OutageKind::DimmCrash { down_for })
                | (Part::Link(_), OutageKind::LinkDown { down_for })
                | (Part::Node(_) | Part::Rack(_), OutageKind::NodeReboot { down_for })
                | (Part::Agg(..) | Part::Spine(_), OutageKind::SwitchDown { down_for }) => {
                    edges.push((t, Edge::Down(part)));
                    edges.push((t + down_for, Edge::Up(part)));
                }
                (_, kind) => panic!("outage component '{name}' cannot take {kind:?}"),
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_each_spelling_returns_its_part() {
        let cases = [
            (Part::Dimm(3, 7), "server3.dimm7"),
            (Part::Link(9), "server9.link"),
            (Part::Node(0), "server0"),
            (Part::Switch, "switch"),
            (Part::Agg(1, 0), "pod1.agg0"),
            (Part::Spine(12), "spine12"),
            (Part::Rack(63), "rack63"),
        ];
        for (part, name) in cases {
            assert_eq!(part.to_string(), name);
            assert_eq!(Part::parse(name), Some(part), "{name}");
        }
        for bad in [
            "srv0.dimm0",
            "server01",
            "server0.dimm",
            "server0.nic",
            "pod0",
            "spine+1",
            "rack",
            "",
        ] {
            assert_eq!(Part::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn edges_keep_domains_first_then_parts_in_enumeration_order() {
        let ms = SimTime::from_ms;
        let mut plan = OutagePlan::new(1);
        plan.at(
            &Part::Node(0).to_string(),
            ms(5),
            OutageKind::NodeReboot { down_for: ms(1) },
        );
        plan.at(
            &Part::Dimm(1, 0).to_string(),
            ms(5),
            OutageKind::DimmCrash { down_for: ms(2) },
        );
        plan.define_domain("d", &[&Part::Link(1).to_string()]);
        plan.domain_crash("d", ms(5), ms(3));
        let parts = [
            Part::Dimm(0, 0),
            Part::Node(0),
            Part::Dimm(1, 0),
            Part::Link(1),
        ];
        let mut stats = Vec::new();
        let edges = expand(&plan, "test", &parts, Some(&mut stats));
        assert_eq!(
            edges,
            vec![
                (ms(5), Edge::DomainDown(0)),
                (ms(8), Edge::DomainUp(0)),
                (ms(5), Edge::Down(Part::Link(1))),
                (ms(8), Edge::Up(Part::Link(1))),
                (ms(5), Edge::Down(Part::Node(0))),
                (ms(6), Edge::Up(Part::Node(0))),
                (ms(5), Edge::Down(Part::Dimm(1, 0))),
                (ms(7), Edge::Up(Part::Dimm(1, 0))),
            ]
        );
        assert_eq!(stats.len(), 1);
        expand(&plan, "test", &parts, Some(&mut stats));
        assert_eq!(stats.len(), 1, "reinstalling counts each domain once");
    }

    #[test]
    #[should_panic(expected = "'server0.dimm0' cannot take LinkDown")]
    fn a_kind_the_part_cannot_take_panics() {
        let mut plan = OutagePlan::new(1);
        plan.at(
            &Part::Dimm(0, 0).to_string(),
            SimTime::ZERO,
            OutageKind::LinkDown {
                down_for: SimTime::from_us(1),
            },
        );
        expand(&plan, "test", &[Part::Dimm(0, 0)], None);
    }

    #[test]
    #[should_panic(expected = "cannot install 'riser'")]
    fn a_domain_where_none_exist_panics() {
        let mut plan = OutagePlan::new(1);
        plan.define_domain("riser", &[&Part::Dimm(0, 0).to_string()]);
        expand(&plan, "test", &[Part::Dimm(0, 0)], None);
    }
}

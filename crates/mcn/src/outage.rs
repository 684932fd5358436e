//! Hard outages of the MCN topologies.
//!
//! Where [`FaultPlan`](mcn_sim::FaultPlan) models *transient* faults a
//! component rolls for on its hot path, an [`OutagePlan`] takes a
//! [`Part`] away at a known simulated time and brings it back later; the
//! part implies what going away means. A failure domain groups parts
//! that fail together. Every topology of this crate — a standalone
//! [`McnSystem`](crate::McnSystem), an [`McnRack`](crate::McnRack) and a
//! [`Datacenter`](crate::Datacenter) — lists the parts it has, lets one
//! installer expand a plan into time-stamped down/up edges, and maps each
//! edge to its own command; a part or domain member it does not have
//! panics at install time, naming it.
//!
//! [`Part`]'s spellings are part of the determinism contract:
//! [`OutagePlan::random_crashes`] forks its stream from them, and the agg
//! and spine spellings are registry paths.
//!
//! ```
//! use mcn::outage::{Event, OutagePlan, Part};
//! use mcn_sim::SimTime;
//!
//! assert_eq!(Part::Dimm(1, 0).to_string(), "server1.dimm0");
//! let (at, down_for) = (SimTime::from_ms(2), SimTime::from_ms(1));
//! let mut plan = OutagePlan::new(42);
//! plan.down(Part::Dimm(0, 0), at, down_for);
//! assert_eq!(plan.schedule(Part::Dimm(0, 0)), vec![(at, Event::Down { down_for })]);
//! assert!(plan.schedule(Part::Dimm(0, 1)).is_empty());
//! ```

use std::fmt;

use mcn_sim::metrics::{Instrumented, MetricSink};
use mcn_sim::stats::Counter;
use mcn_sim::{fnv1a64, DetRng, SimTime};

/// A component an [`OutagePlan`] can take down, with its spelling and
/// what going down means for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// DIMM `.1` of server `.0`, `server{s}.dimm{d}`: it crashes, and the
    /// host re-initialises it once power returns.
    Dimm(usize, usize),
    /// Server `.0`'s ToR uplink, `server{s}.link`: it goes dark.
    Link(usize),
    /// Server `.0` as a whole, `server{s}`: it reboots (uplink dark,
    /// every DIMM crashed).
    Node(usize),
    /// The rack's top-of-rack switch, `switch`: it
    /// [partitions](OutagePlan::partition) its ports.
    Switch,
    /// Aggregation switch `.1` of pod `.0`, `pod{p}.agg{a}`: it goes dark.
    Agg(usize, usize),
    /// Spine switch `.0`, `spine{j}`: it goes dark.
    Spine(usize),
    /// Every server of rack `.0` at once, `rack{r}`: they reboot.
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

/// One event of a part's [schedule](OutagePlan::schedule).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// The part goes down and comes back `down_for` later.
    Down {
        /// How long the part stays down.
        down_for: SimTime,
    },
    /// The ToR switch splits its ports into isolated groups; forwarding
    /// between groups drops until `heal_at`.
    Partition {
        /// Port groups; forwarding is allowed only within a group. A
        /// port in no group counts as group 0.
        groups: Vec<Vec<usize>>,
        /// Absolute simulated time the partition heals.
        heal_at: SimTime,
    },
}

/// A named set of parts that fail together.
#[derive(Debug, Clone)]
struct Domain {
    name: String,
    members: Vec<Part>,
    /// `(at, down_for)` per crash, in declaration order.
    crashes: Vec<(SimTime, SimTime)>,
}

/// A seeded, declarative schedule of hard failures for a whole topology.
///
/// Declare events against [`Part`]s, group parts into failure domains
/// with [`define_domain`](Self::define_domain), and hand the plan to the
/// topology's `set_outage_plan`.
#[derive(Debug, Clone, Default)]
pub struct OutagePlan {
    seed: u64,
    /// `(part, at, event)` in declaration order.
    events: Vec<(Part, SimTime, Event)>,
    /// In declaration order; a redefinition keeps its place.
    domains: Vec<Domain>,
}

impl OutagePlan {
    /// An empty (inert) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        OutagePlan {
            seed,
            ..OutagePlan::default()
        }
    }

    /// Takes `part` down at absolute time `at`; it comes back `down_for`
    /// later.
    ///
    /// # Panics
    ///
    /// Panics on [`Part::Switch`], which takes a
    /// [`partition`](Self::partition) instead.
    pub fn down(&mut self, part: Part, at: SimTime, down_for: SimTime) -> &mut Self {
        assert!(part != Part::Switch, "the switch only partitions");
        self.events.push((part, at, Event::Down { down_for }));
        self
    }

    /// Partitions the ToR switch into port `groups` at `at` until
    /// `heal_at` (an absolute time; never before `at`).
    pub fn partition(
        &mut self,
        at: SimTime,
        groups: Vec<Vec<usize>>,
        heal_at: SimTime,
    ) -> &mut Self {
        let event = Event::Partition { groups, heal_at };
        self.events.push((Part::Switch, at, event));
        self
    }

    /// Takes `part` down `count` times at deterministic random times in
    /// `window`, each for a random duration in `down`. Times and
    /// durations come from a stream forked from the plan's seed by the
    /// part's spelling, so schedules of different parts are independent
    /// and replayable.
    ///
    /// # Panics
    ///
    /// Panics on [`Part::Switch`], as [`down`](Self::down) does.
    pub fn random_crashes(
        &mut self,
        part: Part,
        count: usize,
        window: (SimTime, SimTime),
        down: (SimTime, SimTime),
    ) -> &mut Self {
        let mut rng = DetRng::new(self.seed).fork(fnv1a64(0, part.to_string().as_bytes()));
        for _ in 0..count {
            let at = SimTime::from_ps(rng.range(window.0.as_ps(), window.1.as_ps()));
            let down_for = SimTime::from_ps(rng.range(down.0.as_ps(), down.1.as_ps()));
            self.down(part, at, down_for);
        }
        self
    }

    /// The events declared against `part` itself (not through a domain),
    /// sorted by time; ties keep declaration order.
    pub fn schedule(&self, part: Part) -> Vec<(SimTime, Event)> {
        let mut events: Vec<_> = (self.events.iter())
            .filter(|(p, ..)| *p == part)
            .map(|(_, at, event)| (*at, event.clone()))
            .collect();
        events.sort_by_key(|(at, _)| *at);
        events
    }

    /// Defines (or redefines, keeping its crashes) the failure domain
    /// `name`: `members` fail together when the domain
    /// [crashes](Self::domain_crash). A topology counts each domain's
    /// crashes and heals under `outage.domain.<name>`.
    ///
    /// # Panics
    ///
    /// Panics on an empty membership and on a [`Part::Switch`] member,
    /// which only partitions.
    pub fn define_domain(&mut self, name: &str, members: &[Part]) -> &mut Self {
        assert!(!members.is_empty(), "empty failure domain {name:?}");
        assert!(
            !members.contains(&Part::Switch),
            "failure domain {name:?}: the switch only partitions"
        );
        let members = members.to_vec();
        match self.domains.iter_mut().find(|d| d.name == name) {
            Some(d) => d.members = members,
            None => self.domains.push(Domain {
                name: name.to_string(),
                members,
                crashes: Vec::new(),
            }),
        }
        self
    }

    /// Crashes every member of domain `name` at `at`; all heal together
    /// `down_for` later.
    ///
    /// # Panics
    ///
    /// Panics when `name` was not [defined](Self::define_domain) first.
    pub fn domain_crash(&mut self, name: &str, at: SimTime, down_for: SimTime) -> &mut Self {
        let Some(domain) = self.domains.iter_mut().find(|d| d.name == name) else {
            panic!("domain {name:?} not defined; call define_domain first");
        };
        domain.crashes.push((at, down_for));
        self
    }
}

/// One edge of an installed outage plan.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Edge {
    /// The failure domain counted in slot `.0` of the topology's
    /// [`DomainStats`] goes down; its members' `Down` edges follow at the
    /// same instant.
    DomainDown(usize),
    /// The failure domain in slot `.0` comes back; its members' `Up`
    /// edges follow.
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

/// Expands `plan` for a topology that has exactly `parts`, in its
/// enumeration order. `scope` names the topology in panic messages;
/// `domains` receives one [`DomainStats`] per domain name not yet
/// counted, and each domain's edges index its name's slot; it is `None`
/// for a topology without failure domains.
///
/// Simultaneous edges apply first in, first out, so the order is part of
/// the results: domains first, each crash (by time) giving the domain's
/// down and up markers and then each member's down and up edge; then each
/// part's events in `parts` order, by time (ties in declaration order),
/// each giving a down and an up edge. A partition heals at `heal_at`,
/// never before it starts.
///
/// # Panics
///
/// Panics, naming the offender, on a part or a domain member that is not
/// in `parts`, and on any domain when `domains` is `None`.
pub(crate) fn expand(
    plan: &OutagePlan,
    scope: &str,
    parts: &[Part],
    domains: Option<&mut Vec<DomainStats>>,
) -> Vec<(SimTime, Edge)> {
    if let (None, Some(dom)) = (&domains, plan.domains.first()) {
        let name = &dom.name;
        panic!("a {scope} has no failure domains: cannot install '{name}'");
    }
    // Each domain counts in the slot named after it, added when new.
    let slots: Vec<usize> = match domains {
        Some(stats) => plan
            .domains
            .iter()
            .map(|dom| match stats.iter().position(|d| d.name == dom.name) {
                Some(i) => i,
                None => {
                    stats.push(DomainStats {
                        name: dom.name.clone(),
                        ..DomainStats::default()
                    });
                    stats.len() - 1
                }
            })
            .collect(),
        None => Vec::new(),
    };
    let position = |part: &Part| parts.iter().position(|p| p == part);
    let mut edges = Vec::new();
    for (dom, &i) in plan.domains.iter().zip(&slots) {
        if let Some(m) = dom.members.iter().find(|m| position(m).is_none()) {
            let name = &dom.name;
            panic!("failure domain '{name}': member '{m}' names no component of this {scope}");
        }
        let mut crashes = dom.crashes.clone();
        crashes.sort_by_key(|&(at, _)| at);
        for (at, down_for) in crashes {
            edges.push((at, Edge::DomainDown(i)));
            edges.push((at + down_for, Edge::DomainUp(i)));
            for &m in &dom.members {
                edges.push((at, Edge::Down(m)));
                edges.push((at + down_for, Edge::Up(m)));
            }
        }
    }
    let mut events = Vec::new();
    for (part, at, event) in &plan.events {
        let Some(i) = position(part) else {
            panic!("outage part '{part}' names no component of this {scope}");
        };
        events.push((i, *at, *part, event));
    }
    events.sort_by_key(|&(i, at, ..)| (i, at));
    for (_, at, part, event) in events {
        match event {
            Event::Down { down_for } => {
                edges.push((at, Edge::Down(part)));
                edges.push((at + *down_for, Edge::Up(part)));
            }
            Event::Partition { groups, heal_at } => {
                edges.push((at, Edge::Partition(groups.clone())));
                edges.push(((*heal_at).max(at), Edge::Up(part)));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_part_has_its_spelling() {
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
        }
    }

    #[test]
    fn schedules_are_time_sorted() {
        let us = SimTime::from_us;
        let mut plan = OutagePlan::new(1);
        plan.down(Part::Link(0), us(10), us(1));
        plan.down(Part::Link(0), us(5), us(2));
        plan.down(Part::Link(0), us(10), us(3));
        let down = |down_for| Event::Down { down_for };
        assert_eq!(
            plan.schedule(Part::Link(0)),
            vec![
                (us(5), down(us(2))),
                (us(10), down(us(1))),
                (us(10), down(us(3)))
            ],
            "by time, ties in declaration order"
        );
    }

    #[test]
    fn random_schedules_replay_and_are_independent() {
        let ms = SimTime::from_ms;
        let (a, b) = (Part::Dimm(0, 0), Part::Dimm(0, 1));
        let mk = |seed| {
            let mut plan = OutagePlan::new(seed);
            let (window, down) = ((ms(1), ms(10)), (SimTime::from_us(100), ms(1)));
            plan.random_crashes(a, 3, window, down);
            plan.random_crashes(b, 3, window, down);
            plan
        };
        let p1 = mk(7);
        assert_eq!(p1.schedule(a), mk(7).schedule(a), "same seed replays");
        assert_ne!(
            p1.schedule(a),
            p1.schedule(b),
            "parts draw independent streams"
        );
        assert_ne!(p1.schedule(a), mk(8).schedule(a), "seed changes schedule");
        assert_eq!(p1.schedule(a).len(), 3);
    }

    #[test]
    fn random_crashes_fork_their_stream_from_the_spelling() {
        let ms = SimTime::from_ms;
        // The draws of the chaos snapshot's `server1.dimm0` at its seed.
        let mut plan = OutagePlan::new(0x5EED_CAFE);
        plan.random_crashes(Part::Dimm(1, 0), 2, (ms(1), ms(80)), (ms(5), ms(20)));
        let ps = SimTime::from_ps;
        let down = |down_for| Event::Down { down_for };
        assert_eq!(
            plan.schedule(Part::Dimm(1, 0)),
            vec![
                (ps(9_844_325_482), down(ps(15_679_040_204))),
                (ps(51_564_608_993), down(ps(14_042_858_981))),
            ]
        );
    }

    #[test]
    fn inert_plan_has_empty_schedules() {
        let plan = OutagePlan::new(9);
        assert!(plan.schedule(Part::Switch).is_empty());
        assert!(expand(&plan, "test", &[], None).is_empty());
        assert!(expand(&plan, "test", &[Part::Node(0)], Some(&mut Vec::new())).is_empty());
    }

    #[test]
    #[should_panic(expected = "the switch only partitions")]
    fn down_on_the_switch_panics() {
        let ms = SimTime::from_ms;
        OutagePlan::new(1).down(Part::Switch, ms(1), ms(1));
    }

    #[test]
    #[should_panic(expected = "failure domain \"tor\": the switch only partitions")]
    fn a_switch_in_a_domain_panics_at_declaration() {
        OutagePlan::new(1).define_domain("tor", &[Part::Node(0), Part::Switch]);
    }

    #[test]
    fn domain_events_schedule_against_the_domain_name() {
        let ms = SimTime::from_ms;
        let mut plan = OutagePlan::new(3);
        plan.define_domain("rack.pdu0", &[Part::Node(0), Part::Node(1)]);
        plan.domain_crash("rack.pdu0", ms(1), ms(2));
        // Members have no events of their own: installing expands the
        // membership.
        assert!(plan.schedule(Part::Node(0)).is_empty());
        // Redefinition replaces the membership in place; the crash stays.
        plan.define_domain("rack.pdu0", &[Part::Node(1)]);
        let mut stats = Vec::new();
        let parts = [Part::Node(0), Part::Node(1)];
        assert_eq!(
            expand(&plan, "test", &parts, Some(&mut stats)),
            vec![
                (ms(1), Edge::DomainDown(0)),
                (ms(3), Edge::DomainUp(0)),
                (ms(1), Edge::Down(Part::Node(1))),
                (ms(3), Edge::Up(Part::Node(1))),
            ]
        );
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "rack.pdu0");
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn domain_crash_requires_definition() {
        let ms = SimTime::from_ms;
        OutagePlan::new(1).domain_crash("ghost", ms(1), ms(1));
    }

    #[test]
    fn edges_keep_domains_first_then_parts_in_enumeration_order() {
        let ms = SimTime::from_ms;
        let mut plan = OutagePlan::new(1);
        plan.down(Part::Node(0), ms(5), ms(1));
        plan.down(Part::Dimm(1, 0), ms(5), ms(2));
        plan.partition(ms(6), vec![vec![0], vec![1]], ms(4));
        plan.define_domain("d", &[Part::Link(1)]);
        plan.domain_crash("d", ms(5), ms(3));
        let parts = [
            Part::Dimm(0, 0),
            Part::Node(0),
            Part::Dimm(1, 0),
            Part::Link(1),
            Part::Switch,
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
                (ms(6), Edge::Partition(vec![vec![0], vec![1]])),
                (ms(6), Edge::Up(Part::Switch)),
            ]
        );
        assert_eq!(stats.len(), 1);
        expand(&plan, "test", &parts, Some(&mut stats));
        assert_eq!(stats.len(), 1, "reinstalling counts each domain once");
    }

    #[test]
    #[should_panic(expected = "cannot install 'riser'")]
    fn a_domain_where_none_exist_panics() {
        let mut plan = OutagePlan::new(1);
        plan.define_domain("riser", &[Part::Dimm(0, 0)]);
        expand(&plan, "test", &[Part::Dimm(0, 0)], None);
    }
}

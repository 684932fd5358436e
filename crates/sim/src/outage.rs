//! Deterministic hard-failure scheduling (crash, partition, reboot).
//!
//! Where [`fault`](crate::fault) models *transient* faults a component rolls
//! for on its hot path (bit flips, drops, stalls), an [`OutagePlan`] models
//! *hard* lifecycle events: a component goes away at a known simulated time
//! and — usually — comes back later. Outages are declarative and seeded the
//! same way fault plans are: events are declared against free-form component
//! names, randomized schedules draw from a per-component stream forked from
//! the plan's single seed (`DetRng::new(seed).fork(hash(component))`), so
//! adding an outage to one component never perturbs another's schedule and
//! two runs of the same plan produce identical chaos.
//!
//! System crates pull a component's slice of the plan with
//! [`schedule`](OutagePlan::schedule), a time-sorted list, and install
//! every event of it into their own event queue up front.
//!
//! ```
//! use mcn_sim::outage::{OutageKind, OutagePlan};
//! use mcn_sim::SimTime;
//!
//! let mut plan = OutagePlan::new(42);
//! let crash = OutageKind::DimmCrash { down_for: SimTime::from_ms(1) };
//! plan.at("dimm0", SimTime::from_ms(2), crash.clone());
//! assert_eq!(plan.schedule("dimm0"), vec![(SimTime::from_ms(2), crash)]);
//! assert!(plan.schedule("dimm1").is_empty());
//! ```

use std::collections::HashMap;

use crate::{DetRng, SimTime};

/// The hard events an [`OutagePlan`] can schedule. As with
/// [`FaultKind`](crate::fault::FaultKind), the *meaning* is up to the
/// component the event is declared against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutageKind {
    /// An MCN DIMM's processor resets: SRAM rings, in-flight DMA and driver
    /// port state are lost; power returns after `down_for` and the host
    /// driver must re-initialise the DIMM before traffic flows again.
    DimmCrash {
        /// How long the DIMM stays dark before power returns.
        down_for: SimTime,
    },
    /// A network link goes dark (frames in flight are lost, new sends are
    /// dropped) and heals after `down_for`.
    LinkDown {
        /// How long the link stays dark.
        down_for: SimTime,
    },
    /// The switch partitions its ports into isolated groups; forwarding
    /// between groups drops until `heal_at` (an absolute time).
    SwitchPartition {
        /// Port groups; forwarding is allowed only within a group. A
        /// port in no group counts as group 0.
        groups: Vec<Vec<usize>>,
        /// Absolute simulated time the partition heals.
        heal_at: SimTime,
    },
    /// A whole node (server) reboots: its uplink goes dark and every MCN
    /// DIMM it hosts crashes; everything powers back on after `down_for`.
    NodeReboot {
        /// How long the node stays down.
        down_for: SimTime,
    },
    /// A whole [`FailureDomain`] fails at once (a PDU trips, a DIMM riser
    /// loses power, a ToR uplink bundle is cut): every member component
    /// crashes at the same instant and heals together after `down_for`.
    /// Scheduled against the *domain's* name; system crates expand the
    /// membership into per-component events with identical timestamps, so
    /// the whole domain lands atomically at one scheduler window boundary.
    DomainDown {
        /// How long the domain stays dark.
        down_for: SimTime,
    },
    /// A fabric switch (an aggregation or spine switch in a Clos
    /// datacenter) goes dark: frames crossing it are dropped and its
    /// peers must route around it (ECMP re-hashes flows onto the
    /// surviving equal-cost paths) until it returns `down_for` later.
    /// Scheduled against the switch's component name (`"spine0"`,
    /// `"pod1.agg0"`); meaningless for single-switch topologies, which
    /// model switch trouble as a [`SwitchPartition`](Self::SwitchPartition)
    /// instead.
    SwitchDown {
        /// How long the switch stays dark.
        down_for: SimTime,
    },
}

/// FNV-1a; stable component-name → fork-stream mapping (identical to the
/// fault plan's, so `"dimm0"` names the same seed-tree leaf in both).
fn stream_of(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A named group of component streams that fail *together*: all the DIMMs
/// on one riser, every server behind one PDU, the servers sharing a ToR
/// uplink bundle. A [`OutageKind::DomainDown`] event scheduled against the
/// domain's name crashes and heals every member atomically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureDomain {
    /// Domain name (free-form; also the component name its events are
    /// scheduled against).
    pub name: String,
    /// Member component names (the same names individual outages use,
    /// e.g. `server0.dimm1`, `server2.link`, `server3`).
    pub members: Vec<String>,
}

/// A seeded, declarative schedule of hard failures for a whole system.
///
/// Build one, declare events against *component names* (free-form strings;
/// system crates document the names they query), then hand each component
/// its slice with [`schedule`](Self::schedule). Correlated failures are
/// declared by [defining a domain](Self::define_domain) and scheduling
/// [`OutageKind::DomainDown`] against the domain's name.
#[derive(Debug, Clone, Default)]
pub struct OutagePlan {
    seed: u64,
    events: HashMap<String, Vec<(SimTime, OutageKind)>>,
    domains: Vec<FailureDomain>,
}

impl OutagePlan {
    /// An empty (inert) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        OutagePlan {
            seed,
            events: HashMap::new(),
            domains: Vec::new(),
        }
    }

    /// The seed every randomized schedule derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when no component has any event scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.values().all(|v| v.is_empty())
    }

    /// Schedules `kind` against `component` at absolute time `at`.
    pub fn at(&mut self, component: &str, at: SimTime, kind: OutageKind) -> &mut Self {
        self.events
            .entry(component.to_string())
            .or_default()
            .push((at, kind));
        self
    }

    /// Schedules `count` crashes of `component` at deterministic random
    /// times in `window`, each down for a random duration in `down`. Times
    /// and durations come from the component's forked stream, so schedules
    /// for different components are independent and replayable.
    pub fn random_crashes(
        &mut self,
        component: &str,
        count: usize,
        window: (SimTime, SimTime),
        down: (SimTime, SimTime),
    ) -> &mut Self {
        let mut rng = DetRng::new(self.seed).fork(stream_of(component));
        for _ in 0..count {
            let at = SimTime::from_ps(rng.range(window.0.as_ps(), window.1.as_ps()));
            let down_for = SimTime::from_ps(rng.range(down.0.as_ps(), down.1.as_ps()));
            self.at(component, at, OutageKind::DimmCrash { down_for });
        }
        self
    }

    /// Carves out the schedule for `component`, sorted by time (ties keep
    /// declaration order). Calling twice yields identical schedules.
    pub fn schedule(&self, component: &str) -> Vec<(SimTime, OutageKind)> {
        let mut events = self.events.get(component).cloned().unwrap_or_default();
        events.sort_by_key(|(t, _)| *t);
        events
    }

    /// Defines (or redefines) a correlated [`FailureDomain`]: `members`
    /// are the component names that fail together when a
    /// [`OutageKind::DomainDown`] fires against `name`.
    ///
    /// # Panics
    ///
    /// Panics on an empty membership — a domain that groups nothing is
    /// always a plan-authoring bug.
    pub fn define_domain(&mut self, name: &str, members: &[&str]) -> &mut Self {
        assert!(!members.is_empty(), "failure domain {name:?} has no members");
        let domain = FailureDomain {
            name: name.to_string(),
            members: members.iter().map(|m| m.to_string()).collect(),
        };
        match self.domains.iter_mut().find(|d| d.name == name) {
            Some(d) => *d = domain,
            None => self.domains.push(domain),
        }
        self
    }

    /// The defined domains, in declaration order.
    pub fn domains(&self) -> &[FailureDomain] {
        &self.domains
    }

    /// Looks up a domain by name.
    pub fn domain(&self, name: &str) -> Option<&FailureDomain> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// Schedules a correlated crash of the whole domain at `at`, healing
    /// after `down_for`. Sugar for `at(name, at, DomainDown { down_for })`
    /// with a membership check.
    ///
    /// # Panics
    ///
    /// Panics when `name` was not [defined](Self::define_domain) first.
    pub fn domain_crash(&mut self, name: &str, at: SimTime, down_for: SimTime) -> &mut Self {
        assert!(
            self.domain(name).is_some(),
            "domain {name:?} not defined; call define_domain first"
        );
        self.at(name, at, OutageKind::DomainDown { down_for })
    }

    /// The component names with at least one event.
    pub fn components(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .events
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| k.as_str())
            .collect();
        names.sort_unstable();
        names
    }
}

/// Bounded exponential retry/backoff: "try, wait a doubling delay, give up
/// after N attempts". Tests drive systems through it (via
/// [`ComponentExt::run_with_backoff`](crate::ComponentExt::run_with_backoff))
/// instead of hand-rolled guard-counter loops. The host driver's DIMM
/// re-init handshake does not use it: `McnSystem` doubles its own probe
/// interval per attempt.
#[derive(Debug, Clone)]
pub struct Backoff {
    initial: SimTime,
    max_delay: SimTime,
    max_attempts: u32,
    attempts: u32,
}

impl Backoff {
    /// A policy starting at `initial`, doubling per attempt up to
    /// `max_delay`, allowing at most `max_attempts` delays.
    pub fn new(initial: SimTime, max_delay: SimTime, max_attempts: u32) -> Self {
        Backoff {
            initial,
            max_delay,
            max_attempts,
            attempts: 0,
        }
    }

    /// The delay before the next attempt, or `None` once the attempt budget
    /// is exhausted. Each call consumes one attempt.
    pub fn next_delay(&mut self) -> Option<SimTime> {
        if self.attempts >= self.max_attempts {
            return None;
        }
        let shift = self.attempts.min(20);
        self.attempts += 1;
        let delay = SimTime::from_ps(
            self.initial
                .as_ps()
                .saturating_mul(1u64 << shift)
                .min(self.max_delay.as_ps()),
        );
        Some(delay)
    }

    /// Attempts consumed so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Whether the attempt budget is exhausted.
    pub fn exhausted(&self) -> bool {
        self.attempts >= self.max_attempts
    }

    /// Resets the policy to attempt zero (e.g. after a success).
    pub fn reset(&mut self) {
        self.attempts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_time_sorted() {
        let mut plan = OutagePlan::new(1);
        plan.at(
            "c",
            SimTime::from_us(10),
            OutageKind::LinkDown {
                down_for: SimTime::from_us(1),
            },
        );
        plan.at(
            "c",
            SimTime::from_us(5),
            OutageKind::DimmCrash {
                down_for: SimTime::from_us(2),
            },
        );
        let s = plan.schedule("c");
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, SimTime::from_us(5));
        assert!(matches!(s[0].1, OutageKind::DimmCrash { .. }));
        assert_eq!(s[1].0, SimTime::from_us(10));
    }

    #[test]
    fn random_schedules_replay_and_are_independent() {
        let mk = |seed| {
            let mut plan = OutagePlan::new(seed);
            plan.random_crashes(
                "a",
                3,
                (SimTime::from_ms(1), SimTime::from_ms(10)),
                (SimTime::from_us(100), SimTime::from_ms(1)),
            );
            plan.random_crashes(
                "b",
                3,
                (SimTime::from_ms(1), SimTime::from_ms(10)),
                (SimTime::from_us(100), SimTime::from_ms(1)),
            );
            plan
        };
        let p1 = mk(7);
        let p2 = mk(7);
        assert_eq!(p1.schedule("a"), p2.schedule("a"), "same seed replays");
        assert_ne!(
            p1.schedule("a"),
            p1.schedule("b"),
            "components draw independent streams"
        );
        let p3 = mk(8);
        assert_ne!(p1.schedule("a"), p3.schedule("a"), "seed changes schedule");
        assert!(!p1.is_empty());
        assert_eq!(p1.components(), vec!["a", "b"]);
    }

    #[test]
    fn inert_plan_has_empty_schedules() {
        let plan = OutagePlan::new(9);
        assert!(plan.is_empty());
        assert!(plan.schedule("anything").is_empty());
    }

    #[test]
    fn domain_events_schedule_against_the_domain_name() {
        let mut plan = OutagePlan::new(3);
        plan.define_domain("rack.pdu0", &["server0", "server1"]);
        plan.domain_crash("rack.pdu0", SimTime::from_ms(1), SimTime::from_ms(2));
        assert_eq!(
            plan.domain("rack.pdu0").unwrap().members,
            vec!["server0".to_string(), "server1".to_string()]
        );
        assert!(plan.domain("other").is_none());
        let due = plan.schedule("rack.pdu0");
        assert_eq!(due.len(), 1);
        assert_eq!(
            due[0],
            (
                SimTime::from_ms(1),
                OutageKind::DomainDown {
                    down_for: SimTime::from_ms(2)
                }
            )
        );
        // Members have no events of their own: expansion is the system
        // crate's job, keyed off the membership.
        assert!(plan.schedule("server0").is_empty());
        // Redefinition replaces the membership in place.
        plan.define_domain("rack.pdu0", &["server0"]);
        assert_eq!(plan.domains().len(), 1);
        assert_eq!(plan.domain("rack.pdu0").unwrap().members, vec!["server0"]);
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn domain_crash_requires_definition() {
        let mut plan = OutagePlan::new(1);
        plan.domain_crash("ghost", SimTime::from_ms(1), SimTime::from_ms(1));
    }

    #[test]
    fn backoff_doubles_caps_and_exhausts() {
        let mut b = Backoff::new(SimTime::from_us(10), SimTime::from_us(35), 4);
        assert_eq!(b.next_delay(), Some(SimTime::from_us(10)));
        assert_eq!(b.next_delay(), Some(SimTime::from_us(20)));
        assert_eq!(b.next_delay(), Some(SimTime::from_us(35)), "capped");
        assert_eq!(b.next_delay(), Some(SimTime::from_us(35)));
        assert_eq!(b.attempts(), 4);
        assert!(b.exhausted());
        assert_eq!(b.next_delay(), None);
        b.reset();
        assert_eq!(b.next_delay(), Some(SimTime::from_us(10)));
    }
}

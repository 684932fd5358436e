//! Domain-aware replica placement.
//!
//! A [`ReplicaMap`] spreads each key range across `R` backends placed in
//! *distinct failure domains* (a domain is whatever crashes together: the
//! DIMMs behind one server, one rack power feed — see
//! `mcn::outage::OutagePlan::define_domain`). A correlated outage then
//! takes out at most one replica of any range, which is what lets the
//! resilient client ([`crate::ResilientKvClient`]) answer every request
//! across a mid-run domain crash.
//!
//! Placement is a pure function of the backend list and the range count —
//! no RNG — so every client computes the identical map and the whole fleet
//! agrees on who owns what without coordination.
//!
//! Placement is **rack-aware**: when the fleet spans at least `R` racks
//! of a multi-rack datacenter, replicas spread across distinct
//! *racks* (the larger blast radius — a rack power event or ToR loss
//! fells every domain inside it at once); otherwise they spread across
//! distinct per-rack failure domains as before. Domain names repeat
//! across racks (`server0` exists in every rack), so the fallback keys
//! on the `(rack, domain)` pair.

use std::fmt;
use std::net::Ipv4Addr;

/// One KV backend: a server endpoint plus where it lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    /// Server address (a DIMM IP in the MCN rack).
    pub addr: Ipv4Addr,
    /// Server port.
    pub port: u16,
    /// Failure-domain name (matches the name given to
    /// `mcn::outage::OutagePlan::define_domain`, so chaos and placement
    /// agree).
    pub domain: String,
    /// Rack the backend lives in (0 for a single-rack deployment).
    pub rack: usize,
}

/// Why a [`ReplicaMap`] could not be built from the given fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The backend list was empty.
    NoBackends,
    /// The replication factor was zero.
    ZeroReplication,
    /// The range count was zero.
    ZeroRanges,
    /// Fewer distinct failure units than replicas: placement would have
    /// to co-locate replicas, defeating the point.
    InsufficientDomains {
        /// Replication factor requested.
        needed: usize,
        /// Distinct failure units (racks, or `(rack, domain)` pairs)
        /// actually available.
        have: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoBackends => write!(f, "no backends"),
            PlacementError::ZeroReplication => write!(f, "need at least one replica"),
            PlacementError::ZeroRanges => write!(f, "need at least one range"),
            PlacementError::InsufficientDomains { needed, have } => write!(
                f,
                "replication factor {needed} needs {needed} distinct failure domains, have {have}"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Replicated key-range placement over a backend fleet; see module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaMap {
    backends: Vec<Backend>,
    /// Backend indices per range, `r` entries each, distinct domains.
    ranges: Vec<Vec<usize>>,
}

impl ReplicaMap {
    /// Places `n_ranges` key ranges over `backends` with `r` replicas
    /// each, every replica of a range in a different failure unit: a
    /// different *rack* when the fleet spans at least `r` racks,
    /// otherwise a different `(rack, domain)` pair. Ranges rotate over
    /// units and over the backends inside each unit, so load spreads
    /// evenly.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] if `backends` is empty, `r` or
    /// `n_ranges` is zero, or fewer than `r` distinct failure units
    /// exist (placement would have to co-locate replicas, defeating
    /// the point).
    pub fn new(backends: Vec<Backend>, n_ranges: usize, r: usize) -> Result<Self, PlacementError> {
        if backends.is_empty() {
            return Err(PlacementError::NoBackends);
        }
        if r == 0 {
            return Err(PlacementError::ZeroReplication);
        }
        if n_ranges == 0 {
            return Err(PlacementError::ZeroRanges);
        }
        // Failure units in first-appearance order (determinism needs no
        // sort). Racks are the wider blast radius, so prefer them when
        // there are enough; `(rack, domain)` otherwise (domain names
        // repeat across racks).
        let n_racks = {
            let mut racks: Vec<usize> = backends.iter().map(|b| b.rack).collect();
            racks.sort_unstable();
            racks.dedup();
            racks.len()
        };
        let mut units: Vec<((usize, &str), Vec<usize>)> = Vec::new();
        for (i, b) in backends.iter().enumerate() {
            let k = if n_racks >= r {
                (b.rack, "")
            } else {
                (b.rack, b.domain.as_str())
            };
            match units.iter_mut().find(|(u, _)| *u == k) {
                Some((_, members)) => members.push(i),
                None => units.push((k, vec![i])),
            }
        }
        if units.len() < r {
            return Err(PlacementError::InsufficientDomains {
                needed: r,
                have: units.len(),
            });
        }
        let ranges = (0..n_ranges)
            .map(|g| {
                (0..r)
                    .map(|j| {
                        let (_, members) = &units[(g + j) % units.len()];
                        // Divide before the inner mod so the unit pick
                        // and the member pick decorrelate (both mod D
                        // would pin every range to the same member).
                        members[(g / units.len()) % members.len()]
                    })
                    .collect()
            })
            .collect();
        Ok(ReplicaMap { backends, ranges })
    }

    /// A one-backend map: every key lives on the server at
    /// `addr:port`, so a request has no other replica to fail over to.
    pub fn single(addr: Ipv4Addr, port: u16) -> Self {
        let backend = Backend {
            addr,
            port,
            domain: String::new(),
            rack: 0,
        };
        ReplicaMap {
            backends: vec![backend],
            ranges: vec![vec![0]],
        }
    }

    /// The range `key` belongs to.
    pub fn range_of(&self, key: u32) -> usize {
        key as usize % self.ranges.len()
    }

    /// Backend indices holding `key`, primary first; all in distinct
    /// failure domains.
    pub fn replicas_of(&self, key: u32) -> &[usize] {
        &self.ranges[self.range_of(key)]
    }

    /// Backend `i`.
    pub fn backend(&self, i: usize) -> &Backend {
        &self.backends[i]
    }

    /// Number of backends.
    pub fn len(&self) -> usize {
        self.backends.len()
    }

    /// True when the map has no backends (never constructed by
    /// [`new`](Self::new)).
    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.ranges[0].len()
    }

    /// Number of key ranges.
    pub fn n_ranges(&self) -> usize {
        self.ranges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Vec<Backend> {
        // 2 servers x 2 DIMMs; domain = the server ("DIMM riser").
        (0..4)
            .map(|i| Backend {
                addr: Ipv4Addr::new(10, 1 + i / 2, 0, 2 + i % 2),
                port: 11211,
                domain: format!("server{}", i / 2),
                rack: 0,
            })
            .collect()
    }

    #[test]
    fn replicas_land_in_distinct_domains() {
        let map = ReplicaMap::new(fleet(), 8, 2).unwrap();
        for key in 0..64u32 {
            let reps = map.replicas_of(key);
            assert_eq!(reps.len(), 2);
            assert_ne!(
                map.backend(reps[0]).domain,
                map.backend(reps[1]).domain,
                "key {key} replicated inside one domain"
            );
        }
    }

    #[test]
    fn placement_balances_primaries() {
        let map = ReplicaMap::new(fleet(), 8, 2).unwrap();
        let mut primaries = [0usize; 4];
        for g in 0..8u32 {
            primaries[map.replicas_of(g)[0]] += 1;
        }
        // 8 ranges over 4 backends: each backend is primary for 2.
        assert_eq!(primaries, [2, 2, 2, 2]);
    }

    #[test]
    fn colocated_replication_is_refused() {
        let mut one_domain = fleet();
        for b in &mut one_domain {
            b.domain = "pdu0".into();
        }
        assert_eq!(
            ReplicaMap::new(one_domain, 8, 2),
            Err(PlacementError::InsufficientDomains { needed: 2, have: 1 })
        );
        assert_eq!(
            ReplicaMap::new(Vec::new(), 8, 2),
            Err(PlacementError::NoBackends)
        );
        assert_eq!(
            ReplicaMap::new(fleet(), 8, 0),
            Err(PlacementError::ZeroReplication)
        );
        assert_eq!(
            ReplicaMap::new(fleet(), 0, 2),
            Err(PlacementError::ZeroRanges)
        );
    }

    #[test]
    fn replicas_prefer_distinct_racks() {
        // Two racks whose per-rack domain names collide ("server0" in
        // both): rack-aware placement must still separate replicas.
        let fleet: Vec<Backend> = (0..4)
            .map(|i| Backend {
                addr: Ipv4Addr::new(192, 168, i / 2, 1 + i % 2),
                port: 11211,
                domain: "server0".into(),
                rack: (i / 2) as usize,
            })
            .collect();
        let map = ReplicaMap::new(fleet, 8, 2).unwrap();
        for key in 0..64u32 {
            let reps = map.replicas_of(key);
            assert_ne!(
                map.backend(reps[0]).rack,
                map.backend(reps[1]).rack,
                "key {key} replicated inside one rack"
            );
        }
    }

    #[test]
    fn single_rack_fleets_fall_back_to_domain_spreading() {
        // One rack, r=2: racks are insufficient, domains carry the split.
        let map = ReplicaMap::new(fleet(), 8, 2).unwrap();
        for key in 0..16u32 {
            let reps = map.replicas_of(key);
            assert_ne!(map.backend(reps[0]).domain, map.backend(reps[1]).domain);
        }
    }

    #[test]
    fn single_backend_map_holds_every_key() {
        let addr = Ipv4Addr::new(10, 1, 0, 2);
        let map = ReplicaMap::single(addr, 11211);
        assert_eq!((map.len(), map.n_ranges(), map.replication()), (1, 1, 1));
        assert_eq!((map.backend(0).addr, map.backend(0).port), (addr, 11211));
        for key in [0, 1, 7, u32::MAX] {
            assert_eq!(map.replicas_of(key), &[0]);
        }
    }
}

//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a declarative description of every fault a run should
//! experience: per-component *rates*, a Bernoulli probability rolled each
//! time the component reaches an injection point. Components receive a
//! [`FaultInjector`] handle carved out of the plan and query it on their
//! hot paths.
//!
//! Everything is reproducible from the plan's single seed:
//!
//! * each component's random stream is derived as
//!   `DetRng::new(seed).fork(fnv1a64(0, component))`, so streams are
//!   independent of each other and of the order in which injectors are
//!   created, and
//! * a rate of zero never consumes a draw ([`DetRng::chance`] short-cuts),
//!   so an *inert* plan is behaviourally identical to no plan at all —
//!   the determinism tests that compare instrumented and plain runs hold.
//!
//! ```
//! use mcn_sim::fault::{FaultKind, FaultPlan};
//!
//! let mut plan = FaultPlan::new(42);
//! plan.rate("link.up0", FaultKind::Drop, 0.01);
//! plan.rate("alert", FaultKind::Drop, 1.0);
//! let mut alert = plan.injector("alert");
//! assert!(alert.fires(FaultKind::Drop)); // a certain fault
//! assert!(!alert.fires(FaultKind::Stall)); // no rate declared
//! // Two injectors for one name replay the same 1% rolls.
//! let (mut a, mut b) = (plan.injector("link.up0"), plan.injector("link.up0"));
//! assert!((0..100).all(|_| a.fires(FaultKind::Drop) == b.fires(FaultKind::Drop)));
//! ```

use std::collections::HashMap;

use crate::{fnv1a64, DetRng};

/// The kinds of faults a plan can inject. What each kind *means* is up to
/// the component: a link interprets `Drop` as frame loss, an interrupt line
/// as a lost edge, a DMA engine interprets `Stall` as a descriptor that
/// never completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Flip one bit of some payload (ECC/CRC escape, wire corruption).
    BitFlip,
    /// Lose the event or message entirely.
    Drop,
    /// Deliver late.
    Delay,
    /// Hang: the operation makes no progress until externally recovered.
    Stall,
}

impl FaultKind {
    const ALL: [FaultKind; 4] = [
        FaultKind::BitFlip,
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Stall,
    ];

    fn idx(self) -> usize {
        match self {
            FaultKind::BitFlip => 0,
            FaultKind::Drop => 1,
            FaultKind::Delay => 2,
            FaultKind::Stall => 3,
        }
    }
}

/// A seeded, declarative fault schedule for a whole system.
///
/// Build one, declare rates against *component names* (free-form
/// strings; system crates document the names they query), then hand each
/// component an injector with [`injector`](Self::injector).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rates: HashMap<(String, FaultKind), f64>,
}

impl FaultPlan {
    /// An empty (inert) plan with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: HashMap::new(),
        }
    }

    /// The seed every injector stream derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Declares that `component` suffers a `kind` fault with probability
    /// `p` (clamped to `[0, 1]`) at each injection point it reaches.
    pub fn rate(&mut self, component: &str, kind: FaultKind, p: f64) -> &mut Self {
        self.rates
            .insert((component.to_string(), kind), p.clamp(0.0, 1.0));
        self
    }

    /// Carves out the injector for `component`. Calling twice with the same
    /// name yields injectors with identical streams (replay), and the
    /// stream does not depend on what other components exist.
    pub fn injector(&self, component: &str) -> FaultInjector {
        let mut rates = [0.0f64; 4];
        for kind in FaultKind::ALL {
            if let Some(&p) = self.rates.get(&(component.to_string(), kind)) {
                rates[kind.idx()] = p;
            }
        }
        FaultInjector {
            rng: DetRng::new(self.seed).fork(fnv1a64(0, component.as_bytes())),
            rates,
        }
    }
}

/// A component's handle into a [`FaultPlan`]: owns the component's derived
/// random stream and its rates.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: DetRng,
    rates: [f64; 4],
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultInjector {
    /// An inert injector: nothing ever fires and no draws are consumed.
    /// The default wiring for systems built without a fault plan.
    pub fn none() -> Self {
        FaultInjector {
            rng: DetRng::new(0),
            rates: [0.0; 4],
        }
    }

    /// `true` if this injector can ever fire (any nonzero rate). Systems
    /// use this to decide whether to arm recovery machinery (e.g. a
    /// fallback poller) without perturbing fault-free baselines.
    pub fn is_active(&self) -> bool {
        self.rates.iter().any(|&p| p > 0.0)
    }

    /// Should a `kind` fault fire at this injection point? Rolls the
    /// declared rate; a zero rate consumes no randomness.
    pub fn fires(&mut self, kind: FaultKind) -> bool {
        self.rng.chance(self.rates[kind.idx()])
    }

    /// The injector's random stream, for picking fault *details* (which
    /// bit, how long a delay) deterministically.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Flips one uniformly chosen bit of `bytes` (no-op on an empty slice).
    /// Returns the flipped byte index.
    pub fn flip_bit(&mut self, bytes: &mut [u8]) -> Option<usize> {
        if bytes.is_empty() {
            return None;
        }
        let idx = self.rng.next_below(bytes.len() as u64) as usize;
        let bit = self.rng.next_below(8) as u8;
        bytes[idx] ^= 1 << bit;
        Some(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let mut plan = FaultPlan::new(7);
        plan.rate("x", FaultKind::Drop, 0.3);
        let mut a = plan.injector("x");
        let mut b = plan.injector("x");
        for _ in 0..1000 {
            assert_eq!(a.fires(FaultKind::Drop), b.fires(FaultKind::Drop));
        }
    }

    #[test]
    fn components_are_independent_of_each_other_and_of_creation_order() {
        let mut plan = FaultPlan::new(9);
        plan.rate("a", FaultKind::Drop, 0.5);
        plan.rate("b", FaultKind::Drop, 0.5);
        let mut a1 = plan.injector("a");
        let seq_a1: Vec<bool> = (0..64).map(|_| a1.fires(FaultKind::Drop)).collect();
        // Recreate "a" *after* "b" — its stream must be unchanged.
        let mut b = plan.injector("b");
        let mut a2 = plan.injector("a");
        let seq_b: Vec<bool> = (0..64).map(|_| b.fires(FaultKind::Drop)).collect();
        let seq_a2: Vec<bool> = (0..64).map(|_| a2.fires(FaultKind::Drop)).collect();
        assert_eq!(seq_a1, seq_a2);
        assert_ne!(seq_a1, seq_b, "distinct components see distinct streams");
    }

    #[test]
    fn rates_are_approximately_honored() {
        let mut plan = FaultPlan::new(3);
        plan.rate("l", FaultKind::BitFlip, 0.25);
        let mut inj = plan.injector("l");
        let hits = (0..10_000)
            .filter(|_| inj.fires(FaultKind::BitFlip))
            .count();
        assert!((2_200..2_800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn inert_plan_consumes_no_randomness() {
        let plan = FaultPlan::new(5);
        let mut inj = plan.injector("anything");
        assert!(!inj.is_active());
        let before = inj.rng.clone().next_u64();
        for _ in 0..100 {
            assert!(!inj.fires(FaultKind::Drop));
        }
        assert_eq!(inj.rng.next_u64(), before, "zero rates must not draw");
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        let mut plan = FaultPlan::new(11);
        plan.rate("f", FaultKind::BitFlip, 1.0);
        let mut inj = plan.injector("f");
        let mut buf = vec![0u8; 64];
        let idx = inj.flip_bit(&mut buf).unwrap();
        assert!(idx < 64);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(inj.flip_bit(&mut []), None);
    }
}

//! Per-core busy timelines.

use mcn_sim::SimTime;

/// A pool of identical cores with non-preemptive task scheduling.
///
/// Each core is a busy-until timestamp: scheduling work on a core starts at
/// `max(now, free_at)` and occupies it for the task's duration. This models
/// what matters for the paper's results — protocol work, polling and copies
/// competing for cores — without an instruction-level pipeline (see
/// DESIGN.md on the functional+timing split).
#[derive(Debug, Clone)]
pub struct CpuPool {
    free_at: Vec<SimTime>,
    busy_ps: Vec<u64>,
}

impl CpuPool {
    /// Creates a pool of `cores` idle cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        CpuPool {
            free_at: vec![SimTime::ZERO; cores],
            busy_ps: vec![0; cores],
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.free_at.len()
    }

    /// Schedules `work` on a specific core starting no earlier than `now`;
    /// returns `(start, end)`.
    pub fn run_on(&mut self, core: usize, now: SimTime, work: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at[core].max(now);
        let end = start + work;
        self.free_at[core] = end;
        self.busy_ps[core] += work.as_ps();
        (start, end)
    }

    /// The core that will become free soonest.
    pub fn least_loaded(&self) -> usize {
        self.free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("non-empty")
    }

    /// When `core` becomes free.
    pub fn free_at(&self, core: usize) -> SimTime {
        self.free_at[core]
    }

    /// Total busy time across all cores (for energy accounting).
    pub fn total_busy(&self) -> SimTime {
        SimTime::from_ps(self.busy_ps.iter().sum())
    }

    /// Busy time of one core.
    pub fn busy(&self, core: usize) -> SimTime {
        SimTime::from_ps(self.busy_ps[core])
    }

    /// Average utilization over `elapsed` (0..1 per core).
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == SimTime::ZERO {
            return 0.0;
        }
        self.total_busy().as_ps() as f64 / (elapsed.as_ps() as f64 * self.cores() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn run_on_serializes_per_core() {
        let mut p = CpuPool::new(2);
        let (s1, e1) = p.run_on(0, ns(10), ns(100));
        assert_eq!((s1, e1), (ns(10), ns(110)));
        // Second task on the same core queues behind the first.
        let (s2, e2) = p.run_on(0, ns(20), ns(50));
        assert_eq!((s2, e2), (ns(110), ns(160)));
        // Other core is free immediately.
        let (s3, _) = p.run_on(1, ns(20), ns(50));
        assert_eq!(s3, ns(20));
    }

    #[test]
    fn least_loaded_balances() {
        let mut p = CpuPool::new(4);
        let mut used = std::collections::HashSet::new();
        for _ in 0..4 {
            let core = p.least_loaded();
            p.run_on(core, SimTime::ZERO, ns(100));
            used.insert(core);
        }
        assert_eq!(used.len(), 4, "each task should land on a fresh core");
    }

    #[test]
    fn utilization_accounting() {
        let mut p = CpuPool::new(2);
        p.run_on(0, SimTime::ZERO, ns(500));
        p.run_on(1, SimTime::ZERO, ns(500));
        assert_eq!(p.total_busy(), ns(1000));
        assert!((p.utilization(ns(1000)) - 0.5).abs() < 1e-12);
        assert_eq!(p.busy(0), ns(500));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        CpuPool::new(0);
    }
}

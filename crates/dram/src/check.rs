//! Independent JEDEC timing validation of command traces.
//!
//! The scheduler in [`crate::Channel`] *derives* command times from the
//! timing parameters; this module *re-checks* an emitted trace against the
//! same parameters with a completely separate implementation, so a bug in
//! the scheduler's bookkeeping cannot hide behind the same bug in the test.

use mcn_sim::SimTime;

use crate::DramConfig;

/// A DRAM command as it appears on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmd {
    /// Activate `row` in `bank`.
    Act {
        /// Flat bank index within the channel.
        bank: usize,
        /// Row opened.
        row: u64,
    },
    /// Precharge `bank`.
    Pre {
        /// Flat bank index within the channel.
        bank: usize,
    },
    /// Column read from `bank` (open row must equal `row`).
    Rd {
        /// Flat bank index within the channel.
        bank: usize,
        /// Row addressed.
        row: u64,
    },
    /// Column write to `bank`.
    Wr {
        /// Flat bank index within the channel.
        bank: usize,
        /// Row addressed.
        row: u64,
    },
    /// All-bank refresh.
    Ref,
}

/// One trace record: a command and its issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Command-bus issue time.
    pub at: SimTime,
    /// The command.
    pub cmd: Cmd,
}

/// A detected constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the offending entry in the trace.
    pub index: usize,
    /// Human-readable description of the violated rule.
    pub rule: String,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BankSt {
    Idle,
    Open(u64),
}

/// Replays a command trace and checks every JEDEC constraint the scheduler
/// is supposed to honour.
#[derive(Debug)]
pub struct TimingChecker {
    cfg: DramConfig,
}

impl TimingChecker {
    /// Creates a checker for the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        TimingChecker { cfg }
    }

    fn coords(&self, bank: usize) -> (usize, usize) {
        // flat = (rank * BG + bg) * banks_per_group + bank_in_group
        let per_rank = (self.cfg.bank_groups * self.cfg.banks_per_group) as usize;
        let rank = bank / per_rank;
        let bg = (bank % per_rank) / self.cfg.banks_per_group as usize;
        (rank, bg)
    }

    /// Validates `trace`; returns all violations found (empty = clean).
    pub fn verify(&self, trace: &[TraceEntry]) -> Vec<Violation> {
        let c = &self.cfg;
        let cy = |n: u64| c.cycles(n);
        let nbanks = c.banks_per_channel() as usize;
        let nranks = c.ranks as usize;
        let nbg = (c.ranks * c.bank_groups) as usize;

        let mut v = Vec::new();
        let mut bad = |i: usize, rule: String| v.push(Violation { index: i, rule });

        let mut state = vec![BankSt::Idle; nbanks];
        let mut last_act = vec![Option::<SimTime>::None; nbanks];
        let mut last_pre = vec![Option::<SimTime>::None; nbanks];
        let mut last_rd = vec![Option::<SimTime>::None; nbanks];
        let mut last_wr_end = vec![Option::<SimTime>::None; nbanks];
        let mut rank_acts: Vec<Vec<SimTime>> = vec![Vec::new(); nranks];
        let mut bg_last_act = vec![Option::<SimTime>::None; nbg];
        let mut rank_last_act = vec![Option::<SimTime>::None; nranks];
        let mut bg_last_cas = vec![Option::<SimTime>::None; nbg];
        let mut any_last_cas: Option<SimTime> = None;
        let mut bg_wr_end = vec![Option::<SimTime>::None; nbg];
        let mut rank_wr_end = vec![Option::<SimTime>::None; nranks];
        let mut last_ref: Option<SimTime> = None;
        let mut data_busy_until = SimTime::ZERO;
        let mut prev_cmd_at: Option<SimTime> = None;

        let t_burst = c.t_burst();

        for (i, e) in trace.iter().enumerate() {
            let t = e.at;
            if let Some(p) = prev_cmd_at {
                if t < p + cy(1) {
                    bad(i, format!("command bus conflict: {t} < prev {p} + tCK"));
                }
            }
            prev_cmd_at = Some(t);

            match e.cmd {
                Cmd::Act { bank, row } => {
                    let (rank, _) = self.coords(bank);
                    let bg = self.bg_index(bank);
                    if state[bank] != BankSt::Idle {
                        bad(i, format!("ACT to non-idle bank {bank}"));
                    }
                    if let Some(a) = last_act[bank] {
                        if t < a + cy(c.t_rc) {
                            bad(i, format!("tRC: ACT@{t} after ACT@{a} bank {bank}"));
                        }
                    }
                    if let Some(p) = last_pre[bank] {
                        if t < p + cy(c.t_rp) {
                            bad(i, format!("tRP: ACT@{t} after PRE@{p} bank {bank}"));
                        }
                    }
                    if let Some(a) = bg_last_act[bg] {
                        if t < a + cy(c.t_rrd_l) {
                            bad(i, format!("tRRD_L: ACT@{t} after ACT@{a} bg {bg}"));
                        }
                    }
                    if let Some(a) = rank_last_act[rank] {
                        if t < a + cy(c.t_rrd_s) {
                            bad(i, format!("tRRD_S: ACT@{t} after ACT@{a} rank {rank}"));
                        }
                    }
                    if let Some(r) = last_ref {
                        if t < r + cy(c.t_rfc) {
                            bad(i, format!("tRFC: ACT@{t} after REF@{r}"));
                        }
                    }
                    let acts = &mut rank_acts[rank];
                    acts.push(t);
                    let faw = cy(c.t_faw);
                    acts.retain(|&a| a + faw > t);
                    if acts.len() > 4 {
                        bad(i, format!("tFAW: {} ACTs within window at {t}", acts.len()));
                    }
                    state[bank] = BankSt::Open(row);
                    last_act[bank] = Some(t);
                    bg_last_act[bg] = Some(t);
                    rank_last_act[rank] = Some(t);
                }
                Cmd::Pre { bank } => {
                    match state[bank] {
                        BankSt::Idle => bad(i, format!("PRE to idle bank {bank}")),
                        BankSt::Open(_) => {}
                    }
                    if let Some(a) = last_act[bank] {
                        if t < a + cy(c.t_ras) {
                            bad(i, format!("tRAS: PRE@{t} after ACT@{a} bank {bank}"));
                        }
                    }
                    if let Some(r) = last_rd[bank] {
                        if t < r + cy(c.t_rtp) {
                            bad(i, format!("tRTP: PRE@{t} after RD@{r} bank {bank}"));
                        }
                    }
                    if let Some(w) = last_wr_end[bank] {
                        if t < w + cy(c.t_wr) {
                            bad(i, format!("tWR: PRE@{t} after WR-data-end@{w} bank {bank}"));
                        }
                    }
                    state[bank] = BankSt::Idle;
                    last_pre[bank] = Some(t);
                }
                Cmd::Rd { bank, row } | Cmd::Wr { bank, row } => {
                    let is_read = matches!(e.cmd, Cmd::Rd { .. });
                    let (rank, _) = self.coords(bank);
                    let bg = self.bg_index(bank);
                    match state[bank] {
                        BankSt::Open(open) if open == row => {}
                        BankSt::Open(open) => {
                            bad(i, format!("CAS row {row} but bank {bank} has {open} open"))
                        }
                        BankSt::Idle => bad(i, format!("CAS to idle bank {bank}")),
                    }
                    if let Some(a) = last_act[bank] {
                        if t < a + cy(c.t_rcd) {
                            bad(i, format!("tRCD: CAS@{t} after ACT@{a} bank {bank}"));
                        }
                    }
                    if let Some(x) = bg_last_cas[bg] {
                        if t < x + cy(c.t_ccd_l) {
                            bad(i, format!("tCCD_L: CAS@{t} after CAS@{x} bg {bg}"));
                        }
                    }
                    if let Some(x) = any_last_cas {
                        if t < x + cy(c.t_ccd_s) {
                            bad(i, format!("tCCD_S: CAS@{t} after CAS@{x}"));
                        }
                    }
                    if is_read {
                        if let Some(w) = bg_wr_end[bg] {
                            if t < w + cy(c.t_wtr_l) {
                                bad(i, format!("tWTR_L: RD@{t} after WR-end@{w} bg {bg}"));
                            }
                        }
                        if let Some(w) = rank_wr_end[rank] {
                            if t < w + cy(c.t_wtr_s) {
                                bad(i, format!("tWTR_S: RD@{t} after WR-end@{w} rank {rank}"));
                            }
                        }
                    }
                    let lat = if is_read { cy(c.t_cl) } else { cy(c.t_cwl) };
                    let data_start = t + lat;
                    if data_start < data_busy_until {
                        bad(
                            i,
                            format!(
                                "data bus overlap: data@{data_start} before free@{data_busy_until}"
                            ),
                        );
                    }
                    data_busy_until = data_busy_until.max(data_start + t_burst);
                    bg_last_cas[bg] = Some(t);
                    any_last_cas = Some(t);
                    if is_read {
                        last_rd[bank] = Some(t);
                    } else {
                        let end = data_start + t_burst;
                        last_wr_end[bank] = Some(end);
                        bg_wr_end[bg] = Some(end);
                        rank_wr_end[rank] = Some(end);
                    }
                }
                Cmd::Ref => {
                    for (b, s) in state.iter().enumerate() {
                        if *s != BankSt::Idle {
                            bad(i, format!("REF with bank {b} open"));
                        }
                    }
                    for (b, p) in last_pre.iter().enumerate() {
                        if let Some(p) = p {
                            if t < *p + cy(c.t_rp) {
                                bad(i, format!("REF@{t} before tRP after PRE@{p} bank {b}"));
                            }
                        }
                    }
                    if let Some(r) = last_ref {
                        if t < r + cy(c.t_rfc) {
                            bad(i, format!("REF@{t} within tRFC of REF@{r}"));
                        }
                    }
                    last_ref = Some(t);
                }
            }
        }
        v
    }

    fn bg_index(&self, bank: usize) -> usize {
        let per_rank = (self.cfg.bank_groups * self.cfg.banks_per_group) as usize;
        let rank = bank / per_rank;
        let bg = (bank % per_rank) / self.cfg.banks_per_group as usize;
        rank * self.cfg.bank_groups as usize + bg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, DramConfig, MemKind, MemRequest, LINE_BYTES};
    use mcn_sim::{DetRng, SimTime};

    fn run_workload(seed: u64, n: u64, write_frac: f64, random: bool) -> Vec<TraceEntry> {
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        ch.enable_trace();
        let mut rng = DetRng::new(seed);
        let span = ch.config().channel_bytes() / LINE_BYTES;
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut seq_addr = 0u64;
        while completed < n {
            while issued < n {
                let is_write = rng.chance(write_frac);
                if !ch.can_accept(if is_write {
                    MemKind::Write
                } else {
                    MemKind::Read
                }) {
                    break;
                }
                let addr = if random {
                    rng.next_below(span) * LINE_BYTES
                } else {
                    seq_addr += LINE_BYTES;
                    seq_addr
                };
                let req = if is_write {
                    MemRequest::write(addr, issued)
                } else {
                    MemRequest::read(addr, issued)
                };
                ch.push(req, SimTime::ZERO);
                issued += 1;
            }
            let t = ch.next_event().expect("must have work");
            completed += ch.advance(t).len() as u64;
        }
        ch.trace().to_vec()
    }

    #[test]
    fn sequential_read_trace_is_clean() {
        let trace = run_workload(1, 2000, 0.0, false);
        let checker = TimingChecker::new(DramConfig::ddr4_3200());
        let violations = checker.verify(&trace);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn random_mixed_trace_is_clean() {
        let trace = run_workload(2, 2000, 0.4, true);
        let checker = TimingChecker::new(DramConfig::ddr4_3200());
        let violations = checker.verify(&trace);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn checker_catches_trcd_violation() {
        let cfg = DramConfig::ddr4_3200();
        let checker = TimingChecker::new(cfg.clone());
        let trace = vec![
            TraceEntry {
                at: SimTime::ZERO,
                cmd: Cmd::Act { bank: 0, row: 1 },
            },
            TraceEntry {
                at: cfg.cycles(2), // far less than tRCD
                cmd: Cmd::Rd { bank: 0, row: 1 },
            },
        ];
        let v = checker.verify(&trace);
        assert!(v.iter().any(|x| x.rule.contains("tRCD")), "{v:?}");
    }

    #[test]
    fn checker_catches_wrong_row_and_idle_cas() {
        let cfg = DramConfig::ddr4_3200();
        let checker = TimingChecker::new(cfg.clone());
        let trace = vec![
            TraceEntry {
                at: SimTime::ZERO,
                cmd: Cmd::Rd { bank: 0, row: 3 },
            },
            TraceEntry {
                at: cfg.cycles(10),
                cmd: Cmd::Act { bank: 0, row: 1 },
            },
            TraceEntry {
                at: cfg.cycles(100),
                cmd: Cmd::Rd { bank: 0, row: 2 },
            },
        ];
        let v = checker.verify(&trace);
        assert!(v.iter().any(|x| x.rule.contains("idle bank")), "{v:?}");
        assert!(v.iter().any(|x| x.rule.contains("has 1 open")), "{v:?}");
    }

    #[test]
    fn checker_catches_faw_violation() {
        let cfg = DramConfig::ddr4_3200();
        let checker = TimingChecker::new(cfg.clone());
        // 5 ACTs to different bank groups spaced tRRD_S apart — violates tFAW
        // (5 * tRRD_S = 20 < tFAW = 34).
        let mut trace = Vec::new();
        for i in 0..5u64 {
            trace.push(TraceEntry {
                at: cfg.cycles(i * cfg.t_rrd_s),
                // banks 0,4,8,12 are bank groups 0..3 of rank 0; 5th wraps
                // to a different bank of bg 0.
                cmd: Cmd::Act {
                    bank: ((i % 4) * 4 + i / 4) as usize,
                    row: 0,
                },
            });
        }
        let v = checker.verify(&trace);
        assert!(v.iter().any(|x| x.rule.contains("tFAW")), "{v:?}");
    }

    #[test]
    fn refresh_trace_is_clean() {
        // Long trickle workload with idle gaps so refreshes interleave.
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        ch.enable_trace();
        let refi = cfg.cycles(cfg.t_refi);
        let mut now = SimTime::ZERO;
        for i in 0..64u64 {
            ch.push(MemRequest::read(i * 7 * LINE_BYTES, i), now);
            while let Some(t) = ch.next_event() {
                now = now.max(t);
                if ch.advance(t).iter().any(|cpl| cpl.tag == i) {
                    break;
                }
            }
            now += refi / 4;
            let _ = ch.advance(now);
        }
        assert!(ch.stats().refreshes.get() > 0, "no refreshes happened");
        let checker = TimingChecker::new(cfg);
        let v = checker.verify(ch.trace());
        assert!(v.is_empty(), "violations: {v:?}");
    }
}

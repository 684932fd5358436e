//! Per-bank state machine.

use mcn_sim::SimTime;

/// State of one DRAM bank: either precharged (idle) or with one row latched
/// in the row buffer (open-page policy keeps rows open until a conflict or
/// refresh forces a precharge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// All rows precharged.
    Idle,
    /// `row` is open in the row buffer.
    Active {
        /// The open row.
        row: u64,
    },
}

/// One bank's state plus the earliest times each command class may next be
/// issued to it. Cross-bank constraints (tRRD, tFAW, tCCD, tWTR, data-bus
/// occupancy) are enforced by the channel, not here.
#[derive(Debug, Clone)]
pub struct Bank {
    /// Current row-buffer state.
    pub state: BankState,
    /// Earliest ACT (covers tRP after PRE, tRC after ACT, tRFC after REF).
    pub act_ready: SimTime,
    /// Earliest PRE (covers tRAS after ACT, tRTP after RD, write recovery).
    pub pre_ready: SimTime,
    /// Earliest RD/WR (covers tRCD after ACT).
    pub cas_ready: SimTime,
}

impl Default for Bank {
    fn default() -> Self {
        Bank {
            state: BankState::Idle,
            act_ready: SimTime::ZERO,
            pre_ready: SimTime::ZERO,
            cas_ready: SimTime::ZERO,
        }
    }
}

impl Bank {
    /// Records an ACT issued at `t` opening `row`.
    pub fn activate(
        &mut self,
        t: SimTime,
        row: u64,
        t_rcd: SimTime,
        t_ras: SimTime,
        t_rc: SimTime,
    ) {
        debug_assert_eq!(self.state, BankState::Idle, "ACT to non-idle bank");
        self.state = BankState::Active { row };
        self.cas_ready = t + t_rcd;
        self.pre_ready = (t + t_ras).max(self.pre_ready);
        self.act_ready = t + t_rc;
    }

    /// Records a PRE issued at `t`.
    pub fn precharge(&mut self, t: SimTime, t_rp: SimTime) {
        debug_assert_ne!(self.state, BankState::Idle, "PRE to idle bank");
        self.state = BankState::Idle;
        self.act_ready = self.act_ready.max(t + t_rp);
    }

    /// Records a RD issued at `t` (constrains the following PRE by tRTP).
    pub fn read(&mut self, t: SimTime, t_rtp: SimTime) {
        self.pre_ready = self.pre_ready.max(t + t_rtp);
    }

    /// Records a WR issued at `t` whose data burst ends at `data_end`
    /// (constrains the following PRE by write recovery tWR).
    pub fn write(&mut self, data_end: SimTime, t_wr: SimTime) {
        self.pre_ready = self.pre_ready.max(data_end + t_wr);
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        match self.state {
            BankState::Active { row } => Some(row),
            BankState::Idle => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_ns(n)
    }

    #[test]
    fn act_opens_row_and_sets_windows() {
        let mut b = Bank::default();
        b.activate(ns(100), 7, ns(14), ns(32), ns(46));
        assert_eq!(b.open_row(), Some(7));
        assert_eq!(b.cas_ready, ns(114));
        assert_eq!(b.pre_ready, ns(132));
        assert_eq!(b.act_ready, ns(146));
    }

    #[test]
    fn pre_closes_and_gates_next_act() {
        let mut b = Bank::default();
        b.activate(ns(0), 1, ns(14), ns(32), ns(46));
        b.precharge(ns(40), ns(14));
        assert_eq!(b.open_row(), None);
        // max(tRC-from-ACT = 46, PRE+tRP = 54)
        assert_eq!(b.act_ready, ns(54));
    }

    #[test]
    fn read_and_write_extend_pre_window() {
        let mut b = Bank::default();
        b.activate(ns(0), 1, ns(14), ns(32), ns(46));
        b.read(ns(30), ns(8));
        assert_eq!(b.pre_ready, ns(38).max(ns(32)));
        b.write(ns(60), ns(15));
        assert_eq!(b.pre_ready, ns(75));
    }
}

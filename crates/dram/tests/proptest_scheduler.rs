//! Property tests: the FR-FCFS scheduler must produce JEDEC-clean command
//! traces under *randomized* timing configurations and workloads, checked
//! by the independent `TimingChecker`. A scheduler bug that only surfaces
//! with unusual parameter ratios (e.g. tiny tFAW, huge tWTR) is exactly
//! what this hunts.

use mcn_dram::check::TimingChecker;
use mcn_dram::{Channel, DramConfig, MemKind, MemRequest};
use mcn_sim::{DetRng, SimTime};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = DramConfig> {
    (
        2u64..=30,                        // t_rcd
        2u64..=30,                        // t_rp
        4u64..=30,                        // t_cl
        2u64..=20,                        // t_cwl
        10u64..=60,                       // t_ras
        2u64..=8,                         // t_rrd_s
        0u64..=8,                         // t_rrd_l extra over rrd_s
        2u64..=6,                         // t_ccd_s
        0u64..=6,                         // t_ccd_l extra
        2u64..=30,                        // t_wr
        (1u64..=6, 0u64..=10, 2u64..=16), // t_wtr_s, t_wtr_l extra, t_rtp
    )
        .prop_map(
            |(
                t_rcd,
                t_rp,
                t_cl,
                t_cwl,
                t_ras,
                rrd_s,
                rrd_l_x,
                ccd_s,
                ccd_l_x,
                t_wr,
                (wtr_s, wtr_l_x, t_rtp),
            )| {
                let mut c = DramConfig::ddr4_3200();
                c.t_rcd = t_rcd;
                c.t_rp = t_rp;
                c.t_cl = t_cl;
                c.t_cwl = t_cwl;
                c.t_ras = t_ras;
                c.t_rc = t_ras + t_rp;
                c.t_rrd_s = rrd_s;
                c.t_rrd_l = rrd_s + rrd_l_x;
                c.t_faw = 4 * rrd_s + 2;
                c.t_ccd_s = ccd_s;
                c.t_ccd_l = ccd_s + ccd_l_x;
                c.t_wr = t_wr;
                c.t_wtr_s = wtr_s;
                c.t_wtr_l = wtr_s + wtr_l_x;
                c.t_rtp = t_rtp;
                c.validate().expect("constructed to be valid");
                c
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_configs_yield_clean_traces(
        cfg in arb_config(),
        seed in 0u64..1_000_000,
        write_frac in 0.0f64..=1.0,
        random_addrs in any::<bool>(),
    ) {
        let mut ch = Channel::new(&cfg, 0);
        ch.enable_trace();
        let mut rng = DetRng::new(seed);
        let span = cfg.channel_bytes() / 64;
        let n = 400u64;
        let mut issued = 0;
        let mut completed = 0;
        let mut seq = 0u64;
        while completed < n {
            while issued < n {
                let w = rng.chance(write_frac);
                let kind = if w { MemKind::Write } else { MemKind::Read };
                if !ch.can_accept(kind) {
                    break;
                }
                let addr = if random_addrs {
                    rng.next_below(span) * 64
                } else {
                    seq += 64;
                    seq
                };
                let req = if w { MemRequest::write(addr, issued) } else { MemRequest::read(addr, issued) };
                ch.push(req, SimTime::ZERO);
                issued += 1;
            }
            let t = ch.next_event().expect("work pending");
            completed += ch.advance(t).len() as u64;
        }
        let violations = TimingChecker::new(cfg).verify(ch.trace());
        prop_assert!(violations.is_empty(), "violations: {:?}", &violations[..violations.len().min(3)]);
    }

    #[test]
    fn completions_preserve_all_tags(
        seed in 0u64..1_000_000,
    ) {
        // Every pushed request completes exactly once, regardless of the
        // scheduler's reordering.
        let cfg = DramConfig::ddr4_3200();
        let mut ch = Channel::new(&cfg, 0);
        let mut rng = DetRng::new(seed);
        let n = 300u64;
        let mut issued = 0;
        let mut tags = std::collections::HashSet::new();
        loop {
            while issued < n {
                let w = rng.chance(0.3);
                let kind = if w { MemKind::Write } else { MemKind::Read };
                if !ch.can_accept(kind) { break; }
                let addr = rng.next_below(1 << 20) * 64;
                let req = if w { MemRequest::write(addr, issued) } else { MemRequest::read(addr, issued) };
                ch.push(req, SimTime::ZERO);
                issued += 1;
            }
            let Some(t) = ch.next_event() else { break };
            for c in ch.advance(t) {
                prop_assert!(tags.insert(c.tag), "tag {} completed twice", c.tag);
            }
            if issued == n && ch.outstanding() == 0 { break; }
        }
        prop_assert_eq!(tags.len() as u64, n);
    }
}

//! Routing-table semantics: longest-prefix match, /32 point-to-point
//! routes, default routes, and the MCN-side fallback neighbor.

use bytes::Bytes;
use mcn_net::tcp::TcpConfig;
use mcn_net::{MacAddr, NetConfig, NetStack};
use mcn_sim::SimTime;
use std::net::Ipv4Addr;

fn stack_with_ifaces() -> NetStack {
    let mut s = NetStack::new(TcpConfig::default());
    s.add_interface(NetConfig::ethernet(
        MacAddr::from_id(1),
        Ipv4Addr::new(10, 1, 0, 1),
    ));
    s.add_interface(NetConfig::ethernet(
        MacAddr::from_id(2),
        Ipv4Addr::new(10, 2, 0, 1),
    ));
    s
}

fn egress_iface(s: &mut NetStack, dst: Ipv4Addr) -> Option<usize> {
    let u = s.udp_bind(0).unwrap();
    s.udp_send(u, dst, 9, Bytes::from_static(b"x"), SimTime::ZERO)
        .ok()?;
    (0..2).find(|&ifidx| s.poll_output(ifidx).is_some())
}

#[test]
fn longest_prefix_wins_regardless_of_insertion_order() {
    let mut s = stack_with_ifaces();
    let any = Ipv4Addr::new(0, 0, 0, 0);
    // Default via iface 0 inserted FIRST; /32 via iface 1 second.
    s.add_route(any, any, 0, None);
    s.add_route(
        Ipv4Addr::new(10, 9, 9, 9),
        Ipv4Addr::new(255, 255, 255, 255),
        1,
        None,
    );
    s.add_neighbor(Ipv4Addr::new(10, 9, 9, 9), MacAddr::from_id(77));
    s.set_fallback_neighbor(MacAddr::from_id(0xFFFE));
    assert_eq!(egress_iface(&mut s, Ipv4Addr::new(10, 9, 9, 9)), Some(1));
    assert_eq!(egress_iface(&mut s, Ipv4Addr::new(10, 9, 9, 8)), Some(0));
}

#[test]
fn point_to_point_slash_32_matches_exactly() {
    let mut s = stack_with_ifaces();
    let host = Ipv4Addr::new(255, 255, 255, 255);
    s.add_route(Ipv4Addr::new(10, 1, 0, 2), host, 0, None);
    s.add_route(Ipv4Addr::new(10, 2, 0, 2), host, 1, None);
    s.add_neighbor(Ipv4Addr::new(10, 1, 0, 2), MacAddr::from_id(11));
    s.add_neighbor(Ipv4Addr::new(10, 2, 0, 2), MacAddr::from_id(12));
    assert_eq!(egress_iface(&mut s, Ipv4Addr::new(10, 1, 0, 2)), Some(0));
    assert_eq!(egress_iface(&mut s, Ipv4Addr::new(10, 2, 0, 2)), Some(1));
    // No route at all for anything else.
    assert_eq!(egress_iface(&mut s, Ipv4Addr::new(10, 3, 0, 2)), None);
}

#[test]
fn fallback_neighbor_applies_only_without_an_entry() {
    let mut s = stack_with_ifaces();
    let any = Ipv4Addr::new(0, 0, 0, 0);
    s.add_route(any, any, 0, None);
    s.add_neighbor(Ipv4Addr::new(10, 5, 0, 5), MacAddr::from_id(50));
    s.set_fallback_neighbor(MacAddr::from_id(0xFFFE));
    let u = s.udp_bind(0).unwrap();
    s.udp_send(
        u,
        Ipv4Addr::new(10, 5, 0, 5),
        9,
        Bytes::from_static(b"a"),
        SimTime::ZERO,
    )
    .unwrap();
    assert_eq!(s.poll_output(0).unwrap().dst, MacAddr::from_id(50));
    s.udp_send(
        u,
        Ipv4Addr::new(10, 6, 0, 6),
        9,
        Bytes::from_static(b"b"),
        SimTime::ZERO,
    )
    .unwrap();
    assert_eq!(s.poll_output(0).unwrap().dst, MacAddr::from_id(0xFFFE));
}

//! Deterministic "property" tests for credit accounting and delivery
//! checking (paper §IV-D).
//!
//! Ports the old (never compiled) proptest suite to the workspace PRNG:
//! every run explores the same cases, and a failure names its case.

use supersim_des::Rng;
use supersim_netbase::{
    AppId, CreditCounter, DeliveryChecker, Flit, MessageId, PacketBuilder, PacketId, TerminalId,
};

fn packet(id: u64, src: TerminalId, dst: TerminalId, size: u32) -> Vec<Flit> {
    PacketBuilder {
        id: PacketId(id),
        message: MessageId(id),
        app: AppId(0),
        src,
        dst,
        size,
        message_size: size,
        inject_tick: 0,
        message_tick: 0,
        sample: false,
    }
    .build()
}

#[test]
fn credit_counter_matches_a_trivial_model() {
    // Never above capacity, never negative, occupancy complements
    // availability — under any consume/release sequence.
    let mut rng = Rng::new(0xC0DE);
    for case in 0..256 {
        let capacity = rng.gen_range(0u32..64);
        let mut c = CreditCounter::new(capacity);
        let mut model = capacity;
        for op in 0..rng.gen_range(0usize..256) {
            if rng.gen_bool(0.5) {
                let ok = c.try_consume();
                assert_eq!(ok, model > 0, "case {case} op {op}");
                model -= u32::from(ok);
            } else {
                let ok = c.release().is_ok();
                assert_eq!(ok, model < capacity, "case {case} op {op}");
                model += u32::from(ok);
            }
            assert_eq!(c.available(), model, "case {case} op {op}");
            assert_eq!(c.occupancy(), capacity - model, "case {case} op {op}");
            assert!(c.available() <= c.capacity());
        }
    }
}

#[test]
fn delivery_checker_accepts_any_interleaving_of_whole_packets() {
    // Each packet in order, packets interleaved at random: always valid.
    let mut rng = Rng::new(0xDE11);
    let dst = TerminalId(0);
    for case in 0..256 {
        let packets: Vec<Vec<Flit>> = (0..rng.gen_range(1u64..8))
            .map(|i| packet(i, TerminalId(1), dst, rng.gen_range(1u32..6)))
            .collect();
        let mut checker = DeliveryChecker::new(dst);
        let mut cursors = vec![0usize; packets.len()];
        let total: usize = packets.iter().map(Vec::len).sum();
        for _ in 0..total {
            let live: Vec<usize> = (0..packets.len())
                .filter(|&i| cursors[i] < packets[i].len())
                .collect();
            let i = live[rng.gen_range(0..live.len())];
            cursors[i] += 1;
            let done = checker
                .deliver(&packets[i][cursors[i] - 1])
                .unwrap_or_else(|e| panic!("case {case}: in-order delivery rejected: {e}"));
            assert_eq!(done, cursors[i] == packets[i].len(), "case {case}");
        }
        assert_eq!(checker.packets_completed(), packets.len() as u64);
        assert_eq!(checker.flits_delivered(), total as u64);
        assert_eq!(checker.packets_in_flight(), 0);
    }
}

#[test]
fn delivery_checker_rejects_every_swap_within_a_packet() {
    // Every pair of distinct flit positions of every packet size 2–7.
    let dst = TerminalId(2);
    for size in 2u32..8 {
        for a in 0..size as usize {
            for b in a + 1..size as usize {
                let mut flits = packet(1, TerminalId(0), dst, size);
                flits.swap(a, b);
                let mut checker = DeliveryChecker::new(dst);
                assert!(
                    flits.iter().any(|f| checker.deliver(f).is_err()),
                    "size {size}: swapping flits {a} and {b} went undetected"
                );
            }
        }
    }
}

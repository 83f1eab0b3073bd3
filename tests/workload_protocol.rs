//! The four-phase workload protocol observed end to end: sampling windows,
//! multi-application interop, and sample flagging (paper §IV-A).

mod common;

use supersim::config::Value;
use supersim::core::SuperSim;
use supersim::netbase::Phase;
use supersim::stats::RecordKind;

#[test]
fn sampled_packets_were_sent_inside_the_window() {
    let cfg = common::quickstart();
    let out = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let (start, end) = out.window().expect("window exists");
    // The end boundary is inclusive: a message created at the same tick
    // the Stop command arrives was generated while its terminal was still
    // in the generating phase (intra-tick event ordering).
    for r in out.log.of_kind(RecordKind::Packet) {
        assert!(
            r.send >= start && r.send <= end,
            "sampled packet sent at {} outside window [{start}, {end}]",
            r.send
        );
    }
}

#[test]
fn warmup_traffic_is_not_sampled() {
    // With a long warmup the interfaces carry traffic before the window;
    // none of it may appear in the log.
    let mut cfg = common::quickstart();
    cfg.set_path("workload.applications.0.warmup_ticks", Value::from(2000u64))
        .expect("object");
    let out = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let start = out
        .phase_start(Phase::Generating)
        .expect("generating happened");
    assert!(start >= 2000, "warmup was cut short");
    // Traffic flowed during warming...
    let warm_flits: u64 = out.window_flits;
    assert!(
        out.counters.flits_received > warm_flits,
        "no warmup traffic"
    );
    // ...but every logged record was sampled inside the window.
    assert!(out.log.records().iter().all(|r| r.send >= start));
}

#[test]
fn blast_and_pulse_interoperate() {
    let cfg = common::config(
        "paper/transient.json",
        &[
            "workload.applications.0.load=float=0.2",
            "workload.applications.0.sample_ticks=uint=2000",
            "workload.applications.1.load=float=0.8",
            "workload.applications.1.count=uint=20",
            "workload.applications.1.delay=uint=500",
        ],
    );
    let out = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    // Both applications contributed samples.
    let blast = out.log.records().iter().filter(|r| r.app == 0).count();
    let pulse = out.log.records().iter().filter(|r| r.app == 1).count();
    assert!(blast > 0, "blast sampled nothing");
    assert!(pulse > 0, "pulse sampled nothing");
    // Pulse fired exactly 20 messages per terminal (32 terminals).
    let pulse_msgs = out
        .log
        .of_kind(RecordKind::Message)
        .filter(|r| r.app == 1)
        .count();
    assert_eq!(pulse_msgs, 20 * 32);
    // The generating phase lasted at least the configured sample time.
    let (start, end) = out.window().expect("window");
    assert!(
        end - start >= 2000,
        "sampling window shorter than blast asked for"
    );
}

#[test]
fn pingpong_transactions_are_recorded() {
    let mut cfg = common::quickstart();
    cfg.set_path(
        "workload.applications.0",
        supersim::config::obj! {
            "name" => "pingpong",
            "request_size" => 1u64,
            "reply_size" => 3u64,
            "transactions" => 5u64,
            "pattern" => obj_pattern(),
        },
    )
    .expect("object");
    let out = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let txns = out.log.of_kind(RecordKind::Transaction).count();
    // 16 terminals × 5 transactions each.
    assert_eq!(txns, 16 * 5);
    // Transaction latency covers a full round trip: strictly more than the
    // one-way packet latency of its request.
    let mean_pkt = out.mean_packet_latency().expect("packets sampled");
    let mean_txn: f64 = {
        let (sum, n) = out
            .log
            .of_kind(RecordKind::Transaction)
            .fold((0u64, 0u64), |(s, n), r| (s + r.latency(), n + 1));
        sum as f64 / n as f64
    };
    assert!(
        mean_txn > mean_pkt * 1.5,
        "transaction latency {mean_txn} vs packet {mean_pkt}"
    );
}

fn obj_pattern() -> Value {
    supersim::config::obj! { "name" => "random_permutation", "seed" => 3u64 }
}

#[test]
fn messages_latencies_bound_packet_latencies() {
    // A message completes no earlier than its last packet; with one packet
    // per message the two records agree exactly.
    let cfg = common::quickstart();
    let out = SuperSim::from_config(&cfg)
        .expect("build")
        .run()
        .expect("run");
    let packets = out.log.of_kind(RecordKind::Packet).count();
    let messages = out.log.of_kind(RecordKind::Message).count();
    assert!(messages > 0);
    // 2-flit messages with max packet 4: exactly one packet per message.
    assert_eq!(packets, messages);
    let mean_pkt = out.mean_packet_latency().expect("sampled");
    let mean_msg: f64 = {
        let (sum, n) = out
            .log
            .of_kind(RecordKind::Message)
            .fold((0u64, 0u64), |(s, n), r| (s + r.latency(), n + 1));
        sum as f64 / n as f64
    };
    assert!((mean_pkt - mean_msg).abs() < 1e-9);
}

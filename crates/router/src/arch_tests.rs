//! Tests of the shared skeleton, run from one table over all three
//! architectures: the arrival path and its error detection, conservation
//! properties under random traffic, and the checkpoint format.

use supersim_des::{Component, Rng, Simulator, Tick, Time};
use supersim_netbase::{Ev, TerminalId};

use crate::congestion::{CongestionGranularity, CongestionSource};
use crate::skeleton::{Router, RouterConfig};
use crate::stages::XbarConfig;
use crate::testutil::{boxed, router_config, sensor, test_flit, unwired_config, TestNet};
use crate::xbar_sched::FlowControl;
use crate::RouterError;

#[derive(Debug, Clone, Copy)]
enum Arch {
    Iq(FlowControl),
    Oq(Option<u32>),
    Ioq(FlowControl),
}

use FlowControl::{FlitBuffer, PacketBuffer, WinnerTakeAll};

/// One row per architecture and per stage parameter that changes a code
/// path (flow control technique, bounded or unbounded output queues).
const ARCHS: [Arch; 8] = [
    Arch::Iq(FlitBuffer),
    Arch::Iq(PacketBuffer),
    Arch::Iq(WinnerTakeAll),
    Arch::Oq(None),
    Arch::Oq(Some(2)),
    Arch::Ioq(FlitBuffer),
    Arch::Ioq(PacketBuffer),
    Arch::Ioq(WinnerTakeAll),
];

impl Arch {
    fn router(self, config: RouterConfig) -> Result<Router, RouterError> {
        let xbar = |flow_control, arbiter: &str| XbarConfig {
            latency: 1,
            flow_control,
            arbiter: arbiter.into(),
        };
        match self {
            Arch::Iq(fc) => Router::input_queued(config, xbar(fc, "age_based")),
            Arch::Oq(capacity) => Router::output_queued(config, capacity, 2),
            Arch::Ioq(fc) => Router::input_output_queued(config, xbar(fc, "round_robin"), 8),
        }
    }

    /// The star network around one router of this architecture; IOQ runs
    /// its core at twice the link rate.
    fn net(self, vcs: u32, input_buffer: u32, eject: u32) -> TestNet {
        self.net_sampled(0, vcs, input_buffer, eject)
    }

    /// [`Arch::net`] sampled every `interval` ticks (0 = off).
    fn net_sampled(self, interval: Tick, vcs: u32, input_buffer: u32, eject: u32) -> TestNet {
        let periods = match self {
            Arch::Ioq(_) => (1, 2),
            _ => (1, 1),
        };
        TestNet::build_sampled(interval, vcs, eject, move |ports, routing| {
            let sensor = sensor(CongestionSource::Downstream, CongestionGranularity::Vc);
            boxed(self.router(router_config(ports, routing, input_buffer, periods, sensor)))
        })
    }
}

#[test]
fn rejects_flit_on_unknown_port() {
    for arch in ARCHS {
        let mut sim: Simulator<Ev> = Simulator::new(1);
        let sensor = sensor(CongestionSource::Downstream, CongestionGranularity::Vc);
        let router = arch.router(unwired_config(2, 4, sensor)).unwrap();
        let id = sim.add_component(Box::new(router));
        let flit = test_flit(TerminalId(0), TerminalId(1), 1, 0);
        sim.schedule(id, Time::at(0), Ev::Flit { port: 9, flit });
        assert!(!sim.run().outcome.is_ok(), "{arch:?}");
    }
}

#[test]
fn rejects_buffer_overrun() {
    // Unbounded output queues never push back on the inputs.
    for arch in ARCHS.into_iter().filter(|a| !matches!(a, Arch::Oq(None))) {
        // Endpoint that ignores credits and floods the router. Eject
        // buffer 1 with slow draining keeps the router's input backed up;
        // flooding overruns it.
        let mut net = arch.net(1, 2, 1);
        net.endpoint_ignores_credits(0);
        for t in 0..64 {
            net.inject(0, TerminalId(1), 1, t);
        }
        let out = net.run();
        assert!(!out.outcome.is_ok(), "{arch:?}: overrun not detected");
    }
}

#[test]
fn credits_are_conserved() {
    for arch in ARCHS {
        let mut net = arch.net(2, 4, 16);
        for t in 0..10 {
            net.inject(0, TerminalId(1), 2, t * 3);
        }
        let out = net.run();
        assert_eq!(out.delivered(1), 20, "{arch:?}");
        // After draining, the router returned every input-buffer credit to
        // the endpoints.
        assert!(out.all_credits_home, "{arch:?}: credits leaked");
    }
}

#[test]
fn counters_track_activity() {
    for arch in ARCHS {
        let mut net = arch.net(2, 4, 16);
        net.inject(0, TerminalId(1), 4, 0);
        let out = net.run();
        let c = out.router_counters[0];
        assert_eq!((c.flits_in, c.flits_out), (4, 4), "{arch:?}");
        assert!(c.cycles >= 4, "{arch:?}");
        assert!(c.credits_in >= 4, "{arch:?}");
    }
}

#[test]
fn unknown_arbiter_is_a_typed_error() {
    let config = || {
        let sensor = sensor(CongestionSource::Downstream, CongestionGranularity::Vc);
        unwired_config(1, 1, sensor)
    };
    let xbar = || XbarConfig {
        latency: 1,
        flow_control: FlitBuffer,
        arbiter: "bogus".into(),
    };
    for built in [
        Router::input_queued(config(), xbar()),
        Router::input_output_queued(config(), xbar(), 4),
    ] {
        let err = built.err().expect("must be rejected").to_string();
        assert!(
            err.contains("bogus") && err.contains("round_robin"),
            "{err}"
        );
    }
}

/// Random `(src, dst, size, tick)` injections with `src != dst`.
fn random_injections(rng: &mut Rng, count: usize, span: u64) -> Vec<(usize, u32, u32, u64)> {
    (0..count)
        .map(|_| {
            let src = rng.gen_range(0..3usize);
            let dst = (src + 1 + rng.gen_range(0..2usize)) % 3;
            (
                src,
                dst as u32,
                rng.gen_range(1..6u32),
                rng.gen_range(0..span),
            )
        })
        .collect()
}

/// Any random injection schedule drains completely: every flit of every
/// packet arrives (in order — the endpoints' `DeliveryChecker` fails the
/// run otherwise) after exactly one hop, and every credit returns home.
#[test]
fn random_traffic_conserves_flits_and_credits() {
    let mut rng = Rng::new(0x0C0F_FEE5);
    for arch in ARCHS {
        for case in 0..24 {
            // PB needs the eject buffer to fit the largest packet.
            let mut net = arch.net(2, 6, 8);
            let mut expected = [0usize; 3];
            let count = rng.gen_range(1..40usize);
            for (src, dst, size, tick) in random_injections(&mut rng, count, 120) {
                net.inject(src, TerminalId(dst), size, tick);
                expected[dst as usize] += size as usize;
            }
            let out = net.run();
            let at = format!("{arch:?} case {case}");
            assert!(out.outcome.is_ok(), "{at}: {:?}", out.outcome);
            for (dst, &want) in expected.iter().enumerate() {
                assert_eq!(out.delivered(dst), want, "{at}: endpoint {dst}");
                assert!(out.flits(dst).iter().all(|f| f.hops == 1), "{at}: hops");
            }
            assert!(out.all_credits_home, "{at}: credits leaked");
        }
    }
}

/// FNV-1a, enough to pin a byte string without carrying it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fixed seeded run, sampled, stopped mid-flight.
fn scripted_net(arch: Arch) -> TestNet {
    let mut net = arch.net_sampled(10, 2, 6, 8);
    for (src, dst, size, tick) in random_injections(&mut Rng::new(0x5EED_0013), 40, 60) {
        net.inject(src, TerminalId(dst), size, tick);
    }
    net
}

#[test]
fn snapshot_bytes_are_the_format_older_checkpoints_use() {
    // Length and hash of `Component::snapshot` at tick 45 of the scripted
    // run, as written by the three sibling router structs this skeleton
    // replaced (commit c216762).
    for (arch, len, hash) in [
        (Arch::Iq(WinnerTakeAll), 664, 0x9eb0_40ee_ec51_1228u64),
        (Arch::Oq(None), 765, 0xaa81_fa3d_8a80_1d7b),
        (Arch::Oq(Some(2)), 846, 0xfdbb_2761_f9cf_7168),
        (Arch::Ioq(PacketBuffer), 1091, 0x2a11_377c_7468_64b3),
    ] {
        let bytes = scripted_net(arch).snapshot_at(45);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (len, hash), "{arch:?}");

        // And such bytes load into a freshly built router that snapshots
        // to the same bytes again.
        let mut fresh = scripted_net(arch);
        let mut buf = &bytes[..];
        assert!(fresh.router().restore(&mut buf).is_some(), "{arch:?}");
        assert!(buf.is_empty(), "{arch:?}: trailing bytes");
        let mut again = Vec::new();
        fresh.router().snapshot(&mut again);
        assert_eq!(again, bytes, "{arch:?}");

        // Truncated anywhere, they are refused, never a panic.
        for cut in 0..bytes.len() {
            let mut fresh = scripted_net(arch);
            assert!(fresh.router().restore(&mut &bytes[..cut]).is_none());
        }
    }
}

//! Wire encoding of the network vocabulary: [`Ev`] and everything a
//! cross-shard event or a checkpoint carries of it ([`Flit`],
//! [`PacketInfo`], [`FlitSpan`], the id newtypes, protocol phases and
//! signals, fault counters, span breakdowns). Field lists over the
//! primitives of [`supersim_des::wire`]; the same bytes serve the process
//! transport and the checkpoint file.
//!
//! One representation subtlety: all flits of a packet share their
//! [`PacketInfo`] behind an `Arc` in memory. The wire format flattens the
//! metadata into each flit, so a flit decoded on the far shard gets its
//! own `Arc`. That is safe because `PacketInfo` is immutable after build
//! and nothing in the simulator relies on `Arc` *pointer* identity for
//! correctness — reassembly and accounting key on packet/message ids.
//! Cross-shard flit events are rare enough (one per channel traversal
//! that crosses a partition boundary) that the duplicated metadata does
//! not measurably move the wire volume.

use supersim_des::wire::WireCodec;
use supersim_des::{wire_enum, wire_struct};

use crate::event::Ev;
use crate::fault::FaultCounters;
use crate::flit::{Flit, FlitSpan, PacketInfo, SpanBreakdown};
use crate::ids::{AppId, MessageId, PacketId, RouterId, TerminalId, Via};
use crate::phase::{AppSignal, Phase, PhaseCommand};

wire_struct!(TerminalId { 0 });
wire_struct!(RouterId { 0 });
wire_struct!(AppId { 0 });
wire_struct!(PacketId { 0 });
wire_struct!(MessageId { 0 });

/// A [`Via`] travels as its [`RouterId`], so an `Option<Via>` has the
/// bytes of an `Option<RouterId>`; the one id without an encoding,
/// `u32::MAX`, is malformed.
impl WireCodec for Via {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.router().encode(out);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        Via::new(RouterId::decode(buf)?)
    }
}

wire_enum!(Phase {
    Warming = 0,
    Generating = 1,
    Finishing = 2,
    Draining = 3,
});
wire_enum!(AppSignal {
    Ready = 0,
    Complete = 1,
    Done = 2,
});
wire_enum!(PhaseCommand {
    Start = 0,
    Stop = 1,
    Kill = 2,
});

wire_struct!(FaultCounters {
    injected,
    detected,
    recovered,
    escalated,
    flit_clones,
});

wire_struct!(SpanBreakdown {
    total,
    queueing,
    alloc,
    serialization,
    channel,
    credit,
    residual,
});

wire_struct!(PacketInfo {
    id,
    message,
    app,
    src,
    dst,
    size,
    message_size,
    inject_tick,
    message_tick,
    sample,
});

wire_struct!(FlitSpan {
    enqueue,
    arrive,
    stall_start,
    queueing,
    alloc,
    serialization,
    channel,
    credit,
});

wire_struct!(Flit {
    pkt,
    seq,
    vc,
    hops,
    inter,
    crc,
    span,
});

impl WireCodec for Ev {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ev::Flit { port, flit } => {
                out.push(0);
                port.encode(out);
                flit.encode(out);
            }
            Ev::Credit { port, vc } => {
                out.push(1);
                port.encode(out);
                vc.encode(out);
            }
            Ev::Pipeline => out.push(2),
            Ev::Inject => out.push(3),
            Ev::Signal { app, signal } => {
                out.push(4);
                app.encode(out);
                signal.encode(out);
            }
            Ev::Ack { port } => {
                out.push(5);
                port.encode(out);
            }
            Ev::Nack { port } => {
                out.push(6);
                port.encode(out);
            }
            Ev::Command(c) => {
                out.push(7);
                c.encode(out);
            }
            Ev::Internal(tag) => {
                out.push(8);
                tag.encode(out);
            }
        }
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Option<Self> {
        match u8::decode(buf)? {
            0 => Some(Ev::Flit {
                port: u32::decode(buf)?,
                flit: Flit::decode(buf)?,
            }),
            1 => Some(Ev::Credit {
                port: u32::decode(buf)?,
                vc: u32::decode(buf)?,
            }),
            2 => Some(Ev::Pipeline),
            3 => Some(Ev::Inject),
            4 => Some(Ev::Signal {
                app: AppId::decode(buf)?,
                signal: AppSignal::decode(buf)?,
            }),
            5 => Some(Ev::Ack {
                port: u32::decode(buf)?,
            }),
            6 => Some(Ev::Nack {
                port: u32::decode(buf)?,
            }),
            7 => Some(Ev::Command(PhaseCommand::decode(buf)?)),
            8 => Some(Ev::Internal(u64::decode(buf)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use supersim_des::wire::testing::check_codec;
    use supersim_des::Rng;

    fn rand_pkt(rng: &mut Rng) -> PacketInfo {
        PacketInfo {
            id: PacketId(rng.gen_u64()),
            message: MessageId(rng.gen_u64() >> 20),
            app: AppId(rng.gen_u64() as u8),
            src: TerminalId(rng.gen_u64() as u32),
            dst: TerminalId(rng.gen_u64() as u32),
            size: 1 + (rng.gen_u64() as u32 % 64),
            message_size: 1 + (rng.gen_u64() as u32 % 256),
            inject_tick: rng.gen_u64() >> 16,
            message_tick: rng.gen_u64() >> 16,
            sample: rng.gen_bool(0.5),
        }
    }

    fn rand_span(rng: &mut Rng) -> FlitSpan {
        FlitSpan {
            enqueue: rng.gen_u64() >> 32,
            arrive: rng.gen_u64() >> 32,
            stall_start: rng.gen_bool(0.5).then(|| rng.gen_u64() >> 32),
            queueing: rng.gen_u64() >> 40,
            alloc: rng.gen_u64() >> 40,
            serialization: rng.gen_u64() >> 40,
            channel: rng.gen_u64() >> 40,
            credit: rng.gen_u64() >> 40,
        }
    }

    fn rand_flit(rng: &mut Rng, with_span: bool) -> Flit {
        let pkt = rand_pkt(rng);
        Flit {
            seq: rng.gen_u64() as u32 % pkt.size,
            pkt: Arc::new(pkt),
            vc: rng.gen_u64() as u32 % 8,
            hops: rng.gen_u64() as u16,
            inter: rng
                .gen_bool(0.3)
                .then(|| Via::new(RouterId(rng.gen_u64() as u32 % u32::MAX)).unwrap()),
            crc: rng.gen_u64() as u16,
            span: (with_span && rng.gen_bool(0.7)).then(|| Box::new(rand_span(rng))),
        }
    }

    fn assert_flit_eq(a: &Flit, b: &Flit) {
        assert_eq!(*a.pkt, *b.pkt, "packet metadata");
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.vc, b.vc);
        assert_eq!(a.hops, b.hops);
        assert_eq!(a.inter, b.inter);
        assert_eq!(a.crc, b.crc);
        assert_eq!(a.span, b.span);
    }

    #[test]
    fn via_has_the_router_id_bytes_and_rejects_the_last_id() {
        let mut rng = Rng::new(0x71A);
        let sample = (0..1000).map(|_| rng.gen_u64() as u32 % u32::MAX);
        for id in [0, 1, u32::MAX - 1].into_iter().chain(sample) {
            let via = Via::new(RouterId(id)).expect("every id but the last has a Via");
            assert_eq!(via.router(), RouterId(id));
            let (mut a, mut b) = (Vec::new(), Vec::new());
            Some(via).encode(&mut a);
            Some(RouterId(id)).encode(&mut b);
            assert_eq!(a, b, "Option<Via> must have the Option<RouterId> bytes");
            assert_eq!(Option::<Via>::decode(&mut a.as_slice()), Some(Some(via)));
        }
        assert_eq!(Via::new(RouterId(u32::MAX)), None);
        let mut last = Vec::new();
        RouterId(u32::MAX).encode(&mut last);
        assert_eq!(Via::decode(&mut last.as_slice()), None);
    }

    #[test]
    fn flit_round_trips_with_and_without_span() {
        let mut rng = Rng::new(0xF117);
        for i in 0..200 {
            let flit = rand_flit(&mut rng, i % 2 == 0);
            let mut buf = Vec::new();
            flit.encode(&mut buf);
            let mut slice = buf.as_slice();
            let back = Flit::decode(&mut slice).expect("decode");
            assert!(slice.is_empty(), "decode must consume the encoding");
            assert_flit_eq(&flit, &back);
        }
    }

    /// Every variant in turn, including the fault-plane markers
    /// (Ack/Nack) and flits with spans enabled.
    fn rand_ev(rng: &mut Rng, i: u64) -> Ev {
        match i % 9 {
            0 => Ev::Flit {
                port: rng.gen_u64() as u32,
                flit: rand_flit(rng, true),
            },
            1 => Ev::Credit {
                port: rng.gen_u64() as u32,
                vc: rng.gen_u64() as u32,
            },
            2 => Ev::Pipeline,
            3 => Ev::Inject,
            4 => Ev::Signal {
                app: AppId(rng.gen_u64() as u8),
                signal: rand_signal(rng),
            },
            5 => Ev::Ack {
                port: rng.gen_u64() as u32,
            },
            6 => Ev::Nack {
                port: rng.gen_u64() as u32,
            },
            7 => Ev::Command(
                [PhaseCommand::Start, PhaseCommand::Stop, PhaseCommand::Kill]
                    [(rng.gen_u64() % 3) as usize],
            ),
            _ => Ev::Internal(rng.gen_u64()),
        }
    }

    fn rand_signal(rng: &mut Rng) -> AppSignal {
        [AppSignal::Ready, AppSignal::Complete, AppSignal::Done][(rng.gen_u64() % 3) as usize]
    }

    #[test]
    fn every_event_variant_round_trips() {
        let mut rng = Rng::new(0xE7E7);
        for i in 0..400 {
            let ev = rand_ev(&mut rng, i);
            let mut buf = Vec::new();
            ev.encode(&mut buf);
            let mut slice = buf.as_slice();
            let back = Ev::decode(&mut slice).expect("decode");
            assert!(slice.is_empty(), "decode must consume the encoding");
            // `Ev` deliberately has no `PartialEq` (flits share `Arc`s);
            // the derived Debug is a faithful structural rendering.
            assert_eq!(format!("{ev:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let mut rng = Rng::new(7);
        let ev = Ev::Flit {
            port: 3,
            flit: rand_flit(&mut rng, true),
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        ev.encode(&mut a);
        ev.clone().encode(&mut b);
        assert_eq!(a, b);
    }

    /// One row per `WireCodec` type this crate defines.
    #[test]
    fn every_netbase_codec_is_total() {
        check_codec(1, 20, |r| TerminalId(r.gen_u64() as u32));
        check_codec(2, 20, |r| RouterId(r.gen_u64() as u32));
        check_codec(3, 20, |r| AppId(r.gen_u64() as u8));
        check_codec(4, 20, |r| PacketId(r.gen_u64()));
        check_codec(5, 20, |r| MessageId(r.gen_u64() >> 20));
        check_codec(6, 20, |r| Phase::ALL[(r.gen_u64() % 4) as usize]);
        check_codec(7, 20, rand_signal);
        check_codec(8, 20, |r| {
            [PhaseCommand::Start, PhaseCommand::Stop, PhaseCommand::Kill]
                [(r.gen_u64() % 3) as usize]
        });
        check_codec(9, 40, |r| FaultCounters {
            injected: r.gen_u64() >> 40,
            detected: r.gen_u64() >> 40,
            recovered: r.gen_u64() >> 40,
            escalated: r.gen_u64() >> 40,
            flit_clones: r.gen_u64() >> 40,
        });
        check_codec(10, 40, |r| SpanBreakdown {
            total: r.gen_u64() >> 32,
            queueing: r.gen_u64() >> 40,
            alloc: r.gen_u64() >> 40,
            serialization: r.gen_u64() >> 40,
            channel: r.gen_u64() >> 40,
            credit: r.gen_u64() >> 40,
            residual: r.gen_u64() >> 40,
        });
        check_codec(11, 40, rand_pkt);
        check_codec(12, 40, rand_span);
        check_codec(13, 60, |r| rand_flit(r, true));
        let mut i = 0;
        check_codec(14, 90, |r| {
            i += 1;
            rand_ev(r, i)
        });
    }

    /// `sample` once decoded as `byte != 0`; every bool on the wire is
    /// now strictly 0 or 1.
    #[test]
    fn packet_sample_flag_must_be_canonical() {
        let mut buf = Vec::new();
        rand_pkt(&mut Rng::new(3)).encode(&mut buf);
        assert!(PacketInfo::decode(&mut buf.as_slice()).is_some());
        *buf.last_mut().expect("sample is the last byte") = 2;
        assert!(PacketInfo::decode(&mut buf.as_slice()).is_none());
    }

    /// Pins the compactness claim of the varint encoding: a typical
    /// early-run flit event (small ids, ticks under ~10⁵) must stay
    /// within a cache line with its span attached and well under half of
    /// one without — the per-event wire budget EXPERIMENTS.md quotes.
    #[test]
    fn typical_flit_event_encodes_compactly() {
        let pkt = PacketInfo {
            id: PacketId(100_000),
            message: MessageId(25_000),
            app: AppId(0),
            src: TerminalId(37),
            dst: TerminalId(112),
            size: 8,
            message_size: 32,
            inject_tick: 40_000,
            message_tick: 39_990,
            sample: true,
        };
        let bare = Ev::Flit {
            port: 3,
            flit: Flit {
                seq: 5,
                pkt: Arc::new(pkt.clone()),
                vc: 2,
                hops: 4,
                inter: Via::new(RouterId(9)),
                crc: 0xBEEF,
                span: None,
            },
        };
        let mut buf = Vec::new();
        bare.encode(&mut buf);
        assert!(buf.len() <= 30, "bare flit event took {} bytes", buf.len());
        let spanned = Ev::Flit {
            port: 3,
            flit: Flit {
                seq: 5,
                pkt: Arc::new(pkt),
                vc: 2,
                hops: 4,
                inter: Via::new(RouterId(9)),
                crc: 0xBEEF,
                span: Some(Box::new(FlitSpan {
                    enqueue: 40_100,
                    arrive: 40_160,
                    stall_start: Some(40_130),
                    queueing: 12,
                    alloc: 3,
                    serialization: 8,
                    channel: 30,
                    credit: 7,
                })),
            },
        };
        buf.clear();
        spanned.encode(&mut buf);
        assert!(
            buf.len() <= 64,
            "spanned flit event took {} bytes",
            buf.len()
        );
        let credit = Ev::Credit { port: 5, vc: 2 };
        buf.clear();
        credit.encode(&mut buf);
        assert!(buf.len() <= 4, "credit event took {} bytes", buf.len());
    }
}

//! Flit-event tracing: the network-level vocabulary over the engine's
//! trace plane.
//!
//! The metrics plane (`supersim-stats::metrics`) answers *how much*;
//! tracing answers *what happened to this flit*. Collection lives in the
//! DES engine (`supersim_des::TraceBuffer`): a component records through
//! its execution context, and the engine keeps a fixed-capacity ring of
//! compact generic records so a trace of the interesting window survives
//! arbitrarily long runs without unbounded memory. Crucially, this also
//! works on the sharded engine — records merge back into canonical order
//! at every synchronization round, so the serialized trace is
//! byte-identical across engines (and across runs) for one
//! `(configuration, seed)`.
//!
//! This module maps the engine's generic records onto the network
//! vocabulary: [`TraceKind`] names the event (`kind` tag), the packet id
//! rides in the record's `id`, and the flit's position in `sub`.
//! Components record through [`FlitTraceExt::trace_flit`], which is free
//! when tracing is off (one `Option` check in the engine). The engine's
//! `TraceSpec` narrows collection to event kinds ([`TraceKind::bit`]), one
//! component, or a packet-id range, so a paper-style investigation
//! ("follow packet 93124 through the Clos") costs only the flits it
//! watches.
//!
//! Serialization is JSON-lines written with the workspace's integer text
//! writer (`supersim_config::push_uint`), one record per line, in
//! canonical order.

use supersim_config::push_uint;
use supersim_des::{Context, Time, TraceEvent};

use crate::event::Ev;
use crate::flit::Flit;

/// What happened to the flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// An interface injected the flit toward its router.
    Inject = 0,
    /// An interface ejected the flit from the network.
    Eject = 1,
    /// A router accepted the flit into an input buffer.
    RouterArrive = 2,
    /// A router sent the flit out of an output port.
    RouterDepart = 3,
    /// The fault plane injected a fault on this flit's transmission
    /// (drop or corruption; recorded at the sender).
    FaultInject = 4,
    /// A receiver's checksum caught a corrupted copy and nacked it.
    FaultNack = 5,
    /// A fault episode resolved: the flit was cleanly redelivered.
    FaultRecover = 6,
    /// Retransmission gave up on this flit (retries exhausted).
    FaultEscalate = 7,
}

impl TraceKind {
    /// All kinds, in tag order.
    pub const ALL: [TraceKind; 8] = [
        TraceKind::Inject,
        TraceKind::Eject,
        TraceKind::RouterArrive,
        TraceKind::RouterDepart,
        TraceKind::FaultInject,
        TraceKind::FaultNack,
        TraceKind::FaultRecover,
        TraceKind::FaultEscalate,
    ];

    /// Short lowercase name used in the JSON-lines form.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Inject => "inject",
            TraceKind::Eject => "eject",
            TraceKind::RouterArrive => "router_arrive",
            TraceKind::RouterDepart => "router_depart",
            TraceKind::FaultInject => "fault_inject",
            TraceKind::FaultNack => "fault_nack",
            TraceKind::FaultRecover => "fault_recover",
            TraceKind::FaultEscalate => "fault_escalate",
        }
    }

    /// Parses a [`TraceKind::name`] string.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Parses the numeric tag carried in a generic engine record.
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|k| *k as u8 == tag)
    }

    /// This kind's bit in a `TraceSpec::kinds` mask.
    #[inline]
    pub fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// One traced flit event. 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event happened.
    pub time: Time,
    /// Component the event happened at: the terminal index for
    /// interface-side kinds, the router index for router-side kinds.
    pub src: u32,
    /// What happened.
    pub kind: TraceKind,
    /// The flit's packet id.
    pub packet: u64,
    /// The flit's position within its packet.
    pub flit: u32,
}

impl TraceRecord {
    /// Decodes a generic engine record recorded by
    /// [`FlitTraceExt::trace_flit`]. `None` if the `kind` tag is not a
    /// flit event.
    pub fn from_event(ev: &TraceEvent) -> Option<Self> {
        Some(TraceRecord {
            time: ev.time,
            src: ev.src,
            kind: TraceKind::from_tag(ev.kind)?,
            packet: ev.id,
            flit: ev.sub,
        })
    }
}

/// Renders engine trace records as JSON-lines: one compact object per
/// flit record, in canonical order. Records whose `kind` tag is not a
/// flit event are skipped.
///
/// Keys are in sorted order (`eps, flit, kind, packet, src, tick`) and
/// integers are JSON `Int`s, exactly as a [`Value`](supersim_config::Value)
/// object of the record would serialize.
pub fn trace_json_lines(records: &[TraceEvent]) -> String {
    // A line runs ~85 bytes on the shipped networks.
    let mut out = String::with_capacity(96 * records.len());
    for rec in records.iter().filter_map(TraceRecord::from_event) {
        out.push_str("{\"eps\":");
        push_json_int(&mut out, rec.time.epsilon().into());
        out.push_str(",\"flit\":");
        push_json_int(&mut out, rec.flit.into());
        out.push_str(",\"kind\":\"");
        out.push_str(rec.kind.name());
        out.push_str("\",\"packet\":");
        push_json_int(&mut out, rec.packet);
        out.push_str(",\"src\":");
        push_json_int(&mut out, rec.src.into());
        out.push_str(",\"tick\":");
        push_json_int(&mut out, rec.time.tick());
        out.push_str("}\n");
    }
    out
}

/// `v` as the JSON `Int` (an `i64`) it has always been written as: a
/// value past `i64::MAX` wraps negative, as `Value::Int(v as i64)` did.
fn push_json_int(out: &mut String, v: u64) {
    let v = v as i64;
    if v < 0 {
        out.push('-');
    }
    push_uint(out, v.unsigned_abs());
}

/// Flit-level tracing sugar for the execution context: encodes the flit's
/// identity into a generic engine record.
pub trait FlitTraceExt {
    /// Records `kind` happening to `flit` at component index `src`
    /// (terminal index for interface-side kinds, router index for
    /// router-side kinds). Free when tracing is off.
    fn trace_flit(&mut self, kind: TraceKind, src: u32, flit: &Flit);
}

impl FlitTraceExt for Context<'_, Ev> {
    #[inline]
    fn trace_flit(&mut self, kind: TraceKind, src: u32, flit: &Flit) {
        self.trace(kind as u8, src, flit.pkt.id.0, flit.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supersim_config::Value;

    fn ev(tick: u64, kind: u8, packet: u64) -> TraceEvent {
        TraceEvent {
            time: Time::at(tick),
            src: 3,
            kind,
            id: packet,
            sub: 2,
        }
    }

    #[test]
    fn kind_names_and_tags_round_trip() {
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::from_name(k.name()), Some(k));
            assert_eq!(TraceKind::from_tag(k as u8), Some(k));
        }
        assert_eq!(TraceKind::from_name("nope"), None);
        assert_eq!(TraceKind::from_tag(8), None);
    }

    #[test]
    fn json_lines_are_parseable_and_ordered() {
        let records = vec![
            TraceEvent {
                time: Time::new(5, 1),
                src: 3,
                kind: TraceKind::RouterArrive as u8,
                id: 42,
                sub: 2,
            },
            ev(6, TraceKind::Eject as u8, 42),
        ];
        let text = trace_json_lines(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v = supersim_config::parse(lines[0]).expect("valid json line");
        assert_eq!(v.get("tick").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("eps").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("router_arrive"));
        assert_eq!(v.get("packet").and_then(Value::as_u64), Some(42));
    }

    /// The writer emits what a `Value` object of the record serializes
    /// to: sorted keys, `i64` integers (so ids past `i64::MAX` wrap).
    #[test]
    fn json_lines_match_the_value_serialization() {
        let mut rng = supersim_des::Rng::new(0x7EAC);
        let mut records = Vec::new();
        for i in 0..400u64 {
            let wide = |rng: &mut supersim_des::Rng| rng.gen_u64() >> (rng.gen_u64() % 64);
            records.push(TraceEvent {
                time: Time::new(wide(&mut rng), rng.gen_u64() as u8),
                src: wide(&mut rng) as u32,
                kind: (i % 8) as u8,
                id: if i == 0 { u64::MAX } else { wide(&mut rng) },
                sub: wide(&mut rng) as u32,
            });
        }
        let mut want = String::new();
        for ev in &records {
            let r = TraceRecord::from_event(ev).expect("flit kind");
            let mut v = Value::object();
            for (key, value) in [
                ("tick", Value::Int(r.time.tick() as i64)),
                ("eps", Value::Int(r.time.epsilon() as i64)),
                ("src", Value::Int(r.src as i64)),
                ("kind", Value::Str(r.kind.name().to_string())),
                ("packet", Value::Int(r.packet as i64)),
                ("flit", Value::Int(r.flit as i64)),
            ] {
                v.set_path(key, value).expect("object");
            }
            want.push_str(&v.to_json());
            want.push('\n');
        }
        assert_eq!(trace_json_lines(&records), want);
        assert!(want.contains("\"packet\":-1,"));
    }

    #[test]
    fn unknown_kind_tags_are_skipped() {
        let records = vec![ev(1, 8, 5), ev(2, TraceKind::Inject as u8, 5)];
        let text = trace_json_lines(&records);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"kind\":\"inject\""));
        assert_eq!(TraceRecord::from_event(&records[0]), None);
    }
}

//! Shapes, flits and congestion views shared by the topology integration
//! tests.

#![allow(dead_code)] // each test binary uses its own subset

use supersim_netbase::{AppId, Flit, MessageId, PacketBuilder, PacketId, Port, TerminalId, Vc};
use supersim_topology::CongestionView;

/// Every widths vector of `1..=max_dims` dimensions, each width in 2–4.
pub fn all_widths(max_dims: u32) -> Vec<Vec<u32>> {
    (1..=max_dims)
        .flat_map(|dims| {
            (0..3u32.pow(dims)).map(move |i| (0..dims).map(|d| 2 + i / 3u32.pow(d) % 3).collect())
        })
        .collect()
}

/// `(levels, k)` of the folded-Clos shapes: 1–3 levels with k 2–4, and
/// the k=16 two-level Clos of the `clos256_planes` benchmark workload.
pub fn clos_shapes() -> Vec<(u32, u32)> {
    (1..=3)
        .flat_map(|levels| (2..=4).map(move |k| (levels, k)))
        .chain([(2, 16)])
        .collect()
}

/// The head flit of a one-flit packet `id` to `dst`.
pub fn head(id: u64, dst: u32) -> Flit {
    PacketBuilder {
        id: PacketId(id),
        message: MessageId(id),
        app: AppId(0),
        src: TerminalId(0),
        dst: TerminalId(dst),
        size: 1,
        message_size: 1,
        inject_tick: 0,
        message_tick: 0,
        sample: false,
    }
    .build()
    .remove(0)
}

/// Per-port congestion from a table; every VC of a port reads the same.
pub struct TableView(pub Vec<f64>);

impl CongestionView for TableView {
    fn vc_congestion(&self, port: Port, _vc: Vc) -> f64 {
        self.0[port as usize]
    }
    fn port_congestion(&self, port: Port) -> f64 {
        self.0[port as usize]
    }
}

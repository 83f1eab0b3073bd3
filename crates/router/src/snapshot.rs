//! Checkpoint overlays for the router skeleton and its stages.
//!
//! A router snapshots a flit arena, handle-bearing buffers and queues,
//! route tables, credit counters and per-port routing engines. Plain
//! values go through their [`WireCodec`] impls; what lives here are the
//! overlays that validate saved state against the structurally rebuilt
//! router: counts must match, handle indices must reference occupied
//! arena slots, and no handle may appear in two places. All are total
//! (`None` on malformed input, never a panic).

use supersim_des::wire::{self, WireCodec};
use supersim_netbase::{FlitArena, FlitHandle};
use supersim_topology::RouteChoice;

use crate::buffer::VcBuffer;

/// Validates handle indices against a restored arena: each must address
/// an occupied slot and may be claimed at most once across all of a
/// router's buffers and queues.
pub(crate) struct HandleClaims<'a> {
    arena: &'a FlitArena,
    claimed: Vec<bool>,
}

impl<'a> HandleClaims<'a> {
    pub(crate) fn new(arena: &'a FlitArena) -> Self {
        HandleClaims {
            claimed: vec![false; arena.slot_count()],
            arena,
        }
    }

    pub(crate) fn claim(&mut self, index: u32) -> Option<FlitHandle> {
        let h = self.arena.handle_at(index)?;
        let slot = self.claimed.get_mut(index as usize)?;
        if *slot {
            return None; // aliased handle
        }
        *slot = true;
        Some(h)
    }

    /// Every live flit must be claimed by exactly one buffer or queue.
    pub(crate) fn complete(&self) -> bool {
        self.claimed.iter().filter(|&&c| c).count() == self.arena.live() as usize
    }
}

/// Serializes handle-bearing input buffers: per buffer, occupancy then
/// slot indices head-first.
pub(crate) fn put_buffers(out: &mut Vec<u8>, bufs: &[VcBuffer<FlitHandle>]) {
    wire::put_each(out, bufs, |b, o| {
        b.occupancy().encode(o);
        for h in b.iter() {
            h.index().encode(o);
        }
    });
}

/// Overlays saved buffers onto freshly built (empty) ones, claiming each
/// handle from the restored arena.
pub(crate) fn load_buffers(
    bufs: &mut [VcBuffer<FlitHandle>],
    claims: &mut HandleClaims<'_>,
    buf: &mut &[u8],
) -> Option<()> {
    wire::load_each(bufs, buf, |b, buf| {
        b.clear();
        let occ = u32::decode(buf)?;
        if occ > b.capacity() {
            return None;
        }
        for _ in 0..occ {
            b.push(claims.claim(u32::decode(buf)?)?).ok()?;
        }
        Some(())
    })
}

/// Overlays a saved route table; choices must fit the router's shape.
pub(crate) fn load_routes(
    table: &mut [Option<RouteChoice>],
    radix: u32,
    vcs: u32,
    buf: &mut &[u8],
) -> Option<()> {
    wire::load_slice(table, buf)?;
    let fits = |r: &RouteChoice| r.port < radix && r.vc < vcs;
    table.iter().flatten().all(fits).then_some(())
}

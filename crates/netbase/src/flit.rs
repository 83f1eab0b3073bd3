//! Flits and packets.
//!
//! A *flit* (flow control digit) is the smallest unit on which routers
//! manage buffering, data flow, and resource scheduling. A packet is a
//! sequence of flits sharing one [`PacketInfo`]; a message is one or more
//! packets sharing a [`MessageId`](crate::MessageId).

use std::sync::Arc;

use supersim_des::Tick;

use crate::ids::{AppId, MessageId, PacketId, TerminalId, Vc, Via};

/// Immutable metadata shared by all flits of one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketInfo {
    /// Unique packet id.
    pub id: PacketId,
    /// The message this packet belongs to.
    pub message: MessageId,
    /// The application that generated the packet.
    pub app: AppId,
    /// Source terminal.
    pub src: TerminalId,
    /// Destination terminal.
    pub dst: TerminalId,
    /// Packet length in flits.
    pub size: u32,
    /// Total flits in the whole message (for reassembly accounting).
    pub message_size: u32,
    /// Tick at which the head flit entered the source interface queue.
    pub inject_tick: Tick,
    /// Tick at which the *message* was created (equal to `inject_tick` for
    /// the first packet of a message).
    pub message_tick: Tick,
    /// Whether this packet is flagged for the sampling window.
    pub sample: bool,
}

/// Per-flit latency attribution carried across phase boundaries the flit
/// already crosses: injection enqueue, switch-allocation grant,
/// serialization start, channel traversal, credit-stall resume, and
/// ejection.
///
/// The five accumulators partition the flit's end-to-end latency into the
/// waiting it did at each kind of resource. Every attribution interval is
/// a sub-interval of the flit's disjoint residence segments, so in a
/// fault-free run the components sum *exactly* to
/// `eject_tick - enqueue_tick`; link-level retransmission delays (fault
/// plane holds and replays) are the only unattributed time and surface as
/// a non-negative residual in [`FlitSpan::breakdown`].
///
/// Spans ride on the flit behind an `Option<Box<_>>`: the disabled path
/// is a null-pointer check per touch point, exactly like the fault and
/// trace planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlitSpan {
    /// Tick the flit entered the source interface queue.
    pub enqueue: Tick,
    /// Start of the current residence segment (last arrival).
    pub arrive: Tick,
    /// Tick the flit was first seen blocked on a zero-credit output at
    /// the current router, if it is currently credit-stalled.
    pub stall_start: Option<Tick>,
    /// Ticks spent waiting in the source interface queue.
    pub queueing: Tick,
    /// Ticks spent waiting for VC/switch allocation (router residence
    /// minus credit stalls).
    pub alloc: Tick,
    /// Ticks spent traversing crossbars / router cores.
    pub serialization: Tick,
    /// Ticks spent traversing channels.
    pub channel: Tick,
    /// Ticks spent blocked on exhausted downstream credits.
    pub credit: Tick,
}

impl FlitSpan {
    /// A fresh span for a flit enqueued at `now`.
    pub fn new(now: Tick) -> Self {
        FlitSpan {
            enqueue: now,
            arrive: now,
            stall_start: None,
            queueing: 0,
            alloc: 0,
            serialization: 0,
            channel: 0,
            credit: 0,
        }
    }

    /// The flit leaves the source interface queue at `now` onto a channel
    /// of `link` ticks: the wait since enqueue was queueing.
    #[inline]
    pub fn inject(&mut self, now: Tick, link: Tick) {
        self.queueing = self
            .queueing
            .saturating_add(now.saturating_sub(self.enqueue));
        self.channel = self.channel.saturating_add(link);
    }

    /// The flit arrives at a router input at `now`: a new residence
    /// segment begins.
    #[inline]
    pub fn enter(&mut self, now: Tick) {
        self.arrive = now;
        self.stall_start = None;
    }

    /// The switch allocator saw the flit blocked on a zero-credit output
    /// at `now`. Only the first stall of a residence segment is kept: the
    /// stall runs until the grant.
    #[inline]
    pub fn stall(&mut self, now: Tick) {
        if self.stall_start.is_none() {
            self.stall_start = Some(now);
        }
    }

    /// Credits returned while the flit was credit-stalled: the stall
    /// interval `stall_start..now` becomes credit wait, the pre-stall wait
    /// `arrive..stall_start` becomes allocation wait, and a fresh
    /// allocation segment begins at `now`. No-op if the flit was not
    /// stalled.
    #[inline]
    pub fn resume(&mut self, now: Tick) {
        if let Some(st) = self.stall_start.take() {
            self.credit = self.credit.saturating_add(now.saturating_sub(st));
            self.alloc = self.alloc.saturating_add(st.saturating_sub(self.arrive));
            self.arrive = now;
        }
    }

    /// Granted the crossbar at `now`, spending `switch` ticks in the
    /// switch and `link` ticks on the outgoing channel. Splits the
    /// residence `arrive..now` into allocation wait and credit stall
    /// (closing any still-open stall first).
    #[inline]
    pub fn grant(&mut self, now: Tick, switch: Tick, link: Tick) {
        self.resume(now);
        self.alloc = self.alloc.saturating_add(now.saturating_sub(self.arrive));
        self.serialization = self.serialization.saturating_add(switch);
        self.channel = self.channel.saturating_add(link);
    }

    /// Decomposes the end-to-end latency of a flit ejected at `now`.
    pub fn breakdown(&self, now: Tick) -> SpanBreakdown {
        let total = now.saturating_sub(self.enqueue);
        let attributed = self
            .queueing
            .saturating_add(self.alloc)
            .saturating_add(self.serialization)
            .saturating_add(self.channel)
            .saturating_add(self.credit);
        SpanBreakdown {
            total,
            queueing: self.queueing,
            alloc: self.alloc,
            serialization: self.serialization,
            channel: self.channel,
            credit: self.credit,
            residual: total.saturating_sub(attributed),
        }
    }
}

/// A packet's end-to-end latency decomposed into component waits (built
/// from the tail flit's [`FlitSpan`] at ejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanBreakdown {
    /// End-to-end latency: ejection tick minus enqueue tick.
    pub total: Tick,
    /// Source interface queue wait.
    pub queueing: Tick,
    /// VC/switch allocation wait.
    pub alloc: Tick,
    /// Crossbar / router core traversal.
    pub serialization: Tick,
    /// Channel traversal.
    pub channel: Tick,
    /// Credit-stall wait.
    pub credit: Tick,
    /// Unattributed time — zero in fault-free runs, retransmission holds
    /// otherwise.
    pub residual: Tick,
}

/// One flow control digit.
///
/// Flits are cheap to clone: the packet metadata is behind an [`Arc`].
#[derive(Debug, Clone)]
pub struct Flit {
    /// Shared metadata of the owning packet.
    pub pkt: Arc<PacketInfo>,
    /// Position of this flit within its packet, starting at 0.
    pub seq: u32,
    /// Virtual channel currently occupied; rewritten hop by hop.
    pub vc: Vc,
    /// Routers traversed so far; incremented on each switch traversal.
    pub hops: u16,
    /// Intermediate router for non-minimal (Valiant-style) routing, set on
    /// the head flit by the source router's routing algorithm and carried
    /// with the packet until the intermediate is reached. Packed as a
    /// [`Via`] so the flit stays 32 bytes and an [`Ev`](crate::Ev) 40.
    pub inter: Option<Via>,
    /// Header checksum over the flit's identity, set at packet build time.
    /// The fault plane flips bits here to model in-flight corruption;
    /// receivers verify with [`Flit::crc_ok`].
    pub crc: u16,
    /// Latency-attribution stamps, `None` unless the span plane is
    /// enabled (the source interface allocates one per flit at enqueue).
    pub span: Option<Box<FlitSpan>>,
}

impl Flit {
    /// Whether this is the head flit of its packet.
    #[inline]
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// Whether this is the tail flit of its packet.
    ///
    /// A single-flit packet is both head and tail.
    #[inline]
    pub fn is_tail(&self) -> bool {
        self.seq + 1 == self.pkt.size
    }

    /// The expected checksum of a flit identified by `(packet, seq)`:
    /// one splitmix64-style mix folded to 16 bits.
    #[inline]
    pub fn compute_crc(packet: u64, seq: u32) -> u16 {
        let mut z = packet ^ ((seq as u64) << 40) ^ 0x9E37_79B9_7F4A_7C15;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z ^ (z >> 16) ^ (z >> 32) ^ (z >> 48)) as u16
    }

    /// Whether the header checksum matches the flit's identity.
    #[inline]
    pub fn crc_ok(&self) -> bool {
        self.crc == Self::compute_crc(self.pkt.id.0, self.seq)
    }
}

/// Expands a [`PacketInfo`] into its flits.
///
/// # Example
///
/// ```
/// use supersim_netbase::{PacketBuilder, PacketId, MessageId, AppId, TerminalId};
///
/// let flits = PacketBuilder {
///     id: PacketId(1),
///     message: MessageId(1),
///     app: AppId(0),
///     src: TerminalId(0),
///     dst: TerminalId(5),
///     size: 4,
///     message_size: 4,
///     inject_tick: 100,
///     message_tick: 100,
///     sample: true,
/// }
/// .build();
/// assert_eq!(flits.len(), 4);
/// assert!(flits[0].is_head());
/// assert!(flits[3].is_tail());
/// assert!(!flits[1].is_head());
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    /// See [`PacketInfo::id`].
    pub id: PacketId,
    /// See [`PacketInfo::message`].
    pub message: MessageId,
    /// See [`PacketInfo::app`].
    pub app: AppId,
    /// See [`PacketInfo::src`].
    pub src: TerminalId,
    /// See [`PacketInfo::dst`].
    pub dst: TerminalId,
    /// See [`PacketInfo::size`].
    pub size: u32,
    /// See [`PacketInfo::message_size`].
    pub message_size: u32,
    /// See [`PacketInfo::inject_tick`].
    pub inject_tick: Tick,
    /// See [`PacketInfo::message_tick`].
    pub message_tick: Tick,
    /// See [`PacketInfo::sample`].
    pub sample: bool,
}

impl PacketBuilder {
    /// The shared packet metadata and the flit sequence it spans.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero: a packet has at least a head flit.
    fn flits(self, vc: Vc) -> impl Iterator<Item = Flit> {
        assert!(self.size > 0, "packet must contain at least one flit");
        let info = Arc::new(PacketInfo {
            id: self.id,
            message: self.message,
            app: self.app,
            src: self.src,
            dst: self.dst,
            size: self.size,
            message_size: self.message_size,
            inject_tick: self.inject_tick,
            message_tick: self.message_tick,
            sample: self.sample,
        });
        (0..info.size).map(move |seq| Flit {
            pkt: Arc::clone(&info),
            seq,
            vc,
            hops: 0,
            inter: None,
            crc: Flit::compute_crc(info.id.0, seq),
            span: None,
        })
    }

    /// Materializes the packet as a vector of flits on VC 0.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero: a packet has at least a head flit.
    pub fn build(self) -> Vec<Flit> {
        self.flits(0).collect()
    }

    /// Materializes the packet on `vc` straight into an injection
    /// queue, skipping the intermediate vector [`build`](Self::build)
    /// allocates — interfaces enqueue one packet per `max_packet_size`
    /// flits, so this sits on the workload hot path.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero: a packet has at least a head flit.
    pub fn build_into(self, vc: Vc, out: &mut std::collections::VecDeque<Flit>) {
        out.extend(self.flits(vc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder(size: u32) -> PacketBuilder {
        PacketBuilder {
            id: PacketId(7),
            message: MessageId(3),
            app: AppId(0),
            src: TerminalId(1),
            dst: TerminalId(2),
            size,
            message_size: size,
            inject_tick: 50,
            message_tick: 50,
            sample: false,
        }
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let flits = builder(1).build();
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head());
        assert!(flits[0].is_tail());
    }

    #[test]
    fn multi_flit_packet_structure() {
        let flits = builder(5).build();
        assert_eq!(flits.len(), 5);
        assert!(flits[0].is_head() && !flits[0].is_tail());
        for f in &flits[1..4] {
            assert!(!f.is_head() && !f.is_tail());
        }
        assert!(flits[4].is_tail() && !flits[4].is_head());
        // All flits share the same metadata allocation.
        assert!(Arc::ptr_eq(&flits[0].pkt, &flits[4].pkt));
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_size_packet_panics() {
        let _ = builder(0).build();
    }

    #[test]
    fn build_into_matches_build() {
        // The allocation-free path appends the exact flits `build`
        // returns, on the requested VC, behind existing queue contents.
        let mut queue: std::collections::VecDeque<Flit> = builder(1).build().into();
        builder(4).build_into(2, &mut queue);
        let reference = builder(4).build();
        assert_eq!(queue.len(), 5);
        for (q, r) in queue.iter().skip(1).zip(&reference) {
            assert_eq!(q.vc, 2);
            assert_eq!((q.seq, q.hops, q.crc), (r.seq, r.hops, r.crc));
            assert_eq!(q.pkt, r.pkt);
        }
        assert!(Arc::ptr_eq(&queue[1].pkt, &queue[4].pkt));
    }

    #[test]
    fn flits_start_on_vc_zero_with_no_hops() {
        let flits = builder(2).build();
        assert!(flits
            .iter()
            .all(|f| f.vc == 0 && f.hops == 0 && f.inter.is_none()));
    }

    #[test]
    fn built_flits_carry_a_valid_checksum() {
        let flits = builder(3).build();
        assert!(flits.iter().all(Flit::crc_ok));
        // Distinct flit identities should (for these values) checksum
        // differently, and a flipped bit must be caught.
        assert_ne!(flits[0].crc, flits[1].crc);
        let mut bad = flits[0].clone();
        bad.crc ^= 1;
        assert!(!bad.crc_ok());
    }

    #[test]
    fn span_telescopes_exactly() {
        // enqueue 10, inject at 14 onto a 3-tick link, arrive 17, stall
        // seen at 20 (re-seen at 22), credits back at 26, granted at 30
        // through a 2-tick switch onto a 5-tick link, arrive 37, granted
        // straight through onto a 1-tick ejection link, ejected at 38.
        let mut s = FlitSpan::new(10);
        s.inject(14, 3);
        s.enter(17);
        s.stall(20);
        s.stall(22);
        s.resume(26);
        s.grant(30, 2, 5);
        s.enter(37);
        s.grant(37, 0, 1);
        let b = s.breakdown(38);
        assert_eq!(b.total, 28);
        assert_eq!(b.queueing, 4);
        assert_eq!(b.alloc, 7);
        assert_eq!(b.serialization, 2);
        assert_eq!(b.channel, 9);
        assert_eq!(b.credit, 6);
        assert_eq!(b.residual, 0);
        assert_eq!(
            b.queueing + b.alloc + b.serialization + b.channel + b.credit + b.residual,
            b.total
        );
    }

    #[test]
    fn span_open_stall_closes_at_grant() {
        let mut s = FlitSpan::new(0);
        s.inject(0, 1);
        s.enter(1);
        s.stall(4);
        s.grant(9, 1, 1);
        let b = s.breakdown(11);
        assert_eq!(b.alloc, 3);
        assert_eq!(b.credit, 5);
        assert_eq!(b.serialization, 1);
        assert_eq!(b.channel, 2);
        assert_eq!(b.residual, 0);
        assert_eq!(b.total, 11);
    }

    #[test]
    fn span_resume_without_stall_is_noop() {
        let mut s = FlitSpan::new(0);
        s.enter(5);
        s.resume(8);
        s.grant(10, 0, 0);
        let b = s.breakdown(10);
        assert_eq!(b.alloc, 5);
        assert_eq!(b.credit, 0);
    }

    #[test]
    fn checksum_is_a_pure_function_of_identity() {
        assert_eq!(Flit::compute_crc(7, 0), Flit::compute_crc(7, 0));
        assert_ne!(Flit::compute_crc(7, 0), Flit::compute_crc(8, 0));
        assert_ne!(Flit::compute_crc(7, 0), Flit::compute_crc(7, 1));
    }
}

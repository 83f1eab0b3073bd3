//! End-to-end delivery checking (paper §IV-D).
//!
//! "Every flit delivered to a destination is guaranteed to have arrived at
//! the right destination and in the right order with respect to other flits
//! in the packet." The [`DeliveryChecker`] enforces exactly that at each
//! terminal, catching bugs in user-supplied component models early.

use std::fmt;

use supersim_des::{wire_overlay, IdMap};

use crate::flit::Flit;
use crate::ids::{PacketId, TerminalId};

/// A violated delivery invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// A flit reached a terminal other than its packet's destination.
    WrongDestination {
        /// The packet's intended destination.
        expected: TerminalId,
        /// The terminal that actually received the flit.
        actual: TerminalId,
        /// The offending packet.
        packet: PacketId,
    },
    /// Flits of a packet arrived out of order.
    OutOfOrder {
        /// The offending packet.
        packet: PacketId,
        /// The flit sequence number expected next.
        expected_seq: u32,
        /// The flit sequence number that arrived.
        actual_seq: u32,
    },
    /// A flit arrived for a packet whose tail was already delivered.
    AfterTail {
        /// The offending packet.
        packet: PacketId,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::WrongDestination {
                expected,
                actual,
                packet,
            } => write!(
                f,
                "{packet} addressed to {expected} was delivered to {actual}"
            ),
            CheckError::OutOfOrder {
                packet,
                expected_seq,
                actual_seq,
            } => write!(
                f,
                "{packet} delivered flit {actual_seq} while expecting flit {expected_seq}"
            ),
            CheckError::AfterTail { packet } => {
                write!(f, "{packet} received a flit after its tail flit")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Verifies per-packet delivery invariants at one terminal.
///
/// # Example
///
/// ```
/// use supersim_netbase::{DeliveryChecker, PacketBuilder, PacketId, MessageId,
///                        AppId, TerminalId};
///
/// let mut checker = DeliveryChecker::new(TerminalId(2));
/// let flits = PacketBuilder {
///     id: PacketId(1), message: MessageId(1), app: AppId(0),
///     src: TerminalId(0), dst: TerminalId(2),
///     size: 2, message_size: 2, inject_tick: 0, message_tick: 0, sample: false,
/// }.build();
/// assert_eq!(checker.deliver(&flits[0]).unwrap(), false); // head, packet open
/// assert_eq!(checker.deliver(&flits[1]).unwrap(), true);  // tail completes it
/// ```
#[derive(Debug)]
pub struct DeliveryChecker {
    terminal: TerminalId,
    /// Next expected flit sequence number per in-flight packet.
    expected: IdMap<PacketId, u32>,
    packets_completed: u64,
    flits_delivered: u64,
}

impl DeliveryChecker {
    /// Creates a checker for the given terminal.
    pub fn new(terminal: TerminalId) -> Self {
        DeliveryChecker {
            terminal,
            expected: IdMap::default(),
            packets_completed: 0,
            flits_delivered: 0,
        }
    }

    /// Records the delivery of one flit.
    ///
    /// Returns `true` when the flit completed its packet (it was the tail).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckError`] when the flit violates a delivery
    /// invariant; the simulation should be failed in response.
    pub fn deliver(&mut self, flit: &Flit) -> Result<bool, CheckError> {
        if flit.pkt.dst != self.terminal {
            return Err(CheckError::WrongDestination {
                expected: flit.pkt.dst,
                actual: self.terminal,
                packet: flit.pkt.id,
            });
        }
        let entry = self.expected.entry(flit.pkt.id).or_insert(0);
        if *entry >= flit.pkt.size {
            return Err(CheckError::AfterTail {
                packet: flit.pkt.id,
            });
        }
        if flit.seq != *entry {
            return Err(CheckError::OutOfOrder {
                packet: flit.pkt.id,
                expected_seq: *entry,
                actual_seq: flit.seq,
            });
        }
        *entry += 1;
        self.flits_delivered += 1;
        if flit.is_tail() {
            self.expected.remove(&flit.pkt.id);
            self.packets_completed += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Packets fully delivered so far.
    pub fn packets_completed(&self) -> u64 {
        self.packets_completed
    }

    /// Flits delivered so far.
    pub fn flits_delivered(&self) -> u64 {
        self.flits_delivered
    }

    /// Packets with some but not all flits delivered.
    pub fn packets_in_flight(&self) -> usize {
        self.expected.len()
    }
}

wire_overlay!(DeliveryChecker {
    expected: map,
    packets_completed,
    flits_delivered,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketBuilder;
    use crate::ids::{AppId, MessageId};
    use supersim_des::wire::{Overlay, WireCodec};

    fn packet(id: u64, dst: TerminalId, size: u32) -> Vec<Flit> {
        PacketBuilder {
            id: PacketId(id),
            message: MessageId(id),
            app: AppId(0),
            src: TerminalId(0),
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
    fn in_order_delivery_completes() {
        let mut c = DeliveryChecker::new(TerminalId(1));
        let flits = packet(1, TerminalId(1), 3);
        assert!(!c.deliver(&flits[0]).unwrap());
        assert!(!c.deliver(&flits[1]).unwrap());
        assert!(c.deliver(&flits[2]).unwrap());
        assert_eq!(c.packets_completed(), 1);
        assert_eq!(c.flits_delivered(), 3);
        assert_eq!(c.packets_in_flight(), 0);
    }

    #[test]
    fn interleaved_packets_allowed() {
        let mut c = DeliveryChecker::new(TerminalId(1));
        let a = packet(1, TerminalId(1), 2);
        let b = packet(2, TerminalId(1), 2);
        c.deliver(&a[0]).unwrap();
        c.deliver(&b[0]).unwrap();
        assert_eq!(c.packets_in_flight(), 2);
        assert!(c.deliver(&b[1]).unwrap());
        assert!(c.deliver(&a[1]).unwrap());
    }

    #[test]
    fn wrong_destination_detected() {
        let mut c = DeliveryChecker::new(TerminalId(1));
        let flits = packet(1, TerminalId(9), 1);
        let err = c.deliver(&flits[0]).unwrap_err();
        assert!(matches!(err, CheckError::WrongDestination { .. }));
        assert!(err.to_string().contains("t9"));
    }

    #[test]
    fn out_of_order_detected() {
        let mut c = DeliveryChecker::new(TerminalId(1));
        let flits = packet(1, TerminalId(1), 3);
        c.deliver(&flits[0]).unwrap();
        let err = c.deliver(&flits[2]).unwrap_err();
        assert!(matches!(
            err,
            CheckError::OutOfOrder {
                expected_seq: 1,
                actual_seq: 2,
                ..
            }
        ));
    }

    #[test]
    fn duplicate_flit_detected() {
        let mut c = DeliveryChecker::new(TerminalId(1));
        let flits = packet(1, TerminalId(1), 2);
        c.deliver(&flits[0]).unwrap();
        let err = c.deliver(&flits[0]).unwrap_err();
        assert!(matches!(err, CheckError::OutOfOrder { .. }));
    }

    #[test]
    fn flit_after_tail_detected() {
        let mut c = DeliveryChecker::new(TerminalId(1));
        let flits = packet(1, TerminalId(1), 1);
        c.deliver(&flits[0]).unwrap();
        // Same packet id, fabricated extra flit: expected map was cleared,
        // so the checker treats it as a fresh packet starting at seq 0 —
        // build a 2-flit duplicate to hit the AfterTail path instead.
        let dup = packet(1, TerminalId(1), 1);
        // Re-delivery of a completed single-flit packet restarts at 0 and
        // immediately completes; that is indistinguishable from a reused
        // packet id, which the id allocator never produces. Deliver twice
        // without removal to exercise AfterTail:
        let mut c2 = DeliveryChecker::new(TerminalId(1));
        c2.expected.insert(PacketId(1), 1);
        let err = c2.deliver(&dup[0]).unwrap_err();
        assert!(matches!(err, CheckError::AfterTail { .. }));
    }

    /// In-flight packets save in ascending id order and load back; a blob
    /// that repeats a packet id, or lists ids out of order, is malformed
    /// instead of resolving last-one-wins.
    #[test]
    fn load_requires_strictly_ascending_packet_ids() {
        let mut c = DeliveryChecker::new(TerminalId(1));
        for id in [9, 4, 6] {
            c.deliver(&packet(id, TerminalId(1), 3)[0]).unwrap();
        }
        let mut saved = Vec::new();
        c.save(&mut saved);
        let mut back = DeliveryChecker::new(TerminalId(1));
        assert_eq!(back.load(&mut saved.as_slice()), Some(()));
        assert_eq!(back.packets_in_flight(), 3);
        let mut again = Vec::new();
        back.save(&mut again);
        assert_eq!(again, saved);

        let blob = |ids: &[u64]| {
            let entries: Vec<(PacketId, u32)> = ids.iter().map(|&id| (PacketId(id), 1)).collect();
            let mut out = Vec::new();
            entries.encode(&mut out);
            (2u64, 3u64).encode(&mut out);
            out
        };
        let load =
            |ids: &[u64]| DeliveryChecker::new(TerminalId(1)).load(&mut blob(ids).as_slice());
        assert_eq!(load(&[4, 9]), Some(()));
        assert_eq!(load(&[4, 4]), None, "a repeated packet id");
        assert_eq!(load(&[9, 4]), None, "descending packet ids");
    }
}

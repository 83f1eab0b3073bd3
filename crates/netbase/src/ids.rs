//! Strongly-typed identifiers.
//!
//! Newtypes keep terminal, router, packet, and message identifiers from
//! being confused with each other or with plain indices (C-NEWTYPE).

use std::fmt;
use std::num::NonZeroU32;

/// Index of a network endpoint (one per terminal of each application).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TerminalId(pub u32);

/// Index of a router in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RouterId(pub u32);

/// Index of an application within the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u8);

/// Globally unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

/// Globally unique message identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MessageId(pub u64);

/// A router or interface port number.
pub type Port = u32;

/// A virtual channel number.
pub type Vc = u32;

impl TerminalId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RouterId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A router id stored as `id + 1` in a [`NonZeroU32`], so an
/// `Option<Via>` takes 4 bytes where an `Option<RouterId>` takes 8: the
/// intermediate router a Valiant-style detour carries on its head flit
/// ([`Flit::inter`](crate::Flit::inter)). Every id but `u32::MAX` has an
/// encoding; on the wire a `Via` is its [`RouterId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Via(NonZeroU32);

impl Via {
    /// The encoding of `router`, or `None` for `RouterId(u32::MAX)`.
    #[inline]
    pub fn new(router: RouterId) -> Option<Via> {
        router.0.checked_add(1).and_then(NonZeroU32::new).map(Via)
    }

    /// The router this names.
    #[inline]
    pub fn router(self) -> RouterId {
        RouterId(self.0.get() - 1)
    }
}

impl AppId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TerminalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for RouterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "msg{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(TerminalId(3).to_string(), "t3");
        assert_eq!(RouterId(7).to_string(), "r7");
        assert_eq!(AppId(1).to_string(), "app1");
        assert_eq!(PacketId(9).to_string(), "pkt9");
        assert_eq!(MessageId(2).to_string(), "msg2");
    }

    #[test]
    fn index_accessors() {
        assert_eq!(TerminalId(5).index(), 5);
        assert_eq!(RouterId(6).index(), 6);
        assert_eq!(AppId(2).index(), 2);
    }
}

//! The topology abstraction.

use std::error::Error;
use std::fmt;

use supersim_netbase::{Port, RouterId, TerminalId};

/// Invalid topology parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError {
    message: String,
}

impl TopologyError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        TopologyError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid topology: {}", self.message)
    }
}

impl Error for TopologyError {}

/// Classes of channels, used to assign per-class latencies (e.g. dragonfly
/// global links are much longer than local links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelClass {
    /// Router ↔ terminal channel.
    Terminal,
    /// Ordinary router ↔ router channel.
    Local,
    /// Long-reach channel (dragonfly inter-group links).
    Global,
}

/// The shape of a network.
///
/// Conventions shared by all implementations:
///
/// - Router ports `0..concentration` attach terminals; network ports
///   follow.
/// - [`Topology::neighbor`] is an involution at the port level: if
///   `neighbor(r, p) == Some((s, q))` then `neighbor(s, q) == Some((r, p))`
///   — channels are bidirectional pairs of unidirectional links.
///   `tests/wiring_properties.rs` checks this for every provided topology.
pub trait Topology: Send + Sync {
    /// Short topology name (e.g. `"torus"`).
    fn name(&self) -> &str;

    /// Total number of routers.
    fn num_routers(&self) -> u32;

    /// Total number of terminals.
    fn num_terminals(&self) -> u32;

    /// Total ports (terminal + network) on `router`.
    fn radix(&self, router: RouterId) -> u32;

    /// The router and router port a terminal attaches to.
    fn terminal_attachment(&self, terminal: TerminalId) -> (RouterId, Port);

    /// The terminal attached at (`router`, `port`), if `port` is a terminal
    /// port.
    fn terminal_at(&self, router: RouterId, port: Port) -> Option<TerminalId>;

    /// The far end of a network port: `(neighbor router, its port)`.
    /// `None` for terminal ports and unwired ports.
    fn neighbor(&self, router: RouterId, port: Port) -> Option<(RouterId, Port)>;

    /// The channel class of (`router`, `port`), for latency assignment.
    fn channel_class(&self, router: RouterId, port: Port) -> ChannelClass {
        if self.terminal_at(router, port).is_some() {
            ChannelClass::Terminal
        } else {
            ChannelClass::Local
        }
    }

    /// Minimal router-to-router hop count between two terminals' routers
    /// (0 when both attach to the same router). On the dragonfly this is
    /// the hop count of minimal routing (at most one global channel),
    /// which can exceed the graph distance by one.
    fn min_hops(&self, src: TerminalId, dst: TerminalId) -> u32;
}

/// Decodes `index` into mixed-radix coordinates with the given `widths`
/// (least significant dimension first), lazily and without allocating:
/// routing engines compare and pick coordinates without building a `Vec`.
pub(crate) fn coords(mut index: u32, widths: &[u32]) -> impl Iterator<Item = u32> + '_ {
    widths.iter().map(move |&w| {
        let c = index % w;
        index /= w;
        c
    })
}

/// Inverse of [`coords`].
pub(crate) fn from_coords(coords: &[u32], widths: &[u32]) -> u32 {
    debug_assert_eq!(coords.len(), widths.len());
    let mut index = 0u32;
    for (i, (&c, &w)) in coords.iter().zip(widths).enumerate().rev() {
        debug_assert!(
            c < w,
            "coordinate {c} out of range for width {w} in dim {i}"
        );
        index = index * w + c;
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinate_round_trip() {
        let widths = [4u32, 3, 2];
        for i in 0..24 {
            let c: Vec<u32> = coords(i, &widths).collect();
            assert_eq!(from_coords(&c, &widths), i);
            assert!(c.iter().zip(&widths).all(|(&x, &w)| x < w));
        }
    }

    #[test]
    fn coords_are_little_endian() {
        assert!(coords(5, &[4, 3]).eq([1, 1]));
        assert_eq!(from_coords(&[1, 1], &[4, 3]), 5);
        assert!(coords(0, &[4, 3]).eq([0, 0]));
        assert_eq!(coords(23, &[4, 3, 2]).nth(2), Some(1));
    }

    #[test]
    fn error_display() {
        let e = TopologyError::new("widths must be non-empty");
        assert_eq!(e.to_string(), "invalid topology: widths must be non-empty");
    }
}

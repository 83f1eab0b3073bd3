//! Folded-Clos (fat tree) topology.
//!
//! An `L`-level folded Clos built from routers with `k` down ports and `k`
//! up ports (root routers use only their `k` down ports). Terminals number
//! `k^L`; each level has `k^(L-1)` routers.
//!
//! Identify each terminal by its base-`k` digits `D[0..L]` (least
//! significant first): `D[0]` is the terminal port at the leaf router and
//! `D[1..L]` are the leaf router's digits. A router at level `l` carries
//! digits `d[0..L-1]`; its up port `u` connects to the level-`l+1` router
//! with `d[l] := u`, arriving on that router's down port equal to the old
//! `d[l]`. Ascending therefore *frees* digit positions `0..l`, which is why
//! any common ancestor at the lowest common level works — the structural
//! fact adaptive up-routing exploits.

use supersim_netbase::{Port, RouterId, TerminalId};

use crate::types::{from_coords, Topology, TopologyError};

/// An L-level folded-Clos network (paper case study A).
///
/// # Example
///
/// ```
/// use supersim_topology::{FoldedClos, Topology};
///
/// // Paper §VI-A: 3-level folded Clos of radix-32 routers (k = 16):
/// // 4096 terminals.
/// let c = FoldedClos::new(3, 16).unwrap();
/// assert_eq!(c.num_terminals(), 4096);
/// assert_eq!(c.num_routers(), 3 * 256);
/// ```
#[derive(Debug, Clone)]
pub struct FoldedClos {
    levels: u32,
    k: u32,
    routers_per_level: u32,
}

impl FoldedClos {
    /// Creates an `levels`-level folded Clos with `k` down and `k` up ports
    /// per router (router radix `2k` below the root).
    ///
    /// # Errors
    ///
    /// Returns an error if `levels` is zero, `k < 2`, or the terminal count
    /// `k^levels` overflows `u32`.
    pub fn new(levels: u32, k: u32) -> Result<Self, TopologyError> {
        if levels == 0 {
            return Err(TopologyError::new("folded clos needs at least one level"));
        }
        if k < 2 {
            return Err(TopologyError::new("folded clos needs k of at least 2"));
        }
        let mut terminals = 1u32;
        for _ in 0..levels {
            terminals = terminals
                .checked_mul(k)
                .ok_or_else(|| TopologyError::new("folded clos size overflows u32"))?;
        }
        let routers_per_level = terminals / k;
        Ok(FoldedClos {
            levels,
            k,
            routers_per_level,
        })
    }

    /// Number of levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Down-port (and up-port) count per router.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Routers per level.
    pub fn routers_per_level(&self) -> u32 {
        self.routers_per_level
    }

    /// The level of a router (0 = leaf, `levels - 1` = root).
    pub fn router_level(&self, router: RouterId) -> u32 {
        router.0 / self.routers_per_level
    }

    /// Router id from `(level, digits)`.
    pub fn router_id(&self, level: u32, digits: &[u32]) -> RouterId {
        let widths = vec![self.k; self.levels as usize - 1];
        RouterId(level * self.routers_per_level + from_coords(digits, &widths))
    }

    /// Whether `port` is an up port on a router at `level`.
    pub fn is_up_port(&self, level: u32, port: Port) -> bool {
        level + 1 < self.levels && port >= self.k
    }

    /// The first up port (up ports are `k..2k` below the root level).
    pub fn up_port_base(&self) -> Port {
        self.k
    }

    /// The level of the lowest common ancestor a packet must climb to when
    /// traveling between two terminals (0 = same leaf router): the fewest
    /// low digits `D[0..=a]` whose removal leaves the two ids equal.
    pub fn ancestor_level(&self, src: TerminalId, dst: TerminalId) -> u32 {
        let (mut s, mut d) = (src.0 / self.k, dst.0 / self.k);
        let mut level = 0;
        while s != d {
            s /= self.k;
            d /= self.k;
            level += 1;
        }
        level
    }

    /// Whether the subtree below `router` (at its level) contains `dst`:
    /// true when the router's digit positions `level..L-1` match the
    /// destination digits `level+1..L`.
    pub fn subtree_contains(&self, router: RouterId, dst: TerminalId) -> bool {
        let level = self.router_level(router);
        let below = self.k.pow(level);
        (router.0 % self.routers_per_level) / below == dst.0 / (below * self.k)
    }

    /// The down port toward `dst` from a router at `level` whose subtree
    /// contains it: digit `D[level]` of the destination.
    pub fn down_port_toward(&self, level: u32, dst: TerminalId) -> Port {
        dst.0 / self.k.pow(level) % self.k
    }

    /// The router at `level` whose in-level index is `index` with digit
    /// `position` replaced by `digit`, and the digit it replaced.
    fn with_digit(&self, level: u32, index: u32, position: u32, digit: u32) -> (RouterId, u32) {
        let stride = self.k.pow(position);
        let old = index / stride % self.k;
        let index = index - old * stride + digit * stride;
        (RouterId(level * self.routers_per_level + index), old)
    }
}

impl Topology for FoldedClos {
    fn name(&self) -> &str {
        "folded_clos"
    }

    fn num_routers(&self) -> u32 {
        self.levels * self.routers_per_level
    }

    fn num_terminals(&self) -> u32 {
        self.routers_per_level * self.k
    }

    fn radix(&self, router: RouterId) -> u32 {
        if self.router_level(router) + 1 == self.levels {
            self.k // root level: down ports only
        } else {
            2 * self.k
        }
    }

    fn terminal_attachment(&self, terminal: TerminalId) -> (RouterId, Port) {
        // Leaf router digits are the terminal digits above position 0.
        (RouterId(terminal.0 / self.k), terminal.0 % self.k)
    }

    fn terminal_at(&self, router: RouterId, port: Port) -> Option<TerminalId> {
        (self.router_level(router) == 0 && port < self.k)
            .then(|| TerminalId(router.0 * self.k + port))
    }

    fn neighbor(&self, router: RouterId, port: Port) -> Option<(RouterId, Port)> {
        let level = self.router_level(router);
        let index = router.0 % self.routers_per_level;
        if port >= self.radix(router) {
            return None;
        }
        if self.is_up_port(level, port) {
            // Up port u: replace digit[level] with u; arrive on the down
            // port equal to the replaced digit.
            Some(self.with_digit(level + 1, index, level, port - self.k))
        } else if level > 0 {
            // Down port p at level > 0: replace digit[level-1] with p;
            // arrive on the up port equal to the replaced digit.
            let (down, old) = self.with_digit(level - 1, index, level - 1, port);
            Some((down, self.k + old))
        } else {
            None // level-0 down ports are terminal ports
        }
    }

    fn min_hops(&self, src: TerminalId, dst: TerminalId) -> u32 {
        if src == dst {
            return 0;
        }
        let a = self.ancestor_level(src, dst);
        // Climb `a` channels, descend `a` channels: 2a + 1 routers visited,
        // i.e. 2a router-to-router hops.
        2 * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        let c = FoldedClos::new(3, 16).unwrap();
        assert_eq!(c.num_terminals(), 4096);
        assert_eq!(c.radix(RouterId(0)), 32);
        // Root routers expose only their down ports.
        let root = c.router_id(2, &[0, 0]);
        assert_eq!(c.radix(root), 16);

        let small = FoldedClos::new(3, 8).unwrap();
        assert_eq!(small.num_terminals(), 512);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(FoldedClos::new(0, 4).is_err());
        assert!(FoldedClos::new(2, 1).is_err());
        assert!(FoldedClos::new(9, 64).is_err()); // overflow
    }

    #[test]
    fn router_id_round_trip() {
        let c = FoldedClos::new(3, 4).unwrap();
        for r in 0..c.num_routers() {
            let index = r % c.routers_per_level();
            let digits = [index % 4, index / 4];
            assert_eq!(
                c.router_id(c.router_level(RouterId(r)), &digits),
                RouterId(r)
            );
        }
    }

    #[test]
    fn terminal_attachment_round_trip() {
        let c = FoldedClos::new(2, 4).unwrap();
        for t in 0..c.num_terminals() {
            let (r, p) = c.terminal_attachment(TerminalId(t));
            assert_eq!(c.terminal_at(r, p), Some(TerminalId(t)));
        }
    }

    #[test]
    fn neighbor_is_involution() {
        let c = FoldedClos::new(3, 3).unwrap();
        for r in 0..c.num_routers() {
            for p in 0..c.radix(RouterId(r)) {
                if let Some((nr, np)) = c.neighbor(RouterId(r), p) {
                    assert_eq!(
                        c.neighbor(nr, np),
                        Some((RouterId(r), p)),
                        "r{r} p{p} not symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn ancestor_levels() {
        let c = FoldedClos::new(3, 4).unwrap();
        // Same leaf router: terminals 0 and 1 differ only in D[0].
        assert_eq!(c.ancestor_level(TerminalId(0), TerminalId(1)), 0);
        // Differ in D[1]: one level up.
        assert_eq!(c.ancestor_level(TerminalId(0), TerminalId(4)), 1);
        // Differ in D[2]: to the root.
        assert_eq!(c.ancestor_level(TerminalId(0), TerminalId(16)), 2);
        assert_eq!(c.min_hops(TerminalId(0), TerminalId(16)), 4);
        assert_eq!(c.min_hops(TerminalId(0), TerminalId(0)), 0);
    }

    #[test]
    fn up_then_down_reaches_destination() {
        // Walk a packet manually: climb to the ancestor level picking
        // arbitrary up ports, then descend by down_port_toward.
        let c = FoldedClos::new(3, 4).unwrap();
        let src = TerminalId(5);
        let dst = TerminalId(57);
        let a = c.ancestor_level(src, dst);
        let (mut router, _) = c.terminal_attachment(src);
        for step in 0..a {
            // Arbitrary up port choice (here: index step mod k).
            let port = c.up_port_base() + (step % c.k());
            let (next, _) = c.neighbor(router, port).unwrap();
            router = next;
        }
        assert!(c.subtree_contains(router, dst));
        let mut level = c.router_level(router);
        while level > 0 {
            let port = c.down_port_toward(level, dst);
            let (next, _) = c.neighbor(router, port).unwrap();
            router = next;
            level -= 1;
            assert!(c.subtree_contains(router, dst));
        }
        let port = c.down_port_toward(0, dst);
        assert_eq!(c.terminal_at(router, port), Some(dst));
    }

    #[test]
    fn subtree_membership() {
        let c = FoldedClos::new(3, 4).unwrap();
        let (leaf, _) = c.terminal_attachment(TerminalId(7));
        assert!(c.subtree_contains(leaf, TerminalId(7)));
        assert!(c.subtree_contains(leaf, TerminalId(4))); // same leaf
        assert!(!c.subtree_contains(leaf, TerminalId(63)));
        // Every root contains every terminal.
        let root = c.router_id(2, &[1, 2]);
        assert!(c.subtree_contains(root, TerminalId(0)));
        assert!(c.subtree_contains(root, TerminalId(63)));
    }
}

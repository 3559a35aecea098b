//! 4-ary n-tree (fat-tree) topology and up*/down routing.
//!
//! The network is a *k*-ary *n*-tree with `k = 4` (Arctic switches have
//! four down and four up ports). A tree of height `h` supports `4^h`
//! nodes with full bisection bandwidth. Switches live at levels
//! `0..h` (level 0 adjacent to nodes, level `h-1` the roots) and each
//! level holds `4^(h-1)` switches.
//!
//! **Wiring rule.** Identify a switch by `(level l, label w)` where `w`
//! is an `(h-1)`-digit base-4 string. Up-port `u` of `(l, w)` connects to
//! the down side of `(l+1, replace_digit(w, l, u))`; the corresponding
//! down-port index on the upper switch is the replaced digit. Level-0
//! switch `w` serves nodes `4w .. 4w+3`.
//!
//! **Routing.** A packet from `s` to `d` climbs to the lowest level `L`
//! at which the leaf labels of `s` and `d` can converge (one more than
//! the most significant differing digit), choosing one of the four up
//! ports freely at each step — that freedom is the fat tree's path
//! diversity — then descends deterministically by setting digit `l` to
//! `digit_l(leaf(d))` at each level.

use crate::packet::NodeId;

/// Switch radix: down ports and up ports per switch.
pub const RADIX: usize = 4;

/// Index of a directed link in [`FatTree::links`].
pub type LinkId = usize;

/// One endpoint of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// Variant fields are named self-descriptively; the variants themselves
// are documented above each one.
#[allow(missing_docs)]
pub enum Endpoint {
    /// A processing node (its NIU's network port).
    Node(NodeId),
    /// Switch at `(level, label)`.
    Switch { level: u8, label: u32 },
}

/// A directed link between two endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Source endpoint.
    pub from: Endpoint,
    /// Destination endpoint.
    pub to: Endpoint,
}

/// How the free up-port choices of the up*/down route are made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Spread flows with a deterministic hash of `(src, dst, sequence)` —
    /// reproducible stand-in for Arctic's adaptive routing under the
    /// uniform traffic of our experiments. Packets of one flow may take
    /// different paths and be reordered, as on the real adaptive network.
    HashSpread,
    /// One deterministic path per `(src, dst)` pair: packets of a flow
    /// stay FIFO end-to-end. The machine's default, because the NIU's
    /// remote-command stream relies on per-flow ordering (the hardware
    /// achieves the same with its ordered command queues).
    FlowHash,
    /// Always take up-port 0. Deliberately collision-prone; used by the
    /// network ablation to show the value of path diversity.
    Fixed,
}

/// The fat-tree topology: switch inventory plus the directed-link table.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Tree height (levels of switches). `4^height >= nodes`.
    pub height: u32,
    /// Number of processing nodes actually attached (the tree is sized to
    /// the next power of four).
    pub nodes: usize,
    /// All directed links; `LinkId` indexes this.
    pub links: Vec<Link>,
    /// Switches per level.
    pub switches_per_level: usize,
    /// Lookup: link id of `Node(i) -> leaf switch`.
    up_from_node: Vec<LinkId>,
    /// Lookup: link id of `leaf switch -> Node(i)`.
    down_to_node: Vec<LinkId>,
    /// Lookup: `(level, label, up_port)` -> link id of the upward link.
    up_link: Vec<Vec<[LinkId; RADIX]>>,
    /// Lookup: `(level, label, up_port)` -> link id of the matching
    /// downward link (upper switch back down to `(level, label)`).
    down_link: Vec<Vec<[LinkId; RADIX]>>,
}

#[inline]
fn digit(w: u32, pos: u32) -> u32 {
    (w >> (2 * pos)) & 0b11
}

#[inline]
fn replace_digit(w: u32, pos: u32, d: u32) -> u32 {
    (w & !(0b11 << (2 * pos))) | (d << (2 * pos))
}

/// Smallest height whose tree holds `nodes` endpoints.
pub fn height_for(nodes: usize) -> u32 {
    assert!(nodes >= 1);
    let mut h = 1u32;
    while RADIX.pow(h) < nodes {
        h += 1;
    }
    h
}

impl FatTree {
    /// Build the smallest 4-ary n-tree covering `nodes` processing nodes
    /// (minimum height 1, i.e. a single switch for up to 4 nodes).
    pub fn build(nodes: usize) -> Self {
        let height = height_for(nodes.max(2));
        let switches_per_level = RADIX.pow(height - 1);
        let mut links = Vec::new();
        let mut up_from_node = Vec::with_capacity(nodes);
        let mut down_to_node = Vec::with_capacity(nodes);

        // Node <-> leaf-switch links.
        for n in 0..nodes {
            let sw = Endpoint::Switch {
                level: 0,
                label: (n / RADIX) as u32,
            };
            up_from_node.push(links.len());
            links.push(Link {
                from: Endpoint::Node(n as NodeId),
                to: sw,
            });
            down_to_node.push(links.len());
            links.push(Link {
                from: sw,
                to: Endpoint::Node(n as NodeId),
            });
        }

        // Switch <-> switch links for every level transition.
        let mut up_link = Vec::new();
        let mut down_link = Vec::new();
        for l in 0..height.saturating_sub(1) {
            let mut ups = Vec::with_capacity(switches_per_level);
            let mut downs = Vec::with_capacity(switches_per_level);
            for w in 0..switches_per_level as u32 {
                let mut up_ids = [0usize; RADIX];
                let mut down_ids = [0usize; RADIX];
                for u in 0..RADIX as u32 {
                    let lower = Endpoint::Switch {
                        level: l as u8,
                        label: w,
                    };
                    let upper = Endpoint::Switch {
                        level: (l + 1) as u8,
                        label: replace_digit(w, l, u),
                    };
                    up_ids[u as usize] = links.len();
                    links.push(Link {
                        from: lower,
                        to: upper,
                    });
                    down_ids[u as usize] = links.len();
                    links.push(Link {
                        from: upper,
                        to: lower,
                    });
                }
                ups.push(up_ids);
                downs.push(down_ids);
            }
            up_link.push(ups);
            down_link.push(downs);
        }

        FatTree {
            height,
            nodes,
            links,
            switches_per_level,
            up_from_node,
            down_to_node,
            up_link,
            down_link,
        }
    }

    /// Leaf-switch label of a node.
    #[inline]
    pub fn leaf_of(&self, n: NodeId) -> u32 {
        n as u32 / RADIX as u32
    }

    /// Number of switch levels the route from `s` to `d` must climb
    /// (0 when both share a leaf switch).
    pub fn climb_levels(&self, s: NodeId, d: NodeId) -> u32 {
        let (ls, ld) = (self.leaf_of(s), self.leaf_of(d));
        if ls == ld {
            return 0;
        }
        // One more than the most significant differing base-4 digit.
        let mut lvl = 0;
        for pos in 0..self.height - 1 {
            if digit(ls, pos) != digit(ld, pos) {
                lvl = pos + 1;
            }
        }
        lvl
    }

    /// Number of links a packet from `s` to `d` traverses (including the
    /// node↔switch links).
    pub fn hop_count(&self, s: NodeId, d: NodeId) -> usize {
        2 + 2 * self.climb_levels(s, d) as usize
    }

    /// Compute the full directed-link route from `s` to `d`.
    ///
    /// `selector` provides the free up-port choice for each climbed level
    /// (called with the level index, must return a value `< RADIX`).
    pub fn route(&self, s: NodeId, d: NodeId, mut selector: impl FnMut(u32) -> u32) -> Vec<LinkId> {
        assert!((s as usize) < self.nodes && (d as usize) < self.nodes);
        assert_ne!(s, d, "route to self");
        let climb = self.climb_levels(s, d);
        let mut route = Vec::with_capacity(self.hop_count(s, d));
        route.push(self.up_from_node[s as usize]);
        let mut label = self.leaf_of(s);
        // Climb, recording the label path so descent can retrace levels.
        let mut labels_up = Vec::with_capacity(climb as usize);
        for l in 0..climb {
            let u = selector(l) % RADIX as u32;
            route.push(self.up_link[l as usize][label as usize][u as usize]);
            labels_up.push(label);
            label = replace_digit(label, l, u);
        }
        // Descend: set digit l to the destination leaf's digit l.
        let ld = self.leaf_of(d);
        for l in (0..climb).rev() {
            let target = replace_digit(label, l, digit(ld, l));
            // The down link from (l+1, label) to (l, target) is recorded as
            // down_link[l][target][u] where replace_digit(target, l, u) == label.
            let u = digit(label, l);
            debug_assert_eq!(replace_digit(target, l, u), label);
            route.push(self.down_link[l as usize][target as usize][u as usize]);
            label = target;
        }
        debug_assert_eq!(label, ld, "descent must land on destination leaf");
        route.push(self.down_to_node[d as usize]);
        route
    }

    /// Total number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Nodes per aligned height-`k` subtree (`4^k`). `k = 0` is a single
    /// node, `k = 1` one leaf switch's nodes, `k = height` the whole
    /// tree.
    pub fn subtree_span(k: u32) -> usize {
        RADIX.pow(k)
    }

    /// Index of the aligned height-`k` subtree containing node `n`.
    ///
    /// Nodes are numbered consecutively under the leaves, so the aligned
    /// `4^k`-node chunks of the node range *are* the height-`k` subtrees:
    /// every node of chunk `i` hangs under the same level-`k-1` switch
    /// ancestry, and no node outside the chunk does.
    #[inline]
    pub fn subtree_of(&self, n: NodeId, k: u32) -> usize {
        n as usize / Self::subtree_span(k)
    }

    /// Number of aligned height-`k` subtrees covering the attached nodes
    /// (the last may be partially populated).
    pub fn subtree_count(&self, k: u32) -> usize {
        self.nodes.div_ceil(Self::subtree_span(k))
    }

    /// Minimum number of switch levels any packet between nodes of two
    /// *distinct* height-`k` subtrees must climb. Two such nodes differ
    /// in a leaf-label digit at position `>= k - 1`, so the route
    /// converges no lower than level `k`.
    pub fn min_cross_subtree_climb(&self, k: u32) -> u32 {
        debug_assert!(
            self.subtree_count(k) > 1,
            "no cross-subtree traffic exists at height {k}"
        );
        k
    }

    /// Minimum hop count (node links included) of any packet between
    /// nodes of two distinct height-`k` subtrees. Grows linearly in `k`,
    /// which is what makes subtree-aligned shards attractive to a
    /// conservative parallel run loop: coarser shards push all
    /// cross-shard traffic through proportionally longer routes.
    pub fn min_cross_subtree_hops(&self, k: u32) -> usize {
        2 + 2 * self.min_cross_subtree_climb(k) as usize
    }

    /// Subtree height to shard this tree's nodes across `workers`
    /// parallel workers: the finest aligned-`4^k` sharding whose shard
    /// count stays within `4 * workers` (enough shards for load
    /// balancing without drowning the window protocol in per-shard
    /// dispatches), floored so the shard count never drops below the
    /// worker count.
    pub fn shard_levels_for(&self, workers: usize) -> u32 {
        let w = workers.max(1);
        let mut k = 0u32;
        while self.subtree_count(k + 1) >= w && self.subtree_count(k) > 4 * w {
            k += 1;
        }
        k
    }
}

sv_sim::checkpointed! {
    enum RoutingPolicy {
        0 => HashSpread,
        1 => FlowHash,
        2 => Fixed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_sizing() {
        assert_eq!(height_for(2), 1);
        assert_eq!(height_for(4), 1);
        assert_eq!(height_for(5), 2);
        assert_eq!(height_for(16), 2);
        assert_eq!(height_for(17), 3);
        assert_eq!(height_for(64), 3);
    }

    #[test]
    fn two_node_tree_routes_through_one_switch() {
        let t = FatTree::build(2);
        assert_eq!(t.height, 1);
        let r = t.route(0, 1, |_| 0);
        assert_eq!(r.len(), 2);
        assert_eq!(t.hop_count(0, 1), 2);
        // First link leaves node 0, last link enters node 1.
        assert_eq!(t.links[r[0]].from, Endpoint::Node(0));
        assert_eq!(t.links[r[1]].to, Endpoint::Node(1));
    }

    #[test]
    fn sixteen_node_routes_are_valid_paths() {
        let t = FatTree::build(16);
        assert_eq!(t.height, 2);
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                for sel in 0..4u32 {
                    let r = t.route(s, d, |_| sel);
                    assert_eq!(r.len(), t.hop_count(s, d), "{s}->{d}");
                    // Path continuity: each link starts where the previous ended.
                    assert_eq!(t.links[r[0]].from, Endpoint::Node(s));
                    for w in r.windows(2) {
                        assert_eq!(t.links[w[0]].to, t.links[w[1]].from);
                    }
                    assert_eq!(t.links[*r.last().unwrap()].to, Endpoint::Node(d));
                }
            }
        }
    }

    #[test]
    fn same_leaf_is_two_hops() {
        let t = FatTree::build(16);
        assert_eq!(t.climb_levels(0, 3), 0);
        assert_eq!(t.hop_count(0, 3), 2);
        assert_eq!(t.climb_levels(0, 4), 1);
        assert_eq!(t.hop_count(0, 4), 4);
    }

    #[test]
    fn distinct_up_choices_give_distinct_paths() {
        let t = FatTree::build(16);
        let r0 = t.route(0, 12, |_| 0);
        let r1 = t.route(0, 12, |_| 1);
        assert_ne!(r0, r1, "path diversity must exist across the tree");
        // But both must share first and last hops.
        assert_eq!(r0[0], r1[0]);
        assert_eq!(r0.last(), r1.last());
    }

    #[test]
    fn three_level_tree_routes() {
        let t = FatTree::build(64);
        assert_eq!(t.height, 3);
        let r = t.route(0, 63, |l| l); // arbitrary per-level selections
        assert_eq!(r.len(), t.hop_count(0, 63));
        assert_eq!(t.hop_count(0, 63), 2 + 2 * 2);
        for w in r.windows(2) {
            assert_eq!(t.links[w[0]].to, t.links[w[1]].from);
        }
    }

    #[test]
    fn subtree_shards_align_with_the_tree() {
        let t = FatTree::build(64);
        // Height-1 subtrees are exactly the leaf switches.
        assert_eq!(FatTree::subtree_span(1), 4);
        assert_eq!(t.subtree_count(1), 16);
        for n in 0..64u16 {
            assert_eq!(t.subtree_of(n, 1) as u32, t.leaf_of(n));
        }
        // Same subtree => a route never climbs above the subtree root;
        // different subtrees => it must climb at least `k` levels.
        for k in 1..=2u32 {
            for s in 0..64u16 {
                for d in 0..64u16 {
                    if s == d {
                        continue;
                    }
                    let climb = t.climb_levels(s, d);
                    if t.subtree_of(s, k) == t.subtree_of(d, k) {
                        assert!(climb < k, "{s}->{d} climbs {climb} inside height-{k}");
                    } else {
                        assert!(climb >= k, "{s}->{d} climbs {climb} across height-{k}");
                        assert!(t.hop_count(s, d) >= t.min_cross_subtree_hops(k));
                    }
                }
            }
        }
    }

    #[test]
    fn cross_subtree_hops_grow_with_height() {
        let t = FatTree::build(256);
        assert_eq!(t.min_cross_subtree_hops(1), 4);
        assert_eq!(t.min_cross_subtree_hops(2), 6);
        assert_eq!(t.min_cross_subtree_hops(3), 8);
        // The bound is achieved by some pair (tightness).
        assert_eq!(t.hop_count(0, 4), t.min_cross_subtree_hops(1));
        assert_eq!(t.hop_count(0, 16), t.min_cross_subtree_hops(2));
    }

    #[test]
    fn shard_levels_balance_count_against_workers() {
        let t = FatTree::build(1024);
        // 8 workers: 4^k shards with count in (8, 32] => 64 nodes/shard.
        let k = t.shard_levels_for(8);
        assert!(t.subtree_count(k) >= 8, "at least one shard per worker");
        assert!(
            t.subtree_count(k) <= 4 * 8 || k == 0,
            "no more than 4 shards per worker unless already finest"
        );
        // Tiny machine: sharding stays at single nodes.
        let small = FatTree::build(4);
        assert_eq!(small.shard_levels_for(2), 0);
        assert_eq!(small.subtree_count(0), 4);
        // One worker still gets a valid (coarse) sharding.
        assert!(t.subtree_count(t.shard_levels_for(1)) >= 1);
    }

    #[test]
    fn digit_helpers() {
        // label 0b1110 = digits (pos0=2, pos1=3)
        assert_eq!(digit(0b1110, 0), 2);
        assert_eq!(digit(0b1110, 1), 3);
        assert_eq!(replace_digit(0b1110, 0, 1), 0b1101);
        assert_eq!(replace_digit(0b1110, 1, 0), 0b0010);
    }
}

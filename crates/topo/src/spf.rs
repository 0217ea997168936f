//! Deterministic Dijkstra shortest-path-first — the IGP stand-in.
//!
//! Both IS-IS and OSPF reduce, for this reproduction's purposes, to
//! "every router knows the shortest path to every other router in its
//! domain". [`DomainSpf`] computes that for every member of a domain
//! so the data plane can ask "next hop from *here* toward X" in O(1);
//! [`SpfTree`] is the single-source form.
//!
//! Ties are broken deterministically (lowest predecessor router id)
//! for the *primary* next hop, and up to [`MAX_ECMP`] equal-cost first
//! hops are retained ([`SpfTree::next_hops`]) so the data plane can do
//! ECMP: per-flow hashing over that set is exactly the load-balancing
//! behaviour Paris traceroute's flow-stable probing exists to tame.
//!
//! # Representation
//!
//! A domain's members are sorted by [`RouterId`] into dense *slots*,
//! and their in-domain adjacencies are laid out once as a CSR list
//! (per-slot offsets into one flat edge array, each router's edges in
//! [`Topology::adjacencies`] order). Dijkstra runs over 12-byte cells
//! — distance, predecessor slot, and the ECMP set as up to four 8-bit
//! indices into the *source's* edge list — so its inner loop neither
//! hashes nor allocates, and because slot order is `RouterId` order,
//! the heap's `(dist, slot)` order and the predecessor tie-break are
//! exactly those of a `(dist, RouterId)` formulation.
//!
//! [`DomainSpf`] keeps only what forwarding reads: one 4-byte ECMP set
//! per (source, destination) pair. Its Dijkstra runs in one scratch
//! row of full cells reused for every source; distances and paths are
//! cold queries that rerun one source over the shared CSR graph.

use crate::graph::Topology;
use crate::ids::{AsNumber, IfaceId, LinkId, RouterId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Deref;
use std::sync::Arc;

/// Cap on retained equal-cost first hops per destination (real
/// routers bound their ECMP fan-out similarly).
pub const MAX_ECMP: usize = 4;

/// "No slot": an unset predecessor, or a router outside the domain.
const NONE: u32 = u32::MAX;
/// An unused entry of an ECMP set.
const NO_HOP: u8 = u8::MAX;

/// Equal-cost first hops as indices into the source's edges, primary
/// first, [`NO_HOP`]-padded. Empty at the source and when unreached.
type Hops = [u8; MAX_ECMP];

const NO_HOPS: Hops = [NO_HOP; MAX_ECMP];

/// One in-domain adjacency in the CSR edge array.
#[derive(Debug, Clone, Copy)]
struct Edge {
    link: LinkId,
    iface: IfaceId,
    to: u32,
    cost: u32,
}

/// A domain's members in slots plus its CSR adjacency list — built
/// once per domain, shared by every source's Dijkstra.
#[derive(Debug)]
struct Graph {
    /// Members sorted by id; a member's index is its slot.
    members: Vec<RouterId>,
    /// `slot_of[id - base]` is the slot of router `id`, or [`NONE`].
    base: u32,
    slot_of: Vec<u32>,
    /// Slot `s`'s edges are `edges[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<u32>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Snapshots the live adjacencies among `members` (duplicates and
    /// order are irrelevant).
    ///
    /// # Panics
    /// Panics if a router has 255 or more in-domain adjacencies: ECMP
    /// sets index a source's edges with 8 bits.
    fn new(topo: &Topology, mut members: Vec<RouterId>) -> Graph {
        members.sort_unstable();
        members.dedup();
        let base = members.first().map_or(0, |r| r.0);
        let span = members.last().map_or(0, |r| (r.0 - base) as usize + 1);
        let mut slot_of = vec![NONE; span];
        for (slot, r) in members.iter().enumerate() {
            slot_of[(r.0 - base) as usize] = slot as u32;
        }
        let mut graph = Graph { members, base, slot_of, offsets: vec![0], edges: Vec::new() };
        for &u in &graph.members {
            let start = graph.edges.len();
            for (link, iface, _, v, cost) in topo.adjacencies(u) {
                if let Some(to) = graph.slot(v) {
                    graph.edges.push(Edge { link, iface, to, cost });
                }
            }
            let degree = graph.edges.len() - start;
            assert!(degree < usize::from(NO_HOP), "{u} has {degree} in-domain adjacencies");
            graph.offsets.push(graph.edges.len() as u32);
        }
        graph
    }

    fn slot(&self, r: RouterId) -> Option<u32> {
        let i = r.0.checked_sub(self.base)? as usize;
        self.slot_of.get(i).copied().filter(|&s| s != NONE)
    }

    fn out_edges(&self, slot: u32) -> &[Edge] {
        let s = slot as usize;
        &self.edges[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }

    /// The first hops `hops` of slot `src` as `(egress interface,
    /// neighbour)` pairs.
    fn next_hops(&self, src: u32, hops: &Hops) -> NextHops {
        let mut out = NextHops::EMPTY;
        let edges = self.out_edges(src);
        for &k in hops.iter().take_while(|&&k| k != NO_HOP) {
            let e = edges[usize::from(k)];
            out.hops[out.len] = (e.iface, self.members[e.to as usize]);
            out.len += 1;
        }
        out
    }
}

/// One (source, destination) entry of a shortest-path tree.
#[derive(Debug, Clone, Copy)]
struct Cell {
    dist: u32,
    /// Slot of the primary predecessor; [`NONE`] when unreached (and
    /// at the source itself).
    pred: u32,
    hops: Hops,
}

const UNREACHED: Cell = Cell { dist: u32::MAX, pred: NONE, hops: NO_HOPS };

/// Runs Dijkstra from slot `src` into `row` (one cell per slot, all
/// [`UNREACHED`] on entry), skipping `avoid`. `heap` is scratch space
/// reused across sources.
fn dijkstra(
    graph: &Graph,
    src: u32,
    avoid: Option<LinkId>,
    row: &mut [Cell],
    heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
) {
    row[src as usize].dist = 0;
    heap.clear();
    heap.push(Reverse((0, src)));

    while let Some(Reverse((d, u))) = heap.pop() {
        if row[u as usize].dist != d {
            continue; // stale heap entry
        }
        let via_u = row[u as usize].hops;
        for (k, e) in graph.out_edges(u).iter().enumerate() {
            // Nothing improves on the source, and a zero-cost link
            // back into it must not grow an ECMP set there.
            if e.to == src || Some(e.link) == avoid {
                continue;
            }
            let first_hops = if u == src {
                let mut own = NO_HOPS;
                own[0] = k as u8;
                own
            } else {
                via_u
            };
            let nd = d.saturating_add(e.cost);
            let cell = &mut row[e.to as usize];
            if cell.pred == NONE || nd < cell.dist {
                *cell = Cell { dist: nd, pred: u, hops: first_hops };
                heap.push(Reverse((nd, e.to)));
            } else if nd == cell.dist {
                // Equal cost: merge the first-hop sets (ECMP) and keep
                // the primary deterministic by preferring the smaller
                // predecessor. A zero-cost tie may come from a router
                // settled after (and through) the one it reaches;
                // adopting it could close a predecessor cycle, so only
                // positive-cost ties move the primary.
                if u < cell.pred && e.cost > 0 {
                    cell.pred = u;
                    cell.hops = merge_hops(first_hops, cell.hops);
                } else {
                    cell.hops = merge_hops(cell.hops, first_hops);
                }
            }
        }
    }
}

/// `first` then `then`, deduplicated keeping first occurrences and
/// capped at [`MAX_ECMP`].
fn merge_hops(first: Hops, then: Hops) -> Hops {
    let mut out = NO_HOPS;
    let mut len = 0;
    for hop in first.into_iter().chain(then).filter(|&h| h != NO_HOP) {
        if len == MAX_ECMP {
            break;
        }
        if !out[..len].contains(&hop) {
            out[len] = hop;
            len += 1;
        }
    }
    out
}

/// The equal-cost first hops `(egress interface, neighbour)` toward one
/// destination, primary first — an inline set of at most [`MAX_ECMP`]
/// entries that dereferences to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHops {
    len: usize,
    hops: [(IfaceId, RouterId); MAX_ECMP],
}

impl NextHops {
    const EMPTY: NextHops = NextHops { len: 0, hops: [(IfaceId(0), RouterId(0)); MAX_ECMP] };
}

impl Deref for NextHops {
    type Target = [(IfaceId, RouterId)];

    fn deref(&self) -> &[(IfaceId, RouterId)] {
        &self.hops[..self.len]
    }
}

/// The shortest-path tree rooted at one router.
#[derive(Debug, Clone)]
pub struct SpfTree {
    /// The root of the tree.
    pub source: RouterId,
    graph: Arc<Graph>,
    src: u32,
    cells: Vec<Cell>,
}

impl SpfTree {
    /// Runs Dijkstra from `source` over routers for which `in_domain`
    /// returns true. Links with `up == false` are skipped.
    pub fn compute(
        topo: &Topology,
        source: RouterId,
        in_domain: impl Fn(RouterId) -> bool,
    ) -> SpfTree {
        // The source always gets a slot; edges into it are never
        // relaxed, so it need not satisfy `in_domain` itself.
        let members =
            topo.routers().map(|r| r.id).filter(|&r| in_domain(r) || r == source).collect();
        SpfTree::over(Arc::new(Graph::new(topo, members)), source, None)
            .expect("the source is a domain member")
    }

    /// The tree from `source` over `graph` with `avoid` excluded, or
    /// `None` when `source` is not a member.
    fn over(graph: Arc<Graph>, source: RouterId, avoid: Option<LinkId>) -> Option<SpfTree> {
        let src = graph.slot(source)?;
        let mut cells = vec![UNREACHED; graph.members.len()];
        dijkstra(&graph, src, avoid, &mut cells, &mut BinaryHeap::new());
        Some(SpfTree { source, graph, src, cells })
    }

    /// The reached cell of `dst`, with its slot.
    fn cell(&self, dst: RouterId) -> Option<(u32, &Cell)> {
        let slot = self.graph.slot(dst)?;
        let cell = &self.cells[slot as usize];
        (slot == self.src || cell.pred != NONE).then_some((slot, cell))
    }

    /// IGP distance to `dst`, if reachable.
    pub fn distance(&self, dst: RouterId) -> Option<u32> {
        self.cell(dst).map(|(_, c)| c.dist)
    }

    /// The primary first hop from the source toward `dst` (control
    /// planes install this one). `None` when unreachable or
    /// `dst == source`.
    pub fn next_hop(&self, dst: RouterId) -> Option<(IfaceId, RouterId)> {
        self.next_hops(dst).first().copied()
    }

    /// All equal-cost first hops toward `dst`, primary first. The data
    /// plane hashes a flow over this set (ECMP).
    pub fn next_hops(&self, dst: RouterId) -> NextHops {
        self.cell(dst)
            .map_or(NextHops::EMPTY, |(_, cell)| self.graph.next_hops(self.src, &cell.hops))
    }

    /// The full router path `source..=dst`, or `None` if unreachable.
    pub fn path(&self, dst: RouterId) -> Option<Vec<RouterId>> {
        let (mut cur, _) = self.cell(dst)?;
        let mut path = vec![dst];
        while cur != self.src {
            cur = self.cells[cur as usize].pred;
            path.push(self.graph.members[cur as usize]);
        }
        path.reverse();
        Some(path)
    }
}

/// Per-domain all-sources SPF.
///
/// A "domain" is the set of routers sharing one IGP — one AS, or the
/// LDP- or SR-capable subset of one. Cloning is cheap (the tables are
/// shared), so one computation can serve the simulator's IGP oracle
/// and every control plane built over the same member set.
#[derive(Debug, Clone)]
pub struct DomainSpf {
    graph: Arc<Graph>,
    /// `n × n` ECMP sets, row-major by source slot.
    hops: Arc<Vec<Hops>>,
}

impl DomainSpf {
    /// Computes an SPF tree from every router of `asn`.
    pub fn for_as(topo: &Topology, asn: AsNumber) -> DomainSpf {
        let members: Vec<RouterId> = topo.routers_in_as(asn).map(|r| r.id).collect();
        DomainSpf::for_members(topo, &members)
    }

    /// Computes an SPF tree from every router in `members`, with the
    /// domain restricted to exactly that set.
    pub fn for_members(topo: &Topology, members: &[RouterId]) -> DomainSpf {
        // SPF recomputation is the IGP-convergence cost of the control
        // plane — cold, so inline registration is fine.
        let registry = arest_obs::global();
        let graph = Graph::new(topo, members.to_vec());
        let n = graph.members.len();
        if registry.is_enabled() {
            registry.counter("topo.spf.domains").inc();
            registry.counter("topo.spf.trees").add(n as u64);
        }
        let mut hops = vec![NO_HOPS; n * n];
        let mut row = vec![UNREACHED; n];
        let mut heap = BinaryHeap::new();
        if n > 0 {
            for (src, out) in hops.chunks_exact_mut(n).enumerate() {
                row.fill(UNREACHED);
                dijkstra(&graph, src as u32, None, &mut row, &mut heap);
                for (set, cell) in out.iter_mut().zip(&row) {
                    *set = cell.hops;
                }
            }
        }
        DomainSpf { graph: Arc::new(graph), hops: Arc::new(hops) }
    }

    /// The domain's members, sorted by id.
    pub fn members(&self) -> &[RouterId] {
        &self.graph.members
    }

    /// The dense slot of `r` — its index in [`DomainSpf::members`] —
    /// or `None` when `r` is not a member. Control planes compile
    /// their per-member state into slot-indexed vectors.
    pub fn slot(&self, r: RouterId) -> Option<usize> {
        self.graph.slot(r).map(|s| s as usize)
    }

    /// The ECMP set of slots `(from, to)`.
    fn slot_hops(&self, from: usize, to: usize) -> &Hops {
        &self.hops[from * self.graph.members.len() + to]
    }

    /// Whether slot `to` is reachable from slot `from` within the
    /// domain (a slot always reaches itself).
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        from == to || self.slot_hops(from, to)[0] != NO_HOP
    }

    /// [`DomainSpf::next_hop`] over slots: the primary first hop from
    /// slot `from` toward slot `to`, as the egress interface and the
    /// neighbour's slot.
    pub fn next_hop_slot(&self, from: usize, to: usize) -> Option<(IfaceId, usize)> {
        let k = self.slot_hops(from, to)[0];
        (k != NO_HOP).then(|| {
            let e = self.graph.out_edges(from as u32)[usize::from(k)];
            (e.iface, e.to as usize)
        })
    }

    /// Primary next hop from `from` toward `to` within the domain.
    pub fn next_hop(&self, from: RouterId, to: RouterId) -> Option<(IfaceId, RouterId)> {
        self.next_hops(from, to).first().copied()
    }

    /// All equal-cost next hops from `from` toward `to` (ECMP set).
    pub fn next_hops(&self, from: RouterId, to: RouterId) -> NextHops {
        let (Some(src), Some(dst)) = (self.graph.slot(from), self.graph.slot(to)) else {
            return NextHops::EMPTY;
        };
        self.graph.next_hops(src, self.slot_hops(src as usize, dst as usize))
    }

    /// IGP distance between two domain routers. Cold: reruns the
    /// source's Dijkstra.
    pub fn distance(&self, from: RouterId, to: RouterId) -> Option<u32> {
        self.tree(from, None)?.distance(to)
    }

    /// The primary router path `from..=to` within the domain. Cold:
    /// reruns the source's Dijkstra.
    pub fn path(&self, from: RouterId, to: RouterId) -> Option<Vec<RouterId>> {
        self.tree(from, None)?.path(to)
    }

    /// The tree from `source` with `link` excluded — the
    /// post-convergence view TI-LFA repair paths are built from — over
    /// the adjacencies this domain was computed on. `None` when
    /// `source` is not a member.
    pub fn tree_avoiding(&self, source: RouterId, link: LinkId) -> Option<SpfTree> {
        self.tree(source, Some(link))
    }

    fn tree(&self, source: RouterId, avoid: Option<LinkId>) -> Option<SpfTree> {
        SpfTree::over(Arc::clone(&self.graph), source, avoid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vendor::Vendor;
    use std::net::Ipv4Addr;

    /// Builds the topology of the paper's Fig. 3:
    ///
    /// ```text
    /// A - B - D - E - G - H      (all cost 1)
    ///      \   \_ F _/
    ///       C (stub off B)
    /// ```
    /// plus a direct D—E link which Fig. 3 steers through with an
    /// adjacency SID.
    fn fig3_topology() -> (Topology, Vec<RouterId>) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_001);
        let names = ["A", "B", "C", "D", "E", "F", "G", "H"];
        let routers: Vec<RouterId> = names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                topo.add_router(*name, asn, Vendor::Cisco, Ipv4Addr::new(10, 255, 1, (i + 1) as u8))
            })
            .collect();
        let mut nth = 0u8;
        let mut link = |topo: &mut Topology, a: usize, b: usize, cost: u32| {
            nth += 1;
            topo.add_link(
                routers[a],
                Ipv4Addr::new(10, 1, nth, 1),
                routers[b],
                Ipv4Addr::new(10, 1, nth, 2),
                cost,
            );
        };
        link(&mut topo, 0, 1, 1); // A-B
        link(&mut topo, 1, 2, 1); // B-C
        link(&mut topo, 1, 3, 1); // B-D
        link(&mut topo, 3, 4, 1); // D-E
        link(&mut topo, 3, 5, 1); // D-F
        link(&mut topo, 5, 6, 1); // F-G
        link(&mut topo, 4, 6, 1); // E-G
        link(&mut topo, 6, 7, 1); // G-H
        (topo, routers)
    }

    #[test]
    fn distances_match_hand_computation() {
        let (topo, r) = fig3_topology();
        let tree = SpfTree::compute(&topo, r[0], |_| true);
        // A=0 B=1 C=2 D=2 E=3 F=3 G=4 H=5
        let expect = [0u32, 1, 2, 2, 3, 3, 4, 5];
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(tree.distance(r[i]), Some(*want), "distance to {i}");
        }
    }

    #[test]
    fn next_hop_is_first_edge_of_path() {
        let (topo, r) = fig3_topology();
        let tree = SpfTree::compute(&topo, r[0], |_| true);
        let (iface, neighbour) = tree.next_hop(r[7]).unwrap();
        assert_eq!(neighbour, r[1], "everything from A goes via B");
        assert_eq!(topo.iface(iface).router, r[0]);
        assert_eq!(tree.next_hop(r[0]), None, "no next hop to self");
    }

    #[test]
    fn path_lists_every_router() {
        let (topo, r) = fig3_topology();
        let tree = SpfTree::compute(&topo, r[0], |_| true);
        let path = tree.path(r[7]).unwrap();
        assert_eq!(path.first(), Some(&r[0]));
        assert_eq!(path.last(), Some(&r[7]));
        assert_eq!(path.len(), 6); // A B D E|F G H
        assert_eq!(tree.path(r[0]).unwrap(), vec![r[0]]);
    }

    #[test]
    fn tie_break_prefers_lower_predecessor_id() {
        let (topo, r) = fig3_topology();
        // From D (r[3]) to G (r[6]): via E (r[4]) or F (r[5]), both
        // cost 2. The deterministic rule must choose predecessor E.
        let tree = SpfTree::compute(&topo, r[3], |_| true);
        let path = tree.path(r[6]).unwrap();
        assert_eq!(path, vec![r[3], r[4], r[6]]);
    }

    #[test]
    fn domain_filter_excludes_foreign_routers() {
        let (topo, r) = fig3_topology();
        // Restrict the domain to {A, B}: D becomes unreachable.
        let members = [r[0], r[1]];
        let spf = DomainSpf::for_members(&topo, &members);
        assert_eq!(spf.distance(r[0], r[1]), Some(1));
        assert_eq!(spf.distance(r[0], r[3]), None);
        assert_eq!(spf.distance(r[3], r[3]), None, "D has no tree");
        assert_eq!(spf.members(), &members);
    }

    #[test]
    fn link_failure_reroutes() {
        let (mut topo, r) = fig3_topology();
        // Down the D—E link (4th added, LinkId 3): D now reaches E via F,G.
        let tree_before = SpfTree::compute(&topo, r[3], |_| true);
        assert_eq!(tree_before.distance(r[4]), Some(1));
        topo.set_link_up(crate::ids::LinkId(3), false);
        let tree = SpfTree::compute(&topo, r[3], |_| true);
        assert_eq!(tree.distance(r[4]), Some(3), "D-F-G-E after failure");
        assert_eq!(tree.path(r[4]).unwrap(), vec![r[3], r[5], r[6], r[4]]);
    }

    #[test]
    fn tree_avoiding_matches_a_recompute_without_the_link() {
        let (mut topo, r) = fig3_topology();
        let spf = DomainSpf::for_as(&topo, AsNumber(65_001));
        let repaired = spf.tree_avoiding(r[3], crate::ids::LinkId(3)).unwrap();
        topo.set_link_up(crate::ids::LinkId(3), false);
        let recomputed = SpfTree::compute(&topo, r[3], |_| true);
        for &dst in &r {
            assert_eq!(repaired.distance(dst), recomputed.distance(dst));
            assert_eq!(repaired.next_hops(dst), recomputed.next_hops(dst));
            assert_eq!(repaired.path(dst), recomputed.path(dst));
        }
        assert!(spf.tree_avoiding(RouterId(99), crate::ids::LinkId(3)).is_none());
    }

    #[test]
    fn zero_cost_link_back_into_the_source_is_ignored() {
        // A -0- B -1- C: B sits at distance 0 from A, so relaxing B's
        // link back into A ties A's own distance. The source has no
        // first hops to merge into; the relaxation must be skipped.
        // From C, A's zero-cost link back into B ties B's distance
        // with a smaller predecessor; taking it would make A and B
        // each other's predecessor.
        let mut topo = Topology::new();
        let asn = AsNumber(65_003);
        let r: Vec<RouterId> = (0..3)
            .map(|i| {
                topo.add_router(
                    format!("z{i}"),
                    asn,
                    Vendor::Cisco,
                    Ipv4Addr::new(10, 253, 1, i + 1),
                )
            })
            .collect();
        topo.add_link(r[0], Ipv4Addr::new(10, 253, 2, 1), r[1], Ipv4Addr::new(10, 253, 2, 2), 0);
        topo.add_link(r[1], Ipv4Addr::new(10, 253, 3, 1), r[2], Ipv4Addr::new(10, 253, 3, 2), 1);
        let spf = DomainSpf::for_as(&topo, asn);
        assert_eq!(spf.distance(r[0], r[0]), Some(0));
        assert!(spf.next_hops(r[0], r[0]).is_empty());
        assert_eq!(spf.distance(r[0], r[1]), Some(0));
        assert_eq!(spf.distance(r[0], r[2]), Some(1));
        assert_eq!(spf.path(r[0], r[2]), Some(vec![r[0], r[1], r[2]]));
        assert_eq!(spf.path(r[2], r[0]), Some(vec![r[2], r[1], r[0]]));
    }

    #[test]
    fn ecmp_diamond_exposes_both_first_hops() {
        // A—B—D and A—C—D, all cost 1: two equal-cost first hops.
        let mut topo = Topology::new();
        let asn = AsNumber(65_002);
        let r: Vec<RouterId> = ["A", "B", "C", "D"]
            .iter()
            .enumerate()
            .map(|(i, n)| {
                topo.add_router(*n, asn, Vendor::Cisco, Ipv4Addr::new(10, 254, 1, (i + 1) as u8))
            })
            .collect();
        let pairs = [(0, 1), (0, 2), (1, 3), (2, 3)];
        for (k, (a, b)) in pairs.iter().enumerate() {
            topo.add_link(
                r[*a],
                Ipv4Addr::new(10, 254, k as u8 + 10, 1),
                r[*b],
                Ipv4Addr::new(10, 254, k as u8 + 10, 2),
                1,
            );
        }
        let tree = SpfTree::compute(&topo, r[0], |_| true);
        let hops = tree.next_hops(r[3]);
        assert_eq!(hops.len(), 2, "both equal-cost branches retained");
        let neighbours: Vec<RouterId> = hops.iter().map(|(_, n)| *n).collect();
        assert!(neighbours.contains(&r[1]) && neighbours.contains(&r[2]));
        // The primary is the deterministic tie-break winner and
        // next_hop() agrees with next_hops()[0].
        assert_eq!(tree.next_hop(r[3]), Some(hops[0]));
        // Unreachable targets expose an empty set.
        assert!(tree.next_hops(RouterId(99)).is_empty());
    }

    /// A hub router with `leaves` single-link neighbours, all cost 1.
    fn star(leaves: u32) -> (Topology, AsNumber, RouterId, Vec<RouterId>) {
        let mut topo = Topology::new();
        let asn = AsNumber(65_004);
        let hub = topo.add_router("hub", asn, Vendor::Cisco, Ipv4Addr::new(10, 252, 255, 1));
        let leaves: Vec<RouterId> = (0..leaves)
            .map(|i| {
                let leaf = topo.add_router(
                    format!("leaf{i}"),
                    asn,
                    Vendor::Cisco,
                    Ipv4Addr::from(0x0afd_0000 + i),
                );
                let link = 0x0afc_0000 + 4 * i;
                topo.add_link(hub, Ipv4Addr::from(link), leaf, Ipv4Addr::from(link + 1), 1);
                leaf
            })
            .collect();
        (topo, asn, hub, leaves)
    }

    #[test]
    fn a_router_with_254_adjacencies_reaches_its_last_edge() {
        let (topo, asn, hub, leaves) = star(254);
        let spf = DomainSpf::for_as(&topo, asn);
        for &leaf in &leaves {
            let (iface, next) = spf.next_hop(hub, leaf).expect("every leaf is adjacent");
            assert_eq!((topo.iface(iface).router, next), (hub, leaf));
        }
        let last = *leaves.last().unwrap();
        assert_eq!(spf.path(last, leaves[0]), Some(vec![last, hub, leaves[0]]));
    }

    #[test]
    #[should_panic(expected = "R0 has 255 in-domain adjacencies")]
    fn a_router_with_255_adjacencies_is_refused() {
        // ECMP sets index the hub's edges with 8 bits, below the
        // padding value.
        let (topo, asn, hub, _) = star(255);
        assert_eq!(hub, RouterId(0));
        DomainSpf::for_as(&topo, asn);
    }

    #[test]
    fn ecmp_sets_are_deterministic() {
        let (topo, r) = fig3_topology();
        let a = SpfTree::compute(&topo, r[3], |_| true);
        let b = SpfTree::compute(&topo, r[3], |_| true);
        for &dst in &r {
            assert_eq!(a.next_hops(dst), b.next_hops(dst));
        }
    }

    #[test]
    fn slot_queries_agree_with_router_queries() {
        let (topo, r) = fig3_topology();
        let spf = DomainSpf::for_members(&topo, &[r[0], r[1], r[3], r[4], r[6], r[7]]);
        assert_eq!(spf.slot(r[2]), None, "C is not a member");
        for &from in &r {
            for &to in &r {
                let (Some(a), Some(b)) = (spf.slot(from), spf.slot(to)) else {
                    continue;
                };
                assert_eq!(spf.members()[a], from);
                assert_eq!(spf.reaches(a, b), spf.distance(from, to).is_some());
                assert_eq!(
                    spf.next_hop_slot(a, b).map(|(iface, s)| (iface, spf.members()[s])),
                    spf.next_hop(from, to)
                );
            }
        }
    }

    #[test]
    fn all_pairs_agree_with_single_source() {
        let (topo, r) = fig3_topology();
        let spf = DomainSpf::for_as(&topo, AsNumber(65_001));
        for &from in &r {
            let tree = SpfTree::compute(&topo, from, |_| true);
            for &to in &r {
                assert_eq!(spf.distance(from, to), tree.distance(to));
            }
        }
    }
}

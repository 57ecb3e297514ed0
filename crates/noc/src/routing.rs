//! Route computation: XY dimension-order routing, table-driven routing
//! for the fault-avoidance (Ariadne-style) baseline, and topology-derived
//! tables ([`TopoRoutes`]) for tori and degraded meshes.

use noc_types::{Direction, Header, LinkId, Mesh, NodeId, Port, Topology};
use std::collections::VecDeque;

/// The routing function installed in every router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Routing {
    /// XY dimension-order routing (deadlock-free on a mesh; the paper's
    /// default, and the better performer under flood DoS at < 0.65
    /// injection).
    Xy,
    /// Per-router lookup tables: `tables[router][dest] = direction`.
    /// Used by the rerouting baseline after links are disabled.
    Table(RouteTables),
    /// Odd-even turn-model minimal adaptive routing (Chiu 2000):
    /// east-to-north/south turns are banned in even columns and
    /// north/south-to-west turns in odd columns, which breaks every
    /// channel-dependency cycle without VCs. At each hop the router picks
    /// among the legal minimal directions by downstream credit count —
    /// the "multiple adaptive algorithms" the paper compares XY against
    /// under flood DoS.
    OddEven,
    /// Topology-derived tables with per-hop VC classes: wrap-minimal
    /// dimension-order routing plus dateline VC classes on a torus,
    /// up*/down* shortest legal paths on a degraded mesh. Built by
    /// [`TopoRoutes::for_mesh`]; installed by the simulator whenever the
    /// configured [`Mesh`] is not a plain mesh.
    Topo(TopoRoutes),
}

/// The virtual-channel class a flit must allocate on its next hop.
///
/// On a torus, deadlock freedom comes from the **dateline** scheme: the
/// VC space is split into a low half (class 0) and a high half (class 1),
/// a ring's wrap link is always taken in class 1, and a flit that still
/// has the wrap ahead of it travels in class 0. Since the class is a pure
/// function of (current router, destination) it costs no per-flit state —
/// and therefore no snapshot bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VcClass {
    /// No class restriction (mesh, tables, odd-even).
    Any = 2,
    /// Dateline class 0: VCs `[0, vcs/2)`.
    Low = 0,
    /// Dateline class 1: VCs `[vcs/2, vcs)`.
    High = 1,
}

impl VcClass {
    /// Whether VC `vc` (of `vcs` total) belongs to this class.
    #[inline]
    pub fn admits(self, vc: u8, vcs: u8) -> bool {
        match self {
            VcClass::Any => true,
            VcClass::Low => vc < vcs / 2,
            VcClass::High => vc >= vcs / 2,
        }
    }
}

/// Table-driven routes, rebuilt whenever a link is declared dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTables {
    /// `next[router][dest]` — `None` when `dest` is unreachable.
    pub(crate) next: Vec<Vec<Option<Direction>>>,
}

/// A fixed-capacity set of legal output ports, best-default first, as
/// the per-cycle RC stage reads them from [`Routing::route_set`]. A mesh
/// router never has more than 4 candidates (one local port, or up to the
/// 4 network directions).
#[derive(Debug, Clone, Copy)]
pub struct RouteSet {
    ports: [Port; 4],
    len: u8,
}

impl RouteSet {
    fn new() -> Self {
        Self {
            ports: [Port::Local(0); 4],
            len: 0,
        }
    }

    fn push(&mut self, p: Port) {
        self.ports[self.len as usize] = p;
        self.len += 1;
    }

    /// The candidates, best-default first.
    pub fn as_slice(&self) -> &[Port] {
        &self.ports[..self.len as usize]
    }

    /// Whether no legal port exists.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Routing {
    /// Output port for a flit with header `h` standing at `node`.
    /// Local delivery uses the destination thread's local port. Adaptive
    /// functions return their first legal candidate here; congestion-aware
    /// selection goes through [`Routing::route_set`].
    pub fn route(&self, mesh: &Mesh, node: NodeId, h: &Header) -> Option<Port> {
        self.route_set(mesh, node, h).as_slice().first().copied()
    }

    /// All legal output ports for the flit, best-default first. XY and
    /// table routing are deterministic (one candidate); odd-even returns
    /// every direction the turn model allows so the router can pick the
    /// least congested.
    pub fn route_set(&self, mesh: &Mesh, node: NodeId, h: &Header) -> RouteSet {
        let mut set = RouteSet::new();
        if node == h.dest {
            set.push(Port::Local(h.thread % mesh.concentration()));
            return set;
        }
        match self {
            Routing::Xy => set.push(Port::Net(xy_direction(mesh, node, h.dest))),
            Routing::Table(t) => {
                if let Some(dir) = t.next[node.index()][h.dest.index()] {
                    set.push(Port::Net(dir));
                }
            }
            Routing::OddEven => {
                let (dirs, n) = odd_even_dirs(mesh, node, h.src, h.dest);
                for dir in &dirs[..n] {
                    set.push(Port::Net(*dir));
                }
            }
            Routing::Topo(t) => {
                if let Some(dir) = t.next[node.index()][h.dest.index()] {
                    set.push(Port::Net(dir));
                }
            }
        }
        set
    }

    /// The VC class a flit standing at `node` must allocate for its next
    /// hop toward `dest`. Only [`Routing::Topo`] on a torus restricts the
    /// class; every other routing function (and every hop of an up*/down*
    /// route, whose turn restrictions already break dependency cycles)
    /// admits any VC.
    #[inline]
    pub fn vc_class(&self, node: NodeId, dest: NodeId) -> VcClass {
        match self {
            Routing::Topo(t) => t.class(node, dest),
            _ => VcClass::Any,
        }
    }

    /// The routing function the simulator installs for a given fabric:
    /// XY on a plain mesh (bit-identical to the pre-topology simulator),
    /// topology tables otherwise.
    ///
    /// # Panics
    /// Panics when a degraded mesh is disconnected (no routing function
    /// can serve it).
    pub fn for_mesh(mesh: &Mesh) -> Routing {
        match mesh.topology() {
            Topology::Mesh => Routing::Xy,
            _ => Routing::Topo(
                TopoRoutes::for_mesh(mesh)
                    .expect("topology must be connected to build route tables"),
            ),
        }
    }
}

/// Topology-derived route tables with per-hop dateline VC classes.
///
/// * **Torus** — wrap-minimal dimension-order routing: correct X first
///   (shorter way around the ring, ties broken East), then Y (ties broken
///   North), with [`VcClass`] datelines making each unidirectional ring's
///   channel-dependency graph acyclic.
/// * **Degraded mesh** — up*/down* shortest legal paths over the surviving
///   adjacencies ([`RouteTables::build_updown`] on the degraded graph);
///   deadlock-free by turn restriction, so every hop is [`VcClass::Any`].
/// * **Plain mesh** — shortest-path tables (the simulator prefers
///   [`Routing::Xy`] here; the tables exist for tests and oracles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoRoutes {
    /// `next[router][dest]` — `None` when `dest` is unreachable.
    pub(crate) next: Vec<Vec<Option<Direction>>>,
    /// `class[router][dest]` encoded 0 = Low, 1 = High, 2 = Any.
    pub(crate) class: Vec<Vec<u8>>,
}

impl TopoRoutes {
    /// Build the route tables for `mesh`'s topology. Returns `None` when
    /// the graph is disconnected (possible only for degraded meshes).
    pub fn for_mesh(mesh: &Mesh) -> Option<Self> {
        let n = mesh.routers();
        match mesh.topology() {
            Topology::Torus => {
                let mut next = vec![vec![None; n]; n];
                let mut class = vec![vec![2u8; n]; n];
                for src in 0..n {
                    for dest in 0..n {
                        if src == dest {
                            continue;
                        }
                        let (at, d) = (NodeId(src as u16), NodeId(dest as u16));
                        let dir = torus_direction(mesh, at, d);
                        next[src][dest] = Some(dir);
                        class[src][dest] = torus_vc_class(mesh, at, d) as u8;
                    }
                }
                Some(Self { next, class })
            }
            Topology::Mesh | Topology::Degraded { .. } => {
                let tables = match mesh.topology() {
                    Topology::Mesh => {
                        let t = RouteTables::build(mesh, &[]);
                        t.fully_connected().then_some(t)?
                    }
                    _ => RouteTables::build_updown(mesh, &[])?,
                };
                let class = vec![vec![2u8; n]; n];
                Some(Self {
                    next: tables.next,
                    class,
                })
            }
        }
    }

    /// Reassemble from raw tables (snapshot decode).
    pub(crate) fn from_parts(next: Vec<Vec<Option<Direction>>>, class: Vec<Vec<u8>>) -> Self {
        Self { next, class }
    }

    /// The VC class for the hop out of `node` toward `dest`.
    #[inline]
    pub fn class(&self, node: NodeId, dest: NodeId) -> VcClass {
        match self.class[node.index()][dest.index()] {
            0 => VcClass::Low,
            1 => VcClass::High,
            _ => VcClass::Any,
        }
    }

    /// Whether every router can still reach every other.
    pub fn fully_connected(&self) -> bool {
        let n = self.next.len();
        (0..n).all(|r| (0..n).all(|d| r == d || self.next[r][d].is_some()))
    }
}

/// Wrap-minimal dimension-order direction on a torus: correct X before Y;
/// on each axis take the shorter way around the ring, breaking the exact
/// tie (half the ring either way) toward East / North. The choice is
/// stable along the route: moving the minimal way shrinks that way's
/// distance, so every downstream router picks the same direction.
pub fn torus_direction(mesh: &Mesh, node: NodeId, dest: NodeId) -> Direction {
    let (w, h) = (mesh.width() as i16, mesh.height() as i16);
    let here = mesh.coord_of(node);
    let there = mesh.coord_of(dest);
    if here.x != there.x {
        let east = (there.x as i16 - here.x as i16).rem_euclid(w);
        if east * 2 <= w {
            Direction::East
        } else {
            Direction::West
        }
    } else {
        let north = (there.y as i16 - here.y as i16).rem_euclid(h);
        if north * 2 <= h {
            Direction::North
        } else {
            Direction::South
        }
    }
}

/// Dateline VC class for the hop [`torus_direction`] picks at `node`.
///
/// Each unidirectional ring has one dateline: the wrap link (East out of
/// `x = W-1`, West out of `x = 0`, and the Y analogues). A route segment
/// that still has its ring's wrap link **ahead** of it travels in class 0;
/// the wrap link itself and everything after it travel in class 1. Both
/// facts are decidable from (node, dest) alone: going East, the remaining
/// path crosses the wrap iff `x_node > x_dest`.
///
/// Deadlock-freedom witness (per ring): a class-0 cycle would need the
/// wrap link in class 0, but the wrap link is always class 1; a class-1
/// cycle would need some flit to *enter* the wrap link from a class-1
/// non-wrap link, but any flit one hop before the wrap is still on the
/// crossing side and therefore class 0 (or starts at the dateline router
/// itself, where its first link is the wrap). Each flit's class is
/// monotone 0 → 1, X is fully corrected before Y, and the four rings of
/// an axis pair are link-disjoint — so the whole channel-dependency graph
/// is acyclic. The property test
/// `torus_channel_dependency_graph_is_acyclic` checks this exhaustively.
pub fn torus_vc_class(mesh: &Mesh, node: NodeId, dest: NodeId) -> VcClass {
    let (w, h) = (mesh.width(), mesh.height());
    let here = mesh.coord_of(node);
    let there = mesh.coord_of(dest);
    if here.x != there.x {
        match torus_direction(mesh, node, dest) {
            Direction::East => {
                // Crosses the x = W-1 → 0 seam iff walking East must pass
                // it, i.e. the destination column is numerically behind.
                if here.x > there.x && here.x != w - 1 {
                    VcClass::Low
                } else {
                    VcClass::High
                }
            }
            _ => {
                if here.x < there.x && here.x != 0 {
                    VcClass::Low
                } else {
                    VcClass::High
                }
            }
        }
    } else {
        match torus_direction(mesh, node, dest) {
            Direction::North => {
                if here.y > there.y && here.y != h - 1 {
                    VcClass::Low
                } else {
                    VcClass::High
                }
            }
            _ => {
                if here.y < there.y && here.y != 0 {
                    VcClass::Low
                } else {
                    VcClass::High
                }
            }
        }
    }
}

/// The unique link path a deterministic routing function sends a packet
/// along — the generalization of [`xy_path`] the conformance oracle and
/// trojan placement use on every topology.
///
/// # Panics
/// Panics on [`Routing::OddEven`] (adaptive: no unique path) and on
/// unroutable pairs.
pub fn route_path(mesh: &Mesh, routing: &Routing, src: NodeId, dest: NodeId) -> Vec<LinkId> {
    let mut path = Vec::new();
    let mut at = src;
    let mut hops = 0;
    while at != dest {
        let dir = match routing {
            Routing::Xy => xy_direction(mesh, at, dest),
            Routing::Table(t) => t.next[at.index()][dest.index()].expect("table routes the pair"),
            Routing::Topo(t) => {
                t.next[at.index()][dest.index()].expect("topology tables route the pair")
            }
            Routing::OddEven => panic!("odd-even is adaptive: no unique path"),
        };
        path.push(mesh.link_out(at, dir).expect("routed hop exists"));
        at = mesh.neighbor(at, dir).expect("routed hop exists");
        hops += 1;
        assert!(hops <= mesh.routers(), "routing cycle on {src:?}->{dest:?}");
    }
    path
}

/// Legal minimal directions under the odd-even turn model.
///
/// From Chiu's minimal route-candidate algorithm: eastbound packets may
/// only leave the current column northward/southward where a later
/// east-to-vertical turn would remain legal, and westbound packets may
/// only turn vertical in even columns (vertical-to-west turns are banned
/// in odd columns). At most two minimal directions are ever legal,
/// returned as `(buffer, count)`.
fn odd_even_dirs(mesh: &Mesh, node: NodeId, src: NodeId, dest: NodeId) -> ([Direction; 2], usize) {
    let cur = mesh.coord_of(node);
    let d = mesh.coord_of(dest);
    let s = mesh.coord_of(src);
    let dx = d.x as i16 - cur.x as i16;
    let dy = d.y as i16 - cur.y as i16;
    let vertical = |dy: i16| {
        if dy > 0 {
            Direction::North
        } else {
            Direction::South
        }
    };
    let mut out = [Direction::East; 2];
    let mut n = 0;
    let mut push = |dir: Direction| {
        out[n] = dir;
        n += 1;
    };
    if dx == 0 {
        // Same column: straight vertical is always legal.
        push(vertical(dy));
        return (out, n);
    }
    if dx > 0 {
        // Eastbound.
        if dy == 0 {
            push(Direction::East);
        } else {
            // A vertical move now implies an east-to-vertical turn happened
            // or will happen; it is legal only in odd columns (or at the
            // source column, where no turn has been taken yet).
            if cur.x % 2 == 1 || cur.x == s.x {
                push(vertical(dy));
            }
            // Going further east is legal unless the destination column is
            // even and exactly one hop away (the final EN/ES turn there
            // would be illegal).
            if d.x % 2 == 1 || dx != 1 {
                push(Direction::East);
            }
        }
    } else {
        // Westbound: west is always legal; verticals only in even columns
        // (NW/SW turns are banned in odd columns).
        push(Direction::West);
        if dy != 0 && cur.x.is_multiple_of(2) {
            push(vertical(dy));
        }
    }
    debug_assert!(n > 0, "odd-even must always offer a move");
    (out, n)
}

/// Classic XY: correct x first, then y.
pub fn xy_direction(mesh: &Mesh, node: NodeId, dest: NodeId) -> Direction {
    let here = mesh.coord_of(node);
    let there = mesh.coord_of(dest);
    if here.x != there.x {
        if there.x > here.x {
            Direction::East
        } else {
            Direction::West
        }
    } else if there.y > here.y {
        Direction::North
    } else {
        Direction::South
    }
}

/// Hops along the XY route from `src` to `dest` (for latency models).
pub fn xy_path(mesh: &Mesh, src: NodeId, dest: NodeId) -> Vec<LinkId> {
    let mut path = Vec::new();
    let mut at = src;
    while at != dest {
        let dir = xy_direction(mesh, at, dest);
        path.push(mesh.link_out(at, dir).expect("XY step exists on a mesh"));
        at = mesh.neighbor(at, dir).expect("XY step exists on a mesh");
    }
    path
}

impl RouteTables {
    /// Build shortest-path routes avoiding `dead` links by per-destination
    /// BFS. **Not deadlock-free in general** — the union of per-destination
    /// trees can close channel-dependency cycles. Use
    /// [`RouteTables::build_updown`] for the fault-tolerant baseline; this
    /// construction is kept for latency studies and unit tests on
    /// single-link failures (where XY-conformant detours dominate).
    pub fn build(mesh: &Mesh, dead: &[LinkId]) -> Self {
        let is_dead = |l: LinkId| dead.contains(&l);
        let n = mesh.routers();
        let mut next = vec![vec![None; n]; n];
        // BFS from each destination over *reverse* usable links.
        for dest in 0..n {
            let dest_node = NodeId(dest as u16);
            let mut dist = vec![u32::MAX; n];
            let mut q = VecDeque::new();
            dist[dest] = 0;
            q.push_back(dest_node);
            while let Some(at) = q.pop_front() {
                for dir in Direction::ALL {
                    // A neighbour `nb` routes to `at` via `dir.opposite()`
                    // using link nb→at; usable iff that link is alive.
                    if let Some(nb) = mesh.neighbor(at, dir) {
                        let link_nb_to_at = mesh
                            .link_out(nb, dir.opposite())
                            .expect("reverse link exists");
                        if is_dead(link_nb_to_at) {
                            continue;
                        }
                        if dist[nb.index()] == u32::MAX {
                            dist[nb.index()] = dist[at.index()] + 1;
                            next[nb.index()][dest] = Some(dir.opposite());
                            q.push_back(nb);
                        }
                    }
                }
            }
        }
        Self { next }
    }

    /// Build **up*/down*** routes avoiding `dead` links — the Ariadne-style
    /// deadlock-free reconfiguration. Routers are totally ordered by
    /// `(BFS level over the undirected alive graph, id)`; a directed hop is
    /// *up* when it decreases that order. Every route climbs zero or more
    /// up-links, then descends zero or more down-links; since no route ever
    /// takes a down→up turn, the channel dependency graph is acyclic and
    /// the network cannot deadlock on routing.
    ///
    /// Per destination `d`, let `h(r)` be the shortest all-down distance
    /// and `f(r)` the shortest legal (up\* down\*) distance. The next hop
    /// is chosen by the rule *"go down when `f(r) == h(r)`, else go up
    /// toward `argmin f`"*. This rule is self-consistent even though the
    /// table is keyed only by (router, dest): if `r` goes down to `n` on a
    /// shortest all-down path and `n` preferred a shorter up-containing
    /// path, then `f(r) ≤ 1 + f(n) < 1 + h(n) = h(r) = f(r)` — a
    /// contradiction — so `n` continues downward too.
    ///
    /// Every table hop lowers `f` by exactly one — an up hop goes to a
    /// neighbour with `f − 1`, and a down hop keeps `f == h` by the
    /// argument above — so the walked length of every route is `f(src)`,
    /// and an orientation's total path length is Σ `f`, summed inside the
    /// DP instead of re-walking all n² routes. The alive adjacency is
    /// tabulated once per call, and every root reuses the same buffers.
    ///
    /// Returns `None` when some pair has no legal path (e.g. `dead`
    /// disconnects the mesh).
    pub fn build_updown(mesh: &Mesh, dead: &[LinkId]) -> Option<Self> {
        // The root fixes the up/down orientation; an orientation can be
        // infeasible for a given asymmetric failure set even though
        // another one routes it (a node whose only alive exits point
        // "down" can never climb). Try every root and keep the feasible
        // orientation with the smallest total path length — the first
        // one on a tie, so a root is abandoned as soon as its partial
        // total plus a floor under the remaining destinations reaches the
        // best total so far.
        let mut b = UpDown::new(mesh, dead);
        let mut best: Option<(u32, Self)> = None;
        for root in 0..mesh.routers() as u16 {
            let bound = best.as_ref().map_or(u32::MAX, |(total, _)| *total);
            let Some(total) = b.route_rooted(NodeId(root), bound) else {
                continue;
            };
            let tables = Self {
                next: b.next.clone(),
            };
            debug_assert_eq!(total, tables.walked_total(mesh), "Σ f is the walked total");
            debug_assert!({
                let n = mesh.routers() as u16;
                let up = |a: NodeId, c: NodeId| b.rank[c.index()] < b.rank[a.index()];
                (0..n)
                    .all(|s| (0..n).all(|d| tables.walk_is_legal(mesh, NodeId(s), NodeId(d), &up)))
            });
            best = Some((total, tables));
        }
        best.map(|(_, t)| t)
    }

    /// Total walked path length over every ordered pair — the root score
    /// [`RouteTables::build_updown`] computes as Σ `f` instead.
    fn walked_total(&self, mesh: &Mesh) -> u32 {
        let n = mesh.routers() as u16;
        (0..n)
            .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
            .map(|(s, d)| {
                self.path_len(mesh, NodeId(s), NodeId(d))
                    .unwrap_or(u32::MAX / 256)
            })
            .sum()
    }

    /// Check one route walk: terminates within `n` hops and never takes an
    /// up-hop after a down-hop.
    fn walk_is_legal(
        &self,
        mesh: &Mesh,
        src: NodeId,
        dest: NodeId,
        is_up: &impl Fn(NodeId, NodeId) -> bool,
    ) -> bool {
        if src == dest {
            return true;
        }
        let mut at = src;
        let mut up_ok = true;
        for _ in 0..mesh.routers() {
            let Some(dir) = self.next[at.index()][dest.index()] else {
                return false;
            };
            let Some(nb) = mesh.neighbor(at, dir) else {
                return false;
            };
            let hop_up = is_up(at, nb);
            if hop_up && !up_ok {
                return false;
            }
            up_ok = up_ok && hop_up;
            at = nb;
            if at == dest {
                return true;
            }
        }
        false
    }

    /// Whether every router can still reach every other.
    pub fn fully_connected(&self) -> bool {
        let n = self.next.len();
        (0..n).all(|r| (0..n).all(|d| r == d || self.next[r][d].is_some()))
    }

    /// Path length from `src` to `dest`, or `None` if unreachable.
    pub fn path_len(&self, mesh: &Mesh, src: NodeId, dest: NodeId) -> Option<u32> {
        let mut at = src;
        let mut hops = 0;
        while at != dest {
            let dir = self.next[at.index()][dest.index()]?;
            at = mesh.neighbor(at, dir)?;
            hops += 1;
            if hops > mesh.routers() as u32 {
                return None; // would be a cycle — must not happen
            }
        }
        Some(hops)
    }
}

/// The up*/down* builder's working set for one [`RouteTables::build_updown`]
/// call: the alive adjacency, hoisted out of the per-root loops, and the
/// per-root and per-destination buffers every root reuses.
struct UpDown {
    /// `out[r][k]`: the neighbour `r` reaches over its alive
    /// `Direction::ALL[k]` link.
    out: Vec<[Option<NodeId>; 4]>,
    /// `inbound[r][k]`: the neighbour in `Direction::ALL[k]` whose alive
    /// link leads back into `r`.
    inbound: Vec<[Option<NodeId>; 4]>,
    /// BFS level from the current root over the undirected alive graph.
    level: Vec<u32>,
    /// Routers sorted by `(level, id)`, and each router's position in
    /// that order: a hop `r → nb` is *up* iff `rank[nb] < rank[r]`.
    by_order: Vec<NodeId>,
    rank: Vec<u32>,
    /// Shortest all-down (`h`) and legal (`f`) distance to the current
    /// destination.
    h: Vec<u32>,
    f: Vec<u32>,
    queue: VecDeque<NodeId>,
    /// The current root's `next[router][dest]` table.
    next: Vec<Vec<Option<Direction>>>,
    /// `floor[d]`: Σ over destinations `d' ≥ d` of every router's
    /// shortest alive distance to `d'` — a root-independent lower bound
    /// on what those destinations add to any orientation's Σ `f`.
    floor: Vec<u32>,
}

impl UpDown {
    fn new(mesh: &Mesh, dead: &[LinkId]) -> Self {
        let n = mesh.routers();
        let alive = |r: NodeId, dir: Direction| -> Option<NodeId> {
            let l = mesh.link_out(r, dir)?;
            if dead.contains(&l) {
                return None;
            }
            mesh.neighbor(r, dir)
        };
        let nodes = || (0..n as u16).map(NodeId);
        let inbound: Vec<[Option<NodeId>; 4]> = nodes()
            .map(|r| {
                Direction::ALL.map(|dir| {
                    mesh.neighbor(r, dir)
                        .filter(|&nb| alive(nb, dir.opposite()) == Some(r))
                })
            })
            .collect();
        // Unrestricted shortest distances into each destination (BFS over
        // reversed alive links), summed from the last destination back.
        let mut floor = vec![0u32; n];
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::with_capacity(n);
        let mut rest = 0u32;
        for d in (0..n).rev() {
            dist.fill(u32::MAX);
            dist[d] = 0;
            queue.push_back(NodeId(d as u16));
            while let Some(at) = queue.pop_front() {
                for r in inbound[at.index()].into_iter().flatten() {
                    if dist[r.index()] == u32::MAX {
                        dist[r.index()] = dist[at.index()] + 1;
                        rest += dist[r.index()];
                        queue.push_back(r);
                    }
                }
            }
            floor[d] = rest;
        }
        Self {
            out: nodes()
                .map(|r| Direction::ALL.map(|dir| alive(r, dir)))
                .collect(),
            inbound,
            level: vec![u32::MAX; n],
            by_order: nodes().collect(),
            rank: vec![0; n],
            h: dist,
            f: vec![u32::MAX; n],
            queue,
            next: vec![vec![None; n]; n],
            floor,
        }
    }

    /// One up*/down* construction with a fixed orientation root, written
    /// into `self.next`. Returns the orientation's total path length Σ `f`,
    /// or `None` when some pair has no legal path or the total cannot stay
    /// below `bound`.
    fn route_rooted(&mut self, root: NodeId, bound: u32) -> Option<u32> {
        let Self {
            out,
            inbound,
            level,
            by_order,
            rank,
            h,
            f,
            queue,
            next,
            floor,
        } = self;
        let n = out.len();
        // Levels over the undirected union graph (either direction alive).
        level.fill(u32::MAX);
        level[root.index()] = 0;
        queue.push_back(root);
        while let Some(at) = queue.pop_front() {
            for k in 0..4 {
                let Some(nb) = out[at.index()][k].or(inbound[at.index()][k]) else {
                    continue;
                };
                if level[nb.index()] == u32::MAX {
                    level[nb.index()] = level[at.index()] + 1;
                    queue.push_back(nb);
                }
            }
        }
        if level.contains(&u32::MAX) {
            return None;
        }
        // Process nodes in ascending order so `f` of up-neighbours (which
        // are strictly smaller in the order) is final before it is used.
        by_order.sort_unstable_by_key(|r| (level[r.index()], r.0));
        for (i, r) in by_order.iter().enumerate() {
            rank[r.index()] = i as u32;
        }

        let mut total = 0u32;
        for dest in 0..n {
            if total + floor[dest] >= bound {
                return None;
            }
            let d = NodeId(dest as u16);
            // h: shortest all-down distance to d — BFS from d over
            // *reversed* down-links (r→nb is down iff rank[nb] > rank[r]).
            h.fill(u32::MAX);
            h[dest] = 0;
            queue.push_back(d);
            while let Some(at) = queue.pop_front() {
                // Predecessors r with a down-link r→at.
                for r in inbound[at.index()].into_iter().flatten() {
                    if rank[at.index()] > rank[r.index()] && h[r.index()] == u32::MAX {
                        h[r.index()] = h[at.index()] + 1;
                        queue.push_back(r);
                    }
                }
            }
            // f: shortest legal distance, by DP in ascending node order
            // (up-neighbours are smaller, so their f is already final).
            f.fill(u32::MAX);
            f[dest] = 0;
            for r in by_order.iter() {
                if *r == d {
                    continue;
                }
                let mut best = h[r.index()];
                for nb in out[r.index()].into_iter().flatten() {
                    if rank[nb.index()] < rank[r.index()] && f[nb.index()] != u32::MAX {
                        best = best.min(1 + f[nb.index()]);
                    }
                }
                f[r.index()] = best;
            }
            for src in 0..n {
                if src == dest {
                    continue;
                }
                let fr = f[src];
                if fr == u32::MAX {
                    return None; // no legal path
                }
                total += fr;
                let exits = out[src];
                let pick = if fr == h[src] {
                    // Continue the all-down path.
                    (0..4).find(|&k| {
                        exits[k].is_some_and(|nb| {
                            rank[nb.index()] > rank[src]
                                && h[nb.index()] != u32::MAX
                                && 1 + h[nb.index()] == h[src]
                        })
                    })
                } else {
                    // Climb toward the best legal distance.
                    (0..4).find(|&k| {
                        exits[k].is_some_and(|nb| {
                            rank[nb.index()] < rank[src]
                                && f[nb.index()] != u32::MAX
                                && 1 + f[nb.index()] == fr
                        })
                    })
                };
                let k = pick.expect("finite f implies a witness hop");
                next[src][dest] = Some(Direction::ALL[k]);
            }
        }
        (total < bound).then_some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Coord, VcId};

    fn hdr(dest: u16, thread: u8) -> Header {
        Header {
            src: NodeId(0),
            dest: NodeId(dest),
            vc: VcId(0),
            mem_addr: 0,
            thread,
            len: 1,
        }
    }

    #[test]
    fn xy_corrects_x_before_y() {
        let m = Mesh::paper();
        // Router 0 is (0,0); router 15 is (3,3).
        assert_eq!(xy_direction(&m, NodeId(0), NodeId(15)), Direction::East);
        // Router 3 is (3,0): x aligned with 15, go north.
        assert_eq!(xy_direction(&m, NodeId(3), NodeId(15)), Direction::North);
        assert_eq!(xy_direction(&m, NodeId(15), NodeId(0)), Direction::West);
        assert_eq!(xy_direction(&m, NodeId(12), NodeId(0)), Direction::South);
    }

    #[test]
    fn xy_path_length_is_manhattan_distance() {
        let m = Mesh::paper();
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                let path = xy_path(&m, NodeId(s), NodeId(d));
                assert_eq!(path.len() as u32, m.hop_distance(NodeId(s), NodeId(d)));
            }
        }
    }

    #[test]
    fn local_delivery_picks_thread_port() {
        let m = Mesh::paper();
        let r = Routing::Xy;
        assert_eq!(r.route(&m, NodeId(5), &hdr(5, 6)), Some(Port::Local(6 % 4)));
    }

    #[test]
    fn tables_match_xy_lengths_when_no_links_dead() {
        let m = Mesh::paper();
        let t = RouteTables::build(&m, &[]);
        assert!(t.fully_connected());
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                assert_eq!(
                    t.path_len(&m, NodeId(s), NodeId(d)),
                    Some(m.hop_distance(NodeId(s), NodeId(d))),
                    "{s}->{d}"
                );
            }
        }
    }

    #[test]
    fn tables_detour_around_a_dead_link() {
        let m = Mesh::paper();
        // Kill the eastward link out of router 0 ((0,0) → (1,0)).
        let dead = m.link_out(NodeId(0), Direction::East).unwrap();
        let t = RouteTables::build(&m, &[dead]);
        assert!(t.fully_connected());
        // 0 → 1 is now 3 hops (e.g. north, east, south).
        assert_eq!(t.path_len(&m, NodeId(0), NodeId(1)), Some(3));
        // Routes from 1 back to 0 are unaffected (reverse link alive).
        assert_eq!(t.path_len(&m, NodeId(1), NodeId(0)), Some(1));
    }

    #[test]
    fn tables_report_disconnection() {
        let m = Mesh::new(2, 1, 1); // two routers, one link each way
        let dead = m.link_out(NodeId(0), Direction::East).unwrap();
        let t = RouteTables::build(&m, &[dead]);
        assert!(!t.fully_connected());
        assert_eq!(t.path_len(&m, NodeId(0), NodeId(1)), None);
        assert_eq!(t.path_len(&m, NodeId(1), NodeId(0)), Some(1));
    }

    #[test]
    fn table_routing_via_route_api() {
        let m = Mesh::paper();
        let t = RouteTables::build(&m, &[]);
        let r = Routing::Table(t);
        let p = r.route(&m, NodeId(0), &hdr(3, 0));
        assert_eq!(p, Some(Port::Net(Direction::East)));
    }

    #[test]
    fn corner_to_corner_path_is_along_edges() {
        let m = Mesh::paper();
        let path = xy_path(&m, m.node_at(Coord::new(0, 0)), m.node_at(Coord::new(3, 3)));
        assert_eq!(path.len(), 6);
    }

    #[test]
    fn updown_with_no_dead_links_is_connected_and_near_minimal() {
        let m = Mesh::paper();
        let t = RouteTables::build_updown(&m, &[]).expect("connected");
        assert!(t.fully_connected());
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                let len = t.path_len(&m, NodeId(s), NodeId(d)).expect("reachable");
                let min = m.hop_distance(NodeId(s), NodeId(d));
                // Up*/down* may inflate some pairs, but never pathologically
                // on a healthy 4×4 mesh.
                assert!(len >= min && len <= min + 6, "{s}->{d}: {len} vs {min}");
            }
        }
    }

    /// Walk every pair through the tables: terminates within 16 hops and
    /// never uses a dead link.
    fn assert_walks_sound(m: &Mesh, t: &RouteTables, dead: &[LinkId]) {
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                let mut at = NodeId(s);
                let mut hops = 0;
                while at != NodeId(d) {
                    let dir = t.next[at.index()][d as usize].expect("route exists");
                    let link = m.link_out(at, dir).unwrap();
                    assert!(!dead.contains(&link), "route used a dead link");
                    at = m.neighbor(at, dir).unwrap();
                    hops += 1;
                    assert!(hops <= 16, "cycle in up*/down* tables");
                }
            }
        }
    }

    #[test]
    fn updown_survives_scattered_dead_links() {
        let m = Mesh::paper();
        // Several deterministic failure sets; each must either be declared
        // infeasible (no orientation routes it) or produce sound tables.
        // Most must route — the paper's infection fractions are mild.
        let mut routable = 0;
        let mut tried = 0;
        for stride in [5u16, 9, 11, 13, 17] {
            let dead: Vec<LinkId> = m
                .all_links()
                .filter(|l| l.0 % stride == 1)
                .take(7)
                .collect();
            tried += 1;
            if let Some(t) = RouteTables::build_updown(&m, &dead) {
                routable += 1;
                assert!(t.fully_connected());
                assert_walks_sound(&m, &t, &dead);
            }
        }
        assert!(routable * 2 >= tried, "{routable}/{tried} sets routable");
    }

    #[test]
    fn updown_routes_never_turn_down_then_up() {
        let m = Mesh::paper();
        let dead: Vec<LinkId> = m.all_links().filter(|l| l.0 % 9 == 1).take(5).collect();
        // Find the first feasible orientation root (same scan order as the
        // public builder) so the legality check below can recompute
        // exactly the order the builder used.
        let mut b = UpDown::new(&m, &dead);
        let (root, t) = (0..16u16)
            .find_map(|r| {
                b.route_rooted(NodeId(r), u32::MAX)?;
                let next = b.next.clone();
                Some((NodeId(r), RouteTables { next }))
            })
            .expect("some orientation must route this mild failure set");
        assert_walks_sound(&m, &t, &dead);
        // Recompute the (level, id) order over the undirected union graph.
        let alive = |r: NodeId, dir: Direction| -> Option<NodeId> {
            let l = m.link_out(r, dir)?;
            if dead.contains(&l) {
                return None;
            }
            m.neighbor(r, dir)
        };
        let mut level = [u32::MAX; 16];
        let mut q = std::collections::VecDeque::new();
        level[root.index()] = 0;
        q.push_back(root);
        while let Some(at) = q.pop_front() {
            for dir in Direction::ALL {
                let Some(nb) = m.neighbor(at, dir) else {
                    continue;
                };
                let usable = alive(at, dir).is_some() || alive(nb, dir.opposite()).is_some();
                if usable && level[nb.index()] == u32::MAX {
                    level[nb.index()] = level[at.index()] + 1;
                    q.push_back(nb);
                }
            }
        }
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                let mut at = NodeId(s);
                let mut up_ok = true;
                let mut hops = 0;
                while at != NodeId(d) {
                    let dir = t.next[at.index()][d as usize].expect("route");
                    let nb = m.neighbor(at, dir).unwrap();
                    let hop_up = (level[nb.index()], nb.0) < (level[at.index()], at.0);
                    assert!(
                        !hop_up || up_ok,
                        "illegal down-then-up turn on route {s}->{d} at {at:?}"
                    );
                    up_ok = up_ok && hop_up;
                    at = nb;
                    hops += 1;
                    assert!(hops <= 16);
                }
            }
        }
    }

    /// The Σ `path_len` root scorer: build every feasible orientation in
    /// full, walk all n² routes, keep the first minimum.
    fn build_updown_reference(mesh: &Mesh, dead: &[LinkId]) -> Option<RouteTables> {
        let mut b = UpDown::new(mesh, dead);
        (0..mesh.routers() as u16)
            .filter_map(|root| {
                b.route_rooted(NodeId(root), u32::MAX)?;
                let t = RouteTables {
                    next: b.next.clone(),
                };
                Some((t.walked_total(mesh), t))
            })
            .min_by_key(|(total, _)| *total)
            .map(|(_, t)| t)
    }

    #[test]
    fn updown_dp_scoring_matches_the_walked_reference() {
        // Deterministic xorshift stream of degraded meshes (4×4 to 8×8,
        // concentration 1/2/4) with random single-direction dead links.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut routed, mut with_infeasible_root) = (0, 0);
        for case in 0..48 {
            let (w, h) = (4 + rand(5) as u8, 4 + rand(5) as u8);
            let c = [1u8, 2, 4][rand(3) as usize];
            let base = Mesh::new(w, h, c);
            let removed: Vec<(NodeId, Direction)> = (0..1 + rand(3))
                .map(|_| {
                    let node = NodeId(rand(base.routers() as u64) as u16);
                    let dir = [Direction::East, Direction::North][rand(2) as usize];
                    (node, dir)
                })
                .filter(|&(node, dir)| base.neighbor(node, dir).is_some())
                .collect();
            let mesh = Mesh::new_degraded(w, h, c, &removed);
            if !mesh.connected() {
                continue;
            }
            let dead: Vec<LinkId> = (0..rand(6))
                .map(|_| LinkId(rand(mesh.links() as u64) as u16))
                .collect();
            let got = RouteTables::build_updown(&mesh, &dead);
            assert_eq!(
                got,
                build_updown_reference(&mesh, &dead),
                "case {case}: {w}x{h}x{c}, removed {removed:?}, dead {dead:?}"
            );
            if got.is_some() {
                routed += 1;
                let mut b = UpDown::new(&mesh, &dead);
                let n = mesh.routers() as u16;
                if (0..n).any(|r| b.route_rooted(NodeId(r), u32::MAX).is_none()) {
                    with_infeasible_root += 1;
                }
            }
        }
        assert!(routed >= 24, "only {routed} routable cases");
        assert!(
            with_infeasible_root > 0,
            "no case exercised an infeasible orientation root"
        );
    }

    #[test]
    fn odd_even_candidates_are_minimal_and_legal() {
        let m = Mesh::paper();
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                let src = NodeId(s);
                let dest = NodeId(d);
                let (dirs, n) = odd_even_dirs(&m, src, src, dest);
                assert!(n > 0, "{s}->{d}");
                for &dir in &dirs[..n] {
                    // Minimal: every candidate reduces the distance.
                    let nb = m.neighbor(src, dir).expect("minimal move exists");
                    assert_eq!(
                        m.hop_distance(nb, dest) + 1,
                        m.hop_distance(src, dest),
                        "{s}->{d} via {dir:?} is not minimal"
                    );
                }
            }
        }
    }

    #[test]
    fn odd_even_turn_restrictions_hold_along_every_walk() {
        // Walk a greedy route (always the first candidate) for every pair
        // and check no banned turn appears: EN/ES in even columns, NW/SW
        // in odd columns.
        let m = Mesh::paper();
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                let src = NodeId(s);
                let dest = NodeId(d);
                let mut at = src;
                let mut prev: Option<Direction> = None;
                let mut hops = 0;
                while at != dest {
                    let dir = odd_even_dirs(&m, at, src, dest).0[0];
                    let col = m.coord_of(at).x;
                    if let Some(p) = prev {
                        let en_es = p == Direction::East
                            && (dir == Direction::North || dir == Direction::South);
                        let nw_sw = (p == Direction::North || p == Direction::South)
                            && dir == Direction::West;
                        assert!(
                            !(en_es && col.is_multiple_of(2)),
                            "EN/ES in even column {col}"
                        );
                        assert!(!(nw_sw && col % 2 == 1), "NW/SW in odd column {col}");
                    }
                    prev = Some(dir);
                    at = m.neighbor(at, dir).unwrap();
                    hops += 1;
                    assert!(hops <= 6, "odd-even walk exceeded minimal length");
                }
            }
        }
    }

    #[test]
    fn odd_even_offers_path_diversity_where_xy_does_not() {
        let m = Mesh::paper();
        // 0 → 15 (corner to corner): odd-even can spread over multiple
        // minimal directions at intermediate odd columns.
        let h = Header {
            src: NodeId(0),
            dest: NodeId(15),
            vc: VcId(0),
            mem_addr: 0,
            thread: 0,
            len: 1,
        };
        let r = Routing::OddEven;
        let at_odd_col = m.node_at(Coord::new(1, 0));
        let cands = r.route_set(&m, at_odd_col, &h);
        assert!(cands.as_slice().len() >= 2, "diversity expected: {cands:?}");
        assert_eq!(
            Routing::Xy.route_set(&m, at_odd_col, &h).as_slice().len(),
            1
        );
    }

    #[test]
    fn updown_detects_disconnection() {
        let m = Mesh::new(2, 1, 1);
        let dead: Vec<LinkId> = m.all_links().collect();
        assert!(RouteTables::build_updown(&m, &dead).is_none());
    }

    #[test]
    fn torus_direction_is_wrap_minimal_with_east_north_ties() {
        let t = Mesh::new_torus(4, 4, 1);
        // (0,0) → (3,0): one wrap hop West beats three hops East.
        assert_eq!(torus_direction(&t, NodeId(0), NodeId(3)), Direction::West);
        // (0,0) → (2,0): exact tie (2 either way) breaks East.
        assert_eq!(torus_direction(&t, NodeId(0), NodeId(2)), Direction::East);
        // X corrected before Y: (0,0) → (3,3) goes West first.
        assert_eq!(torus_direction(&t, NodeId(0), NodeId(15)), Direction::West);
        // Aligned column: (1,0) → (1,3) is one wrap hop South.
        assert_eq!(torus_direction(&t, NodeId(1), NodeId(13)), Direction::South);
    }

    #[test]
    fn torus_routes_terminate_and_are_wrap_minimal() {
        for (w, h) in [(4u8, 4u8), (3, 5), (2, 4)] {
            let t = Mesh::new_torus(w, h, 1);
            let r = Routing::for_mesh(&t);
            assert!(matches!(r, Routing::Topo(_)));
            let n = t.routers() as u16;
            for s in 0..n {
                for d in 0..n {
                    if s == d {
                        continue;
                    }
                    let path = route_path(&t, &r, NodeId(s), NodeId(d));
                    assert_eq!(
                        path.len() as u32,
                        t.hop_distance(NodeId(s), NodeId(d)),
                        "{w}x{h}: {s}->{d}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_dateline_class_is_monotone_and_wrap_is_high() {
        let t = Mesh::new_torus(4, 4, 1);
        let r = Routing::for_mesh(&t);
        let n = t.routers() as u16;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let mut at = NodeId(s);
                // Class must be monotone Low → High within each
                // dimension's segment of the route (the X prefix, then
                // the Y suffix; Y may legitimately restart at Low).
                let mut high = [false; 2];
                while at != NodeId(d) {
                    let class = r.vc_class(at, NodeId(d));
                    assert_ne!(class, VcClass::Any, "torus hops carry a class");
                    let dir = torus_direction(&t, at, NodeId(d));
                    let nb = t.neighbor(at, dir).unwrap();
                    let (ca, cb) = (t.coord_of(at), t.coord_of(nb));
                    // Wrap hops (coordinate jumps across the seam) are
                    // always class 1.
                    if ca.x.abs_diff(cb.x) > 1 || ca.y.abs_diff(cb.y) > 1 {
                        assert_eq!(class, VcClass::High, "{s}->{d} wrap at {at:?}");
                    }
                    let dim = usize::from(ca.x == cb.x); // 0 = X hop, 1 = Y hop
                    if high[dim] {
                        assert_eq!(
                            class,
                            VcClass::High,
                            "{s}->{d}: class fell back to Low at {at:?}"
                        );
                    }
                    high[dim] |= class == VcClass::High;
                    at = nb;
                }
            }
        }
    }

    #[test]
    fn degraded_mesh_routes_avoid_removed_adjacencies() {
        let d = Mesh::new_degraded(
            4,
            4,
            1,
            &[(NodeId(5), Direction::East), (NodeId(9), Direction::North)],
        );
        let r = Routing::for_mesh(&d);
        let n = d.routers() as u16;
        for s in 0..n {
            for dd in 0..n {
                if s == dd {
                    continue;
                }
                // route_path itself asserts every hop's link exists on the
                // degraded graph — a removed adjacency has no LinkId.
                let path = route_path(&d, &r, NodeId(s), NodeId(dd));
                assert!(!path.is_empty());
            }
        }
    }

    #[test]
    fn vc_class_partition_covers_the_vc_space() {
        for vcs in [2u8, 3, 4, 8] {
            for v in 0..vcs {
                assert!(VcClass::Any.admits(v, vcs));
                assert_ne!(
                    VcClass::Low.admits(v, vcs),
                    VcClass::High.admits(v, vcs),
                    "vc {v} of {vcs} must belong to exactly one dateline class"
                );
            }
            assert!(VcClass::High.admits(vcs - 1, vcs));
            assert!(VcClass::Low.admits(0, vcs));
        }
    }

    #[test]
    fn route_path_matches_xy_path_on_a_plain_mesh() {
        let m = Mesh::paper();
        for s in 0..16u16 {
            for d in 0..16u16 {
                if s == d {
                    continue;
                }
                assert_eq!(
                    route_path(&m, &Routing::Xy, NodeId(s), NodeId(d)),
                    xy_path(&m, NodeId(s), NodeId(d))
                );
            }
        }
    }
}

//! Mesh geometry: coordinates, directions, ports, and link numbering.
//!
//! The evaluation platform is a `k × k` 2-D mesh (4×4 in the paper) with a
//! concentration factor `c` (4 cores per router). Every adjacent router pair
//! is joined by **two unidirectional links**, one per direction; [`Mesh`]
//! assigns each a stable [`LinkId`] so trojans, fault injectors, and
//! statistics can all name "the +x link out of router 5" unambiguously.

use crate::ids::{CoreId, LinkId, NodeId};

/// A router position in the mesh. `x` grows eastward, `y` grows northward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (grows eastward).
    pub x: u8,
    /// Row (grows northward).
    pub y: u8,
}

impl Coord {
    #[inline]
    /// A new coordinate.
    pub fn new(x: u8, y: u8) -> Self {
        Self { x, y }
    }

    /// Manhattan (hop) distance between two router positions.
    #[inline]
    pub fn manhattan(self, other: Coord) -> u32 {
        self.x.abs_diff(other.x) as u32 + self.y.abs_diff(other.y) as u32
    }
}

/// One of the four mesh directions. The paper labels these ±x / ±y; we use
/// compass names with East = +x and North = +y.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// Toward +x.
    #[default]
    East,
    /// Toward -x.
    West,
    /// Toward +y.
    North,
    /// Toward -y.
    South,
}

impl Direction {
    /// All directions in a fixed iteration order (matches port numbering).
    pub const ALL: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::North,
        Direction::South,
    ];

    /// The direction a flit travels on the reverse link.
    #[inline]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
        }
    }

    /// Unit step in this direction as `(dx, dy)`.
    #[inline]
    pub fn delta(self) -> (i8, i8) {
        match self {
            Direction::East => (1, 0),
            Direction::West => (-1, 0),
            Direction::North => (0, 1),
            Direction::South => (0, -1),
        }
    }

    /// Stable small index (used for port arrays).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::North => 2,
            Direction::South => 3,
        }
    }
}

/// A router port: either one of the four network directions or a local
/// (core injection/ejection) port. With concentration 4 each router has four
/// local ports, indexed `0..4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Network port facing the given direction.
    Net(Direction),
    /// Local port for the `n`-th concentrated core on this router.
    Local(u8),
}

/// Port 0, the East network port.
impl Default for Port {
    fn default() -> Self {
        Port::Net(Direction::East)
    }
}

impl Port {
    /// Dense index for port arrays: network ports first (0..4), then locals.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Port::Net(d) => d.index(),
            Port::Local(n) => 4 + n as usize,
        }
    }

    /// Inverse of [`Port::index`].
    #[inline]
    pub fn from_index(i: usize) -> Port {
        match i {
            0 => Port::Net(Direction::East),
            1 => Port::Net(Direction::West),
            2 => Port::Net(Direction::North),
            3 => Port::Net(Direction::South),
            n => Port::Local((n - 4) as u8),
        }
    }

    /// Whether this is a local (core) port.
    #[inline]
    pub fn is_local(self) -> bool {
        matches!(self, Port::Local(_))
    }
}

/// The connection rule of the network fabric: which router pairs share a
/// link. The [`Mesh`] struct carries one of these; everything downstream
/// (link numbering, routing, shard planning) derives from the neighbour
/// relation it induces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Plain 2-D mesh: neighbours clipped at the boundary (the paper's
    /// evaluation platform).
    Mesh,
    /// 2-D torus: every row and column wraps around, so each router has
    /// all four neighbours. Deadlock-free routing on a torus needs the
    /// dateline VC scheme (see `noc-sim`'s `TopoRoutes`), which requires
    /// at least 2 virtual channels.
    Torus,
    /// A mesh with some adjacencies statically removed — the shape a
    /// post-quarantine network actually has. Removal is **symmetric**
    /// (both unidirectional links of an adjacency go away together), and
    /// each removed adjacency is stored in canonical form: the endpoint
    /// the East/North link leaves from, sorted and deduplicated.
    Degraded {
        /// Canonical removed adjacencies as `(node, East | North)`.
        removed: Vec<(NodeId, Direction)>,
    },
}

/// Geometry of a concentrated 2-D network.
///
/// Link numbering: for every router in row-major order and every direction in
/// [`Direction::ALL`] order, the outgoing link (if the neighbour exists) gets
/// the next [`LinkId`]. A 4×4 mesh therefore has 48 links, ids `0..48`; a
/// 4×4 torus has 64 (every router keeps all four neighbours).
#[derive(Clone, PartialEq, Eq)]
pub struct Mesh {
    width: u8,
    height: u8,
    concentration: u8,
    /// `link_ids[router][direction] == Some(id)` when the neighbour exists.
    link_ids: Vec<[Option<LinkId>; 4]>,
    /// Reverse map: link id → (source router, direction).
    link_ends: Vec<(NodeId, Direction)>,
    /// The connection rule the neighbour table was built from.
    topology: Topology,
    /// Precomputed `neighbors[router][direction]` under `topology`.
    neighbors: Vec<[Option<NodeId>; 4]>,
}

// The config hash (and several goldens) fingerprint the simulator config
// through its `Debug` text, so the plain-mesh rendering must stay exactly
// what the pre-topology derived impl produced: the original five fields,
// in order, with `topology` appended only when it deviates from the mesh
// default. (`neighbors` is derived data and never printed.)
impl std::fmt::Debug for Mesh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("Mesh");
        d.field("width", &self.width)
            .field("height", &self.height)
            .field("concentration", &self.concentration)
            .field("link_ids", &self.link_ids)
            .field("link_ends", &self.link_ends);
        if self.topology != Topology::Mesh {
            d.field("topology", &self.topology);
        }
        d.finish()
    }
}

impl Mesh {
    /// Build a `width × height` mesh with `concentration` cores per router.
    ///
    /// # Panics
    /// Panics if the mesh has more than 4096 routers (LinkId stays a u16 and
    /// `NodeId` a u16) or any dimension is zero. Meshes beyond the paper's
    /// 16 routers alias src/dest in the 4-bit wire header fields (see
    /// `Header::pack`); the simulator routes on the logical header, so this
    /// only affects on-wire byte patterns, exactly as a real implementation
    /// reusing the paper's 42-bit header would behave.
    pub fn new(width: u8, height: u8, concentration: u8) -> Self {
        Self::with_topology(width, height, concentration, Topology::Mesh)
    }

    /// Build a `width × height` torus. Both dimensions must be at least 2
    /// (a 1-wide ring would wrap a router onto itself).
    pub fn new_torus(width: u8, height: u8, concentration: u8) -> Self {
        assert!(
            width >= 2 && height >= 2,
            "torus dimensions must be at least 2 (wrap links must not self-loop)"
        );
        Self::with_topology(width, height, concentration, Topology::Torus)
    }

    /// Build a mesh with the given adjacencies removed (both directions of
    /// each named pair). `removed` entries may name either endpoint of an
    /// adjacency; they are normalized to `(node, East | North)` form.
    ///
    /// # Panics
    /// Panics if an entry names a boundary direction with no mesh
    /// neighbour.
    pub fn new_degraded(
        width: u8,
        height: u8,
        concentration: u8,
        removed: &[(NodeId, Direction)],
    ) -> Self {
        let base = Self::new(width, height, concentration);
        let mut canon: Vec<(NodeId, Direction)> = removed
            .iter()
            .map(|&(n, d)| match d {
                Direction::East | Direction::North => {
                    assert!(
                        base.neighbor(n, d).is_some(),
                        "removed adjacency {n:?} {d:?} does not exist on the mesh"
                    );
                    (n, d)
                }
                Direction::West | Direction::South => {
                    let nb = base
                        .neighbor(n, d)
                        .unwrap_or_else(|| panic!("removed adjacency {n:?} {d:?} does not exist"));
                    (nb, d.opposite())
                }
            })
            .collect();
        canon.sort_by_key(|(n, d)| (n.0, d.index()));
        canon.dedup();
        Self::with_topology(
            width,
            height,
            concentration,
            Topology::Degraded { removed: canon },
        )
    }

    /// Build the neighbour table and link numbering for any topology.
    pub fn with_topology(width: u8, height: u8, concentration: u8, topology: Topology) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        assert!(
            (width as usize) * (height as usize) <= 4096,
            "simulator ids are 16-bit; at most 4096 routers"
        );
        assert!(concentration >= 1, "concentration must be at least 1");
        let routers = width as usize * height as usize;
        let node_at = |x: u8, y: u8| NodeId(y as u16 * width as u16 + x as u16);
        let mut neighbors = vec![[None; 4]; routers];
        for (r, nbs) in neighbors.iter_mut().enumerate() {
            let here = Self::coord_of_raw(width, r);
            for dir in Direction::ALL {
                let (dx, dy) = dir.delta();
                let nx = here.x as i16 + dx as i16;
                let ny = here.y as i16 + dy as i16;
                let inside = nx >= 0 && ny >= 0 && nx < width as i16 && ny < height as i16;
                nbs[dir.index()] = match &topology {
                    Topology::Mesh | Topology::Degraded { .. } if inside => {
                        Some(node_at(nx as u8, ny as u8))
                    }
                    Topology::Mesh | Topology::Degraded { .. } => None,
                    Topology::Torus => Some(node_at(
                        nx.rem_euclid(width as i16) as u8,
                        ny.rem_euclid(height as i16) as u8,
                    )),
                };
            }
        }
        if let Topology::Degraded { removed } = &topology {
            for &(n, d) in removed {
                debug_assert!(matches!(d, Direction::East | Direction::North));
                let nb = neighbors[n.index()][d.index()]
                    .expect("canonical removed adjacency exists on the mesh");
                neighbors[n.index()][d.index()] = None;
                neighbors[nb.index()][d.opposite().index()] = None;
            }
        }
        let mut link_ids = vec![[None; 4]; routers];
        let mut link_ends = Vec::new();
        for (r, ids) in link_ids.iter_mut().enumerate() {
            let node = NodeId(r as u16);
            for dir in Direction::ALL {
                if neighbors[r][dir.index()].is_none() {
                    continue;
                }
                let id = LinkId(link_ends.len() as u16);
                ids[dir.index()] = Some(id);
                link_ends.push((node, dir));
            }
        }
        Self {
            width,
            height,
            concentration,
            link_ids,
            link_ends,
            topology,
            neighbors,
        }
    }

    /// The paper's evaluation platform: 4×4 mesh, 4 cores per router.
    pub fn paper() -> Self {
        Self::new(4, 4, 4)
    }

    /// The connection rule this network was built from.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Whether every router can reach every other over the alive
    /// adjacencies (BFS over the neighbour table).
    pub fn connected(&self) -> bool {
        let n = self.routers();
        let mut seen = vec![false; n];
        let mut q = std::collections::VecDeque::new();
        seen[0] = true;
        q.push_back(NodeId(0));
        let mut count = 1;
        while let Some(at) = q.pop_front() {
            for dir in Direction::ALL {
                if let Some(nb) = self.neighbor(at, dir) {
                    if !seen[nb.index()] {
                        seen[nb.index()] = true;
                        count += 1;
                        q.push_back(nb);
                    }
                }
            }
        }
        count == n
    }

    #[inline]
    /// Mesh width in routers.
    pub fn width(&self) -> u8 {
        self.width
    }

    #[inline]
    /// Mesh height in routers.
    pub fn height(&self) -> u8 {
        self.height
    }

    #[inline]
    /// Cores per router.
    pub fn concentration(&self) -> u8 {
        self.concentration
    }

    /// Number of routers.
    #[inline]
    pub fn routers(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Number of cores (`routers × concentration`).
    #[inline]
    pub fn cores(&self) -> usize {
        self.routers() * self.concentration as usize
    }

    /// Number of unidirectional router-to-router links.
    #[inline]
    pub fn links(&self) -> usize {
        self.link_ends.len()
    }

    fn coord_of_raw(width: u8, index: usize) -> Coord {
        Coord::new(
            (index % width as usize) as u8,
            (index / width as usize) as u8,
        )
    }

    /// Position of a router.
    #[inline]
    pub fn coord_of(&self, node: NodeId) -> Coord {
        Self::coord_of_raw(self.width, node.index())
    }

    /// Router at a position.
    #[inline]
    pub fn node_at(&self, c: Coord) -> NodeId {
        debug_assert!(c.x < self.width && c.y < self.height);
        NodeId(c.y as u16 * self.width as u16 + c.x as u16)
    }

    /// The router a core is attached to (cores are numbered router-major).
    #[inline]
    pub fn router_of_core(&self, core: CoreId) -> NodeId {
        NodeId(core.0 / self.concentration as u16)
    }

    /// The local port index of a core on its router.
    #[inline]
    pub fn local_port_of_core(&self, core: CoreId) -> u8 {
        (core.0 % self.concentration as u16) as u8
    }

    /// All cores attached to `node`.
    pub fn cores_of_router(&self, node: NodeId) -> impl Iterator<Item = CoreId> {
        let base = node.0 * self.concentration as u16;
        (base..base + self.concentration as u16).map(CoreId)
    }

    /// The neighbour of `node` in `dir`, if it exists under this topology.
    #[inline]
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.neighbors[node.index()][dir.index()]
    }

    /// The outgoing link of `node` in `dir`, if the neighbour exists.
    #[inline]
    pub fn link_out(&self, node: NodeId, dir: Direction) -> Option<LinkId> {
        self.link_ids[node.index()][dir.index()]
    }

    /// The `(source router, direction)` pair of a link.
    #[inline]
    pub fn link_source(&self, link: LinkId) -> (NodeId, Direction) {
        self.link_ends[link.index()]
    }

    /// The router a link delivers into.
    #[inline]
    pub fn link_dest(&self, link: LinkId) -> NodeId {
        let (src, dir) = self.link_source(link);
        self.neighbor(src, dir)
            .expect("link always targets an existing neighbour")
    }

    /// Iterate over every link id.
    pub fn all_links(&self) -> impl Iterator<Item = LinkId> {
        (0..self.links() as u16).map(LinkId)
    }

    /// Hop distance between two routers under minimal routing. On a torus
    /// each axis takes the shorter way around the ring; on a degraded mesh
    /// this is the full-mesh Manhattan distance — a lower bound the latency
    /// models use as a locality weight, not an exact path length.
    #[inline]
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (ca, cb) = (self.coord_of(a), self.coord_of(b));
        match self.topology {
            Topology::Torus => {
                let dx = ca.x.abs_diff(cb.x);
                let dy = ca.y.abs_diff(cb.y);
                dx.min(self.width - dx) as u32 + dy.min(self.height - dy) as u32
            }
            _ => ca.manhattan(cb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mesh_has_16_routers_64_cores_48_links() {
        let m = Mesh::paper();
        assert_eq!(m.routers(), 16);
        assert_eq!(m.cores(), 64);
        assert_eq!(m.links(), 48);
    }

    #[test]
    fn coordinates_roundtrip() {
        let m = Mesh::paper();
        for r in 0..16u16 {
            let n = NodeId(r);
            assert_eq!(m.node_at(m.coord_of(n)), n);
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let m = Mesh::paper();
        for r in 0..16u16 {
            let n = NodeId(r);
            for dir in Direction::ALL {
                if let Some(nb) = m.neighbor(n, dir) {
                    assert_eq!(m.neighbor(nb, dir.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    fn corner_routers_have_two_links_edges_three_center_four() {
        let m = Mesh::paper();
        let count = |n: NodeId| {
            Direction::ALL
                .iter()
                .filter(|d| m.link_out(n, **d).is_some())
                .count()
        };
        assert_eq!(count(m.node_at(Coord::new(0, 0))), 2);
        assert_eq!(count(m.node_at(Coord::new(1, 0))), 3);
        assert_eq!(count(m.node_at(Coord::new(1, 1))), 4);
    }

    #[test]
    fn links_partition_to_source_direction() {
        let m = Mesh::paper();
        for l in m.all_links() {
            let (src, dir) = m.link_source(l);
            assert_eq!(m.link_out(src, dir), Some(l));
            let dst = m.link_dest(l);
            assert_eq!(m.neighbor(src, dir), Some(dst));
        }
    }

    #[test]
    fn core_to_router_mapping() {
        let m = Mesh::paper();
        assert_eq!(m.router_of_core(CoreId(0)), NodeId(0));
        assert_eq!(m.router_of_core(CoreId(3)), NodeId(0));
        assert_eq!(m.router_of_core(CoreId(4)), NodeId(1));
        assert_eq!(m.router_of_core(CoreId(63)), NodeId(15));
        assert_eq!(m.local_port_of_core(CoreId(6)), 2);
        let cores: Vec<_> = m.cores_of_router(NodeId(2)).collect();
        assert_eq!(cores, vec![CoreId(8), CoreId(9), CoreId(10), CoreId(11)]);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(Coord::new(0, 0).manhattan(Coord::new(3, 3)), 6);
        assert_eq!(Coord::new(2, 1).manhattan(Coord::new(2, 1)), 0);
    }

    #[test]
    fn research_scale_meshes_accepted() {
        // DL2Fence-scale meshes must construct: 16×16 and 32×32.
        let m16 = Mesh::new(16, 16, 1);
        assert_eq!(m16.routers(), 256);
        assert_eq!(m16.links(), 2 * 2 * 16 * 15);
        let m32 = Mesh::new(32, 32, 1);
        assert_eq!(m32.routers(), 1024);
        assert_eq!(m32.links(), 2 * 2 * 32 * 31);
        // Link ids must stay within LinkId's u16 range at the cap.
        let n = m32.node_at(Coord::new(31, 31));
        assert_eq!(n, NodeId(1023));
        assert_eq!(m32.coord_of(n), Coord::new(31, 31));
    }

    #[test]
    #[should_panic(expected = "at most 4096 routers")]
    fn mesh_larger_than_4096_routers_rejected() {
        Mesh::new(65, 64, 1);
    }

    #[test]
    fn torus_gives_every_router_four_links() {
        let t = Mesh::new_torus(4, 4, 4);
        assert_eq!(t.routers(), 16);
        assert_eq!(t.links(), 64);
        for r in 0..16u16 {
            let n = NodeId(r);
            for dir in Direction::ALL {
                let nb = t.neighbor(n, dir).expect("torus routers have 4 neighbours");
                assert_eq!(t.neighbor(nb, dir.opposite()), Some(n), "wrap symmetric");
            }
        }
        // The eastern wrap: (3,0) → (0,0).
        assert_eq!(
            t.neighbor(t.node_at(Coord::new(3, 0)), Direction::East),
            Some(t.node_at(Coord::new(0, 0)))
        );
        // Northern wrap: (1,3) → (1,0).
        assert_eq!(
            t.neighbor(t.node_at(Coord::new(1, 3)), Direction::North),
            Some(t.node_at(Coord::new(1, 0)))
        );
    }

    #[test]
    fn torus_hop_distance_takes_the_short_way_around() {
        let t = Mesh::new_torus(4, 4, 1);
        let m = Mesh::new(4, 4, 1);
        let (a, b) = (t.node_at(Coord::new(0, 0)), t.node_at(Coord::new(3, 3)));
        assert_eq!(t.hop_distance(a, b), 2, "one wrap hop per axis");
        assert_eq!(m.hop_distance(a, b), 6, "mesh distance unchanged");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn one_wide_torus_rejected() {
        Mesh::new_torus(1, 4, 1);
    }

    #[test]
    fn degraded_removal_is_symmetric_and_normalized() {
        // Remove the (5 ↔ 6) adjacency, named from its *western* endpoint
        // going East and, redundantly, from its eastern endpoint going
        // West: both normalize to the same canonical pair.
        let d = Mesh::new_degraded(
            4,
            4,
            1,
            &[
                (NodeId(5), Direction::East),
                (NodeId(6), Direction::West),
                (NodeId(9), Direction::North),
            ],
        );
        assert_eq!(d.neighbor(NodeId(5), Direction::East), None);
        assert_eq!(d.neighbor(NodeId(6), Direction::West), None);
        assert_eq!(d.neighbor(NodeId(9), Direction::North), None);
        assert_eq!(d.neighbor(NodeId(13), Direction::South), None);
        assert_eq!(d.links(), 48 - 4, "two adjacencies = four directed links");
        match d.topology() {
            Topology::Degraded { removed } => {
                assert_eq!(
                    removed,
                    &vec![(NodeId(5), Direction::East), (NodeId(9), Direction::North)]
                );
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert!(d.connected());
        // Untouched adjacencies keep their symmetry.
        assert_eq!(d.neighbor(NodeId(5), Direction::West), Some(NodeId(4)));
        assert_eq!(d.neighbor(NodeId(4), Direction::East), Some(NodeId(5)));
    }

    #[test]
    fn degraded_can_disconnect_and_connected_detects_it() {
        // Cut both adjacencies of corner router 0 on a 2×2 mesh.
        let d = Mesh::new_degraded(
            2,
            2,
            1,
            &[(NodeId(0), Direction::East), (NodeId(0), Direction::North)],
        );
        assert!(!d.connected());
        assert!(Mesh::paper().connected());
        assert!(Mesh::new_torus(4, 4, 1).connected());
    }

    #[test]
    fn plain_mesh_debug_rendering_is_unchanged_by_the_topology_field() {
        // The simulator's config hash fingerprints `Debug` text; a plain
        // mesh must render exactly as it did before topologies existed
        // (no `topology`/`neighbors` fields), while a torus must differ.
        let m = format!("{:?}", Mesh::new(2, 1, 1));
        assert_eq!(
            m,
            "Mesh { width: 2, height: 1, concentration: 1, \
             link_ids: [[Some(LinkId(0)), None, None, None], \
             [None, Some(LinkId(1)), None, None]], \
             link_ends: [(NodeId(0), East), (NodeId(1), West)] }"
        );
        let t = format!("{:?}", Mesh::new_torus(2, 2, 1));
        assert!(t.contains("topology: Torus"), "{t}");
    }

    #[test]
    fn port_index_roundtrip() {
        for i in 0..8 {
            assert_eq!(Port::from_index(i).index(), i);
        }
        assert!(Port::Local(0).is_local());
        assert!(!Port::Net(Direction::East).is_local());
    }
}

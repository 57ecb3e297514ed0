//! Randomized, serializable simulation scenarios.
//!
//! A [`Scenario`] is a complete, self-contained description of one
//! differential-conformance run: mesh shape, buffer geometry, the exact
//! packet list (materialized up front from a `crates/traffic` generator
//! or a uniform sampler, so replay needs no generator state), the trojan
//! and fault campaign, and an optional deliberate [`Sabotage`]. Every
//! scenario serializes to integer-only JSON (see [`crate::json`]) and
//! replays bit-identically via the `conformance_repro` binary.

use crate::json::Json;
use noc_sim::config::Sabotage;
use noc_sim::fault::StuckWires;
use noc_sim::watchdog::WatchdogConfig;
use noc_sim::{RetxScheme, SimConfig, Simulator, TrafficSource};
use noc_traffic::{AppModel, AppSpec, Pattern, SyntheticTraffic, Trace};
use noc_trojan::{TargetSpec, TaspConfig, TaspHt};
use noc_types::{Direction, LinkId, Mesh, NodeId, Packet, PacketId, VcId};

/// [`Scenario::topology`] value for a plain 2-D mesh.
pub const TOPOLOGY_MESH: u8 = 0;
/// [`Scenario::topology`] value for a 2-D torus (wrap links, dateline VCs).
pub const TOPOLOGY_TORUS: u8 = 1;
/// [`Scenario::topology`] value for a fault-degraded mesh.
pub const TOPOLOGY_DEGRADED: u8 = 2;

/// One packet to inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketSpec {
    /// Scenario-unique packet id.
    pub id: u64,
    /// Source router.
    pub src: u16,
    /// Destination router.
    pub dest: u16,
    /// VC class at injection (`< Scenario::vcs`).
    pub vc: u8,
    /// Length in flits (≥ 1).
    pub len: u8,
    /// Injection cycle.
    pub inject_at: u64,
    /// Issuing thread (selects the core within the source router).
    pub thread: u8,
}

impl PacketSpec {
    /// The concrete packet this spec injects.
    pub fn packet(&self) -> Packet {
        Packet::new(
            PacketId(self.id),
            NodeId(self.src),
            NodeId(self.dest),
            VcId(self.vc),
            0,
            self.thread,
            self.len.max(1),
            self.inject_at,
        )
    }
}

/// A TASP hardware trojan mounted on one link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrojanSpec {
    /// The compromised link.
    pub link: u16,
    /// Destination router the comparator triggers on.
    pub target_dest: u16,
    /// Whether the kill switch is up from cycle 0.
    pub armed: bool,
    /// Injection cooldown in cycles (the oracle's exact counts assume 0).
    pub cooldown: u32,
}

/// A single wire stuck at one on a link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckSpec {
    /// The faulty link.
    pub link: u16,
    /// Codeword bit index forced to 1.
    pub bit: u8,
}

/// A complete conformance scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Generator seed (provenance only; replay never consults it).
    pub seed: u64,
    /// Mesh width in routers.
    pub width: u8,
    /// Mesh height in routers.
    pub height: u8,
    /// Cores per router.
    pub concentration: u8,
    /// Virtual channels per port.
    pub vcs: u8,
    /// Buffer slots per VC.
    pub vc_depth: u8,
    /// Retransmission slots per output (or per VC).
    pub retx_depth: u8,
    /// Use the per-VC retransmission scheme.
    pub retx_per_vc: bool,
    /// Threat detector + L-Ob path enabled.
    pub mitigation: bool,
    /// Per-entry retry budget (escalation / quarantine).
    pub retry_budget: Option<u32>,
    /// Arm the deadlock watchdog (consistency-checked, never acted on).
    pub watchdog: bool,
    /// Cycle budget for the run.
    pub max_cycles: u64,
    /// The exact packets to inject.
    pub packets: Vec<PacketSpec>,
    /// Mounted trojans.
    pub trojans: Vec<TrojanSpec>,
    /// Stuck-at-one wires.
    pub stuck: Vec<StuckSpec>,
    /// Deliberate defect for oracle self-tests.
    pub sabotage: Option<Sabotage>,
    /// Topology family: [`TOPOLOGY_MESH`], [`TOPOLOGY_TORUS`], or
    /// [`TOPOLOGY_DEGRADED`].
    pub topology: u8,
    /// Removed adjacencies of a degraded mesh as `(router, direction
    /// index)` pairs; entries that do not exist or would disconnect the
    /// graph are ignored (see [`Scenario::effective_removed`]).
    pub removed: Vec<(u16, u8)>,
}

impl Scenario {
    /// The mesh this scenario simulates.
    pub fn mesh(&self) -> Mesh {
        let c = self.concentration.max(1);
        match self.topology {
            // The torus constructor needs both dimensions ≥ 2 (a 1-wide
            // ring would wrap a node onto itself).
            TOPOLOGY_TORUS => Mesh::new_torus(self.width.max(2), self.height.max(2), c),
            TOPOLOGY_DEGRADED => {
                let (w, h) = (self.width.max(1), self.height.max(1));
                let removed = self.effective_removed();
                Mesh::new_degraded(w, h, c, &removed)
            }
            _ => Mesh::new(self.width.max(1), self.height.max(1), c),
        }
    }

    /// The subset of [`Scenario::removed`] a degraded mesh actually
    /// honours: in-range adjacencies that exist in the base mesh, accepted
    /// greedily only while the graph stays connected. Total on arbitrary
    /// input, so a shrink candidate or hand-edited JSON can never panic
    /// the mesh constructor.
    pub fn effective_removed(&self) -> Vec<(NodeId, Direction)> {
        let (w, h) = (self.width.max(1), self.height.max(1));
        let c = self.concentration.max(1);
        let base = Mesh::new(w, h, c);
        let mut keep: Vec<(NodeId, Direction)> = Vec::new();
        for &(node, dir) in &self.removed {
            let Some(&dir) = Direction::ALL.get(dir as usize) else {
                continue;
            };
            let node = NodeId(node);
            if node.index() >= base.routers() || base.neighbor(node, dir).is_none() {
                continue;
            }
            let mut cand = keep.clone();
            cand.push((node, dir));
            if Mesh::new_degraded(w, h, c, &cand).connected() {
                keep = cand;
            }
        }
        keep
    }

    /// Routers in the mesh.
    pub fn routers(&self) -> usize {
        self.mesh().routers()
    }

    /// The simulator configuration this scenario runs under.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::paper();
        cfg.mesh = self.mesh();
        cfg.vcs = self.vcs.max(1);
        cfg.vc_depth = self.vc_depth.max(1);
        cfg.retx_depth = self.retx_depth.max(1);
        cfg.retx_scheme = if self.retx_per_vc {
            RetxScheme::PerVc
        } else {
            RetxScheme::Output
        };
        cfg.mitigation = self.mitigation;
        cfg.retry_budget = self.retry_budget;
        cfg.watchdog = if self.watchdog {
            Some(WatchdogConfig::default())
        } else {
            None
        };
        // Snapshots are irrelevant to conformance; keep long runs cheap.
        cfg.snapshot_interval = 1024;
        cfg.sabotage = self.sabotage;
        cfg
    }

    /// Build the optimized simulator with all faults mounted.
    pub fn build_sim(&self) -> Simulator {
        let mut sim = Simulator::new(self.sim_config());
        for t in &self.trojans {
            let mut ht = TaspHt::new(
                TaspConfig::new(TargetSpec::dest((t.target_dest & 0xF) as u8))
                    .with_cooldown(t.cooldown),
            );
            ht.set_kill_switch(t.armed);
            let faults = sim.link_faults_mut(LinkId(t.link));
            faults.trojan = Some(ht);
        }
        for s in &self.stuck {
            let faults = sim.link_faults_mut(LinkId(s.link));
            faults.stuck = StuckWires::new(faults.stuck.stuck_one | (1u128 << s.bit), 0);
        }
        sim
    }

    /// A non-destructive traffic source over the scenario's packet list.
    pub fn source(&self) -> ReplaySource {
        let mut packets: Vec<Packet> = self.packets.iter().map(PacketSpec::packet).collect();
        packets.sort_by_key(|p| p.created_at);
        ReplaySource { packets, next: 0 }
    }

    // ------------------------------------------------------------------
    // JSON round-trip
    // ------------------------------------------------------------------

    /// Serialize to the scenario JSON schema.
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as i64);
        let packets = self
            .packets
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("id".into(), num(p.id)),
                    ("src".into(), num(p.src as u64)),
                    ("dest".into(), num(p.dest as u64)),
                    ("vc".into(), num(p.vc as u64)),
                    ("len".into(), num(p.len as u64)),
                    ("at".into(), num(p.inject_at)),
                    ("thread".into(), num(p.thread as u64)),
                ])
            })
            .collect();
        let trojans = self
            .trojans
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("link".into(), num(t.link as u64)),
                    ("dest".into(), num(t.target_dest as u64)),
                    ("armed".into(), Json::Bool(t.armed)),
                    ("cooldown".into(), num(t.cooldown as u64)),
                ])
            })
            .collect();
        let stuck = self
            .stuck
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("link".into(), num(s.link as u64)),
                    ("bit".into(), num(s.bit as u64)),
                ])
            })
            .collect();
        let sabotage = match self.sabotage {
            None => Json::Null,
            Some(Sabotage::StallSaRouter { router }) => Json::Obj(vec![
                ("kind".into(), Json::Str("stall_sa_router".into())),
                ("router".into(), num(router as u64)),
            ]),
            Some(Sabotage::LeakCredit { every }) => Json::Obj(vec![
                ("kind".into(), Json::Str("leak_credit".into())),
                ("every".into(), num(every as u64)),
            ]),
            Some(Sabotage::OvercountDelivered { every }) => Json::Obj(vec![
                ("kind".into(), Json::Str("overcount_delivered".into())),
                ("every".into(), num(every as u64)),
            ]),
            Some(Sabotage::OverSkip) => {
                Json::Obj(vec![("kind".into(), Json::Str("over_skip".into()))])
            }
        };
        let removed = self
            .removed
            .iter()
            .map(|&(node, dir)| {
                Json::Obj(vec![
                    ("node".into(), num(node as u64)),
                    ("dir".into(), num(dir as u64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("seed".into(), num(self.seed)),
            ("width".into(), num(self.width as u64)),
            ("height".into(), num(self.height as u64)),
            ("topology".into(), num(self.topology as u64)),
            ("removed".into(), Json::Arr(removed)),
            ("concentration".into(), num(self.concentration as u64)),
            ("vcs".into(), num(self.vcs as u64)),
            ("vc_depth".into(), num(self.vc_depth as u64)),
            ("retx_depth".into(), num(self.retx_depth as u64)),
            ("retx_per_vc".into(), Json::Bool(self.retx_per_vc)),
            ("mitigation".into(), Json::Bool(self.mitigation)),
            (
                "retry_budget".into(),
                self.retry_budget.map_or(Json::Null, |b| num(b as u64)),
            ),
            ("watchdog".into(), Json::Bool(self.watchdog)),
            ("max_cycles".into(), num(self.max_cycles)),
            ("packets".into(), Json::Arr(packets)),
            ("trojans".into(), Json::Arr(trojans)),
            ("stuck".into(), Json::Arr(stuck)),
            ("sabotage".into(), sabotage),
        ])
    }

    /// Deserialize from the scenario JSON schema.
    pub fn from_json(v: &Json) -> Result<Scenario, String> {
        fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or invalid field '{key}'"))
        }
        fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
            v.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("missing or invalid field '{key}'"))
        }
        let mut packets = Vec::new();
        for p in v
            .get("packets")
            .and_then(Json::as_arr)
            .ok_or("missing 'packets'")?
        {
            packets.push(PacketSpec {
                id: req_u64(p, "id")?,
                src: req_u64(p, "src")? as u16,
                dest: req_u64(p, "dest")? as u16,
                vc: req_u64(p, "vc")? as u8,
                len: req_u64(p, "len")? as u8,
                inject_at: req_u64(p, "at")?,
                thread: req_u64(p, "thread")? as u8,
            });
        }
        let mut trojans = Vec::new();
        for t in v
            .get("trojans")
            .and_then(Json::as_arr)
            .ok_or("missing 'trojans'")?
        {
            trojans.push(TrojanSpec {
                link: req_u64(t, "link")? as u16,
                target_dest: req_u64(t, "dest")? as u16,
                armed: req_bool(t, "armed")?,
                cooldown: req_u64(t, "cooldown")? as u32,
            });
        }
        let mut stuck = Vec::new();
        for s in v
            .get("stuck")
            .and_then(Json::as_arr)
            .ok_or("missing 'stuck'")?
        {
            stuck.push(StuckSpec {
                link: req_u64(s, "link")? as u16,
                bit: req_u64(s, "bit")? as u8,
            });
        }
        let sabotage = match v.get("sabotage") {
            None | Some(Json::Null) => None,
            Some(s) => Some(match s.get("kind").and_then(Json::as_str) {
                Some("stall_sa_router") => Sabotage::StallSaRouter {
                    router: req_u64(s, "router")? as u16,
                },
                Some("leak_credit") => Sabotage::LeakCredit {
                    every: req_u64(s, "every")? as u32,
                },
                Some("overcount_delivered") => Sabotage::OvercountDelivered {
                    every: req_u64(s, "every")? as u32,
                },
                Some("over_skip") => Sabotage::OverSkip,
                other => return Err(format!("unknown sabotage kind {other:?}")),
            }),
        };
        let retry_budget = match v.get("retry_budget") {
            None | Some(Json::Null) => None,
            Some(b) => Some(b.as_u64().ok_or("invalid 'retry_budget'")? as u32),
        };
        // Topology fields default to a plain mesh so pre-topology
        // scenario files stay parseable.
        let topology = match v.get("topology") {
            None | Some(Json::Null) => TOPOLOGY_MESH,
            Some(t) => t.as_u64().ok_or("invalid 'topology'")? as u8,
        };
        let mut removed = Vec::new();
        if let Some(arr) = v.get("removed").and_then(Json::as_arr) {
            for r in arr {
                removed.push((req_u64(r, "node")? as u16, req_u64(r, "dir")? as u8));
            }
        }
        Ok(Scenario {
            seed: req_u64(v, "seed")?,
            width: req_u64(v, "width")? as u8,
            height: req_u64(v, "height")? as u8,
            concentration: req_u64(v, "concentration")? as u8,
            vcs: req_u64(v, "vcs")? as u8,
            vc_depth: req_u64(v, "vc_depth")? as u8,
            retx_depth: req_u64(v, "retx_depth")? as u8,
            retx_per_vc: req_bool(v, "retx_per_vc")?,
            mitigation: req_bool(v, "mitigation")?,
            retry_budget,
            watchdog: req_bool(v, "watchdog")?,
            max_cycles: req_u64(v, "max_cycles")?,
            packets,
            trojans,
            stuck,
            sabotage,
            topology,
            removed,
        })
    }

    /// Serialize to a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Parse from a JSON string.
    pub fn parse(text: &str) -> Result<Scenario, String> {
        Scenario::from_json(&Json::parse(text)?)
    }

    // ------------------------------------------------------------------
    // Generation
    // ------------------------------------------------------------------

    /// Generate a random scenario from a seed (deterministic).
    ///
    /// The generator deliberately restricts itself to domains where the
    /// reference oracle's predictions are exact or provably bounded (see
    /// DESIGN.md §12): clean runs, armed/disarmed TASP trojans with zero
    /// cooldown under mitigation, the unprotected DoS, bounded-retry
    /// quarantine with a single trojan on a redundant mesh, and single
    /// stuck-at-one wires.
    pub fn generate(seed: u64) -> Scenario {
        Self::generate_in(seed, None)
    }

    /// [`Scenario::generate`] restricted to one topology family
    /// ([`TOPOLOGY_MESH`] / [`TOPOLOGY_TORUS`] / [`TOPOLOGY_DEGRADED`]);
    /// `None` samples freely — mesh half the time, torus and degraded a
    /// quarter each.
    pub fn generate_in(seed: u64, family: Option<u8>) -> Scenario {
        let mut rng = Rng::new(seed);
        let topology = family.unwrap_or_else(|| match rng.below(4) {
            0 => TOPOLOGY_TORUS,
            1 => TOPOLOGY_DEGRADED,
            _ => TOPOLOGY_MESH,
        });
        let domain = rng.below(8);
        // Mesh: the quarantine domain needs path redundancy; a torus
        // needs both dimensions ≥ 2 to wrap, and a degraded mesh needs
        // them to have any removable adjacency.
        let (width, height) = loop {
            let w = 1 + rng.below(4) as u8;
            let h = 1 + rng.below(4) as u8;
            if (w as usize) * (h as usize) > 16 {
                continue;
            }
            if (domain == 5 || topology != TOPOLOGY_MESH) && (w < 2 || h < 2) {
                continue;
            }
            break (w, h);
        };
        let concentration = 1 + rng.below(2) as u8;
        // The dateline scheme needs a low and a high VC half.
        let vcs = if topology == TOPOLOGY_TORUS {
            2 + rng.below(3) as u8
        } else {
            1 + rng.below(4) as u8
        };
        let mut sc = Scenario {
            seed,
            width,
            height,
            concentration,
            vcs,
            vc_depth: 2 + rng.below(3) as u8,
            retx_depth: 2 + rng.below(3) as u8,
            retx_per_vc: rng.chance(3, 10),
            mitigation: true,
            retry_budget: None,
            watchdog: false,
            max_cycles: 0,
            packets: Vec::new(),
            trojans: Vec::new(),
            stuck: Vec::new(),
            sabotage: None,
            topology,
            removed: Vec::new(),
        };
        // Knock out a couple of adjacencies of a degraded mesh. The
        // quarantine domain keeps the full mesh: its oracle prediction
        // needs every single-link removal to leave the graph connected,
        // which pre-removed links could defeat.
        if topology == TOPOLOGY_DEGRADED && domain != 5 {
            let base = Mesh::new(width, height, concentration);
            for _ in 0..1 + rng.below(2) {
                let node = rng.below(base.routers() as u64) as u16;
                let dir = if rng.chance(1, 2) {
                    Direction::East
                } else {
                    Direction::North
                };
                sc.removed.push((node, dir.index() as u8));
            }
            // Store exactly the effective set (connectivity-filtered) so
            // the JSON never carries dead entries.
            sc.removed = sc
                .effective_removed()
                .iter()
                .map(|&(n, d)| (n.0, d.index() as u8))
                .collect();
        }
        let mesh = sc.mesh();
        sc.packets = Self::generate_packets(&mut rng, &mesh, vcs, concentration);
        match domain {
            0 | 1 => {
                // Clean network, mitigation on or off.
                sc.mitigation = rng.chance(1, 2);
            }
            2 | 3 => {
                // Trojan under mitigation; domain 3 adds a (generous)
                // retry budget, which must never reach quarantine.
                sc.mitigation = true;
                if domain == 3 {
                    sc.retry_budget = Some(8 + rng.below(8) as u32);
                }
                let n = 1 + rng.below(2) as usize;
                Self::mount_trojans(&mut rng, &mut sc, &mesh, n);
            }
            4 => {
                // The paper's DoS: unprotected, unbounded retransmission.
                sc.mitigation = false;
                sc.watchdog = true;
                Self::mount_trojans(&mut rng, &mut sc, &mesh, 1);
            }
            5 => {
                // Bounded retries without mitigation: quarantine + reroute.
                sc.mitigation = false;
                sc.retry_budget = Some(4 + rng.below(4) as u32);
                Self::mount_trojans(&mut rng, &mut sc, &mesh, 1);
                // Quarantine predictions need the trojan armed.
                for t in &mut sc.trojans {
                    t.armed = true;
                }
            }
            _ => {
                // One stuck-at-one wire; SECDED corrects every hit.
                sc.mitigation = rng.chance(1, 2);
                if mesh.links() > 0 {
                    sc.stuck.push(StuckSpec {
                        link: rng.below(mesh.links() as u64) as u16,
                        bit: rng.below(noc_ecc::CODEWORD_BITS as u64) as u8,
                    });
                }
            }
        }
        // Long idle gaps between injection bursts: the whole network goes
        // quiescent between bursts, stressing the fast-forward horizon
        // math (the skip must land exactly on each burst's first cycle).
        // Domain 4 keeps its tight 600-cycle DoS window.
        if domain != 4 && rng.chance(1, 4) {
            let gap = 300 + rng.below(700);
            for (i, p) in sc.packets.iter_mut().enumerate() {
                p.inject_at = (i as u64 / 4) * gap + rng.below(8);
            }
        }
        sc.max_cycles = if domain == 4 {
            600
        } else {
            4_000 + 200 * sc.packets.len() as u64
        };
        sc
    }

    /// Sample the packet list: either materialized from a `crates/traffic`
    /// generator (application model or synthetic pattern) or uniformly.
    fn generate_packets(rng: &mut Rng, mesh: &Mesh, vcs: u8, conc: u8) -> Vec<PacketSpec> {
        let horizon = 24 + rng.below(24);
        let captured: Option<Trace> = match rng.below(4) {
            0 => {
                let spec = match rng.below(4) {
                    0 => AppSpec::blackscholes(),
                    1 => AppSpec::facesim(),
                    2 => AppSpec::ferret(),
                    _ => AppSpec::fft(),
                };
                let mut model = AppModel::new(spec, mesh.clone(), rng.next_u64())
                    .with_vcs((0..vcs).collect())
                    .until(horizon);
                Some(Trace::capture(&mut model, horizon))
            }
            1 => {
                // Transpose is defined for square meshes only.
                let pattern = if mesh.width() == mesh.height() && rng.chance(1, 2) {
                    Pattern::Transpose
                } else {
                    Pattern::UniformRandom
                };
                let mut model = SyntheticTraffic::new(mesh.clone(), pattern, 0.1, rng.next_u64())
                    .until(horizon);
                Some(Trace::capture(&mut model, horizon))
            }
            _ => None,
        };
        let mut out = Vec::new();
        if let Some(trace) = captured {
            for (i, e) in trace.entries.iter().take(24).enumerate() {
                out.push(PacketSpec {
                    id: i as u64 + 1,
                    src: e.packet.src.0,
                    dest: e.packet.dest.0,
                    vc: e.packet.vc.0 % vcs,
                    len: e.packet.len.clamp(1, 4),
                    inject_at: e.cycle,
                    thread: e.packet.thread % conc,
                });
            }
        }
        if out.is_empty() {
            let n = 1 + rng.below(20);
            let routers = mesh.routers() as u64;
            for i in 0..n {
                out.push(PacketSpec {
                    id: i + 1,
                    src: rng.below(routers) as u16,
                    dest: rng.below(routers) as u16,
                    vc: rng.below(vcs as u64) as u8,
                    len: 1 + rng.below(4) as u8,
                    inject_at: rng.below(horizon),
                    thread: rng.below(conc as u64) as u8,
                });
            }
        }
        out
    }

    /// Mount up to `n` trojans on links actually crossed by a packet,
    /// targeting that packet's destination so the comparator fires.
    fn mount_trojans(rng: &mut Rng, sc: &mut Scenario, mesh: &Mesh, n: usize) {
        // The simulator's own routing function, so the sampled links are
        // on real first-pass paths on every topology (XY on a plain mesh).
        let routing = noc_sim::routing::Routing::for_mesh(mesh);
        for _ in 0..n {
            let candidates: Vec<(LinkId, u16)> = sc
                .packets
                .iter()
                .flat_map(|p| {
                    noc_sim::routing::route_path(mesh, &routing, NodeId(p.src), NodeId(p.dest))
                        .into_iter()
                        .map(move |l| (l, p.dest))
                })
                .filter(|(l, _)| !sc.trojans.iter().any(|t| t.link == l.index() as u16))
                .collect();
            if candidates.is_empty() {
                return;
            }
            let (link, dest) = candidates[rng.below(candidates.len() as u64) as usize];
            sc.trojans.push(TrojanSpec {
                link: link.index() as u16,
                target_dest: dest,
                // A disarmed trojan must behave exactly like a clean link.
                armed: rng.chance(4, 5),
                cooldown: 0,
            });
        }
    }
}

/// Non-destructive injection source over a scenario's packet list
/// (sorted by injection cycle at construction).
pub struct ReplaySource {
    packets: Vec<Packet>,
    next: usize,
}

impl TrafficSource for ReplaySource {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        while let Some(p) = self.packets.get(self.next) {
            if p.created_at > cycle {
                break;
            }
            out.push(p.clone());
            self.next += 1;
        }
    }
    fn done(&self) -> bool {
        self.next >= self.packets.len()
    }

    fn next_injection_at(&self, now: u64) -> Option<u64> {
        // The head entry is the earliest possible injection; `max(now)`
        // keeps an overdue head (possible after a shrinker edit) from
        // advertising a horizon in the past.
        self.packets.get(self.next).map(|p| p.created_at.max(now))
    }

    fn skip_to(&mut self, to: u64) {
        // As-if polled through `to - 1`: entries due strictly before `to`
        // would have been injected by a stepped cycle, but a skip cannot
        // inject — a fast-forward that lands past one (the OverSkip
        // defect) loses it here, and the oracle's exact `injected_by`
        // epoch check catches the divergence. A correct skip never lands
        // past the advertised horizon, so nothing is ever dropped.
        while self
            .packets
            .get(self.next)
            .is_some_and(|p| p.created_at < to)
        {
            self.next += 1;
        }
    }

    fn save_cursor(&mut self, w: &mut noc_sim::Writer) {
        w.put(&mut self.next);
    }

    fn load_cursor(&mut self, r: &mut noc_sim::Reader<'_>) -> Result<(), noc_sim::SnapshotError> {
        use noc_sim::Persist;
        self.next.persist(r)?;
        self.next = self.next.min(self.packets.len());
        Ok(())
    }
}

/// Splitmix64: a tiny, deterministic, dependency-free generator for
/// scenario sampling. Replay never consults it — scenarios are concrete.
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seeded generator.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit draw (named to keep clear of `Iterator::next`).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// True with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Scenario::generate(42), Scenario::generate(42));
        assert_ne!(Scenario::generate(1), Scenario::generate(2));
    }

    #[test]
    fn json_round_trip_is_exact() {
        for seed in 0..50 {
            let sc = Scenario::generate(seed);
            let text = sc.to_json_string();
            assert_eq!(Scenario::parse(&text).unwrap(), sc, "seed {seed}");
        }
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        for seed in 0..100 {
            let sc = Scenario::generate(seed);
            let mesh = sc.mesh();
            assert!(mesh.routers() <= 16);
            assert!(!sc.packets.is_empty());
            for p in &sc.packets {
                assert!((p.src as usize) < mesh.routers(), "seed {seed}");
                assert!((p.dest as usize) < mesh.routers(), "seed {seed}");
                assert!(p.vc < sc.vcs);
                assert!(p.thread < sc.concentration);
                assert!(p.len >= 1);
            }
            for t in &sc.trojans {
                assert!((t.link as usize) < mesh.links());
                assert_eq!(t.cooldown, 0, "generator keeps oracle-exact cooldown");
            }
            for s in &sc.stuck {
                assert!((s.link as usize) < mesh.links());
                assert!((s.bit as usize) < noc_ecc::CODEWORD_BITS);
            }
        }
    }

    #[test]
    fn topology_families_generate_well_formed_scenarios() {
        let mut seen = [false; 3];
        for seed in 0..200 {
            for family in [None, Some(TOPOLOGY_TORUS), Some(TOPOLOGY_DEGRADED)] {
                let sc = Scenario::generate_in(seed, family);
                if let Some(f) = family {
                    assert_eq!(sc.topology, f);
                }
                seen[sc.topology as usize] = true;
                let mesh = sc.mesh();
                assert!(mesh.routers() <= 16, "seed {seed}");
                assert!(mesh.connected(), "seed {seed}");
                if sc.topology == TOPOLOGY_TORUS {
                    assert!(sc.vcs >= 2, "dateline classes need two VC halves");
                    assert!(sc.width >= 2 && sc.height >= 2);
                }
                if sc.topology == TOPOLOGY_DEGRADED {
                    // The stored list is exactly the effective one.
                    let effective: Vec<(u16, u8)> = sc
                        .effective_removed()
                        .iter()
                        .map(|&(n, d)| (n.0, d.index() as u8))
                        .collect();
                    assert_eq!(sc.removed, effective, "seed {seed}");
                }
                for t in &sc.trojans {
                    assert!((t.link as usize) < mesh.links(), "seed {seed}");
                }
                for s in &sc.stuck {
                    assert!((s.link as usize) < mesh.links(), "seed {seed}");
                }
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "the free sampler must hit every family in 200 seeds"
        );
    }

    #[test]
    fn hostile_topology_json_never_panics_the_mesh_builder() {
        // Out-of-range nodes, non-existent adjacencies, and
        // graph-disconnecting removals must all be ignored, not panic.
        let mut sc = Scenario::generate_in(3, Some(TOPOLOGY_DEGRADED));
        sc.removed = vec![(999, 0), (0, 9), (0, 1), (0, 3), (0, 0), (0, 2)];
        let mesh = sc.mesh();
        assert!(mesh.connected());
        let round = Scenario::parse(&sc.to_json_string()).unwrap();
        assert_eq!(round, sc);
    }

    #[test]
    fn replay_source_injects_everything_in_order() {
        let sc = Scenario::generate(7);
        let mut src = sc.source();
        let mut got = 0;
        let mut buf = Vec::new();
        for c in 0..=sc.packets.iter().map(|p| p.inject_at).max().unwrap() {
            buf.clear();
            src.poll(c, &mut buf);
            for p in &buf {
                assert_eq!(p.created_at, c);
            }
            got += buf.len();
        }
        assert_eq!(got, sc.packets.len());
        assert!(src.done());
    }
}

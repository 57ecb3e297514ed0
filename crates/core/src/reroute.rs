//! The Ariadne-style **rerouting** baseline: once links are flagged (by
//! BIST or by policy), disable them and rebuild deadlock-free routing
//! tables so all traffic detours around the infected hardware. The cost is
//! extra hops and lost path diversity — exactly what Fig. 10 charges this
//! baseline with.

use noc_sim::routing::{RouteTables, Routing};
use noc_sim::Simulator;
use noc_types::{LinkId, Mesh};

/// Build the table-based routing that avoids `dead` links, using the
/// deadlock-free up*/down* construction (what Ariadne reconfigures to).
///
/// Returns `None` if removing those links disconnects the mesh (the
/// baseline cannot run; the paper's infection fractions never disconnect a
/// 4×4 mesh, but callers must handle the general case).
pub fn routes_avoiding(mesh: &Mesh, dead: &[LinkId]) -> Option<RouteTables> {
    let tables = RouteTables::build_updown(mesh, dead)?;
    tables.fully_connected().then_some(tables)
}

/// Configure a simulator for the rerouting baseline: infected links are
/// disabled outright and tables steer around them.
pub fn apply_reroute(sim: &mut Simulator, dead: &[LinkId]) -> bool {
    let Some(tables) = routes_avoiding(sim.mesh(), dead) else {
        return false;
    };
    sim.set_routing(Routing::Table(tables));
    sim.set_dead_links(dead.to_vec());
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::{Direction, NodeId};

    #[test]
    fn disconnection_is_detected() {
        // Cut both links of the only neighbour pair in a 1×2 mesh.
        let mesh = Mesh::new(2, 1, 1);
        let dead: Vec<LinkId> = mesh.all_links().collect();
        assert!(routes_avoiding(&mesh, &dead).is_none());
    }

    #[test]
    fn apply_reroute_configures_the_simulator() {
        use noc_sim::SimConfig;
        let mut sim = Simulator::new(SimConfig::paper());
        let dead = vec![sim.mesh().link_out(NodeId(0), Direction::East).unwrap()];
        assert!(apply_reroute(&mut sim, &dead));
    }
}

//! Extension experiment — the paper's §IV-B suggestion that the threat
//! detector's diagnosis can drive "more aggressive approaches … such as
//! rerouting packets or invoking the OS to migrate processes from one
//! network region to another which can be used to complement our
//! proposed design."
//!
//! Here the OS watches the event stream; when a link is classified as
//! trojan-infected it migrates the victim application's master to a
//! router far from the compromised region. A destination-targeting
//! trojan then never sees its target again — the attack is neutralised
//! even *without* continuing obfuscation, at the cost of a migration
//! stall and the cache/working-set refill the stall models.

use crate::table::write_table;
use htnoc_core::prelude::*;
use noc_sim::{Cue, Landing, Stop, TrafficSource};
use noc_types::PacketId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An application model whose primary can be migrated at runtime.
pub struct MigratableApp {
    spec: AppSpec,
    mesh: Mesh,
    rng: StdRng,
    next_packet: u64,
    until: u64,
    polled: u64,
    /// Migration in effect: all primary-bound traffic retargets here.
    new_primary: Option<NodeId>,
    /// Injection pauses during the migration stall window.
    stall_until: u64,
}

impl MigratableApp {
    /// A migratable instance of `spec` injecting until `until`.
    pub fn new(spec: AppSpec, mesh: Mesh, seed: u64, until: u64) -> Self {
        Self {
            spec,
            mesh,
            rng: StdRng::seed_from_u64(seed),
            next_packet: 0,
            until,
            polled: 0,
            new_primary: None,
            stall_until: 0,
        }
    }

    /// OS-invoked migration: move the master to `to`, stalling the
    /// application for `stall` cycles (checkpoint + restart).
    pub fn migrate(&mut self, now: u64, to: NodeId, stall: u64) {
        self.new_primary = Some(to);
        self.stall_until = now + stall;
    }

    /// Where the master migrated to, if it has.
    pub fn migrated(&self) -> Option<NodeId> {
        self.new_primary
    }

    /// Packets issued so far.
    pub fn packets_issued(&self) -> u64 {
        self.next_packet
    }

    fn effective_dest(&mut self, src: NodeId) -> NodeId {
        // Gravity sampling as in AppModel, but retargeting primary-bound
        // packets post-migration.
        let u: f64 = self.rng.gen();
        let primary = self.new_primary.unwrap_or(self.spec.primary);
        if u < self.spec.to_primary && src != primary {
            return primary;
        }
        // Remainder: decay around the source.
        loop {
            let d = NodeId(self.rng.gen_range(0..self.mesh.routers() as u16));
            if d == src {
                continue;
            }
            let w = (-self.spec.decay * self.mesh.hop_distance(src, d) as f64).exp();
            if self.rng.gen_bool(w.clamp(0.01, 1.0)) {
                return d;
            }
        }
    }
}

impl TrafficSource for MigratableApp {
    fn poll(&mut self, cycle: u64, out: &mut Vec<Packet>) {
        self.polled = self.polled.max(cycle);
        if cycle >= self.until || cycle < self.stall_until {
            return;
        }
        for core in 0..self.mesh.cores() {
            let src = self.mesh.router_of_core(noc_types::CoreId(core as u16));
            let mut rate = self.spec.rate;
            let primary = self.new_primary.unwrap_or(self.spec.primary);
            if src == primary {
                rate *= self.spec.primary_boost;
            }
            if !self.rng.gen_bool(rate.min(1.0)) {
                continue;
            }
            let dest = self.effective_dest(src);
            let id = PacketId(self.next_packet);
            self.next_packet += 1;
            out.push(Packet::new(
                id,
                src,
                dest,
                VcId((id.0 % 4) as u8),
                self.spec.mem_base | (self.rng.gen::<u32>() & 0x00FF_FFFF),
                (core % self.mesh.concentration() as usize) as u8,
                self.spec.packet_len,
                cycle,
            ));
        }
    }

    fn done(&self) -> bool {
        self.polled + 1 >= self.until
    }
}

/// Outcome of one migration-policy run.
#[derive(Debug, Clone, Copy)]
pub struct MigrationOutcome {
    /// Cycle (post-arm) the OS migrated the master, if it did.
    pub migrated_at: Option<u64>,
    /// Packets the application offered.
    pub injected: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Peak injection-queue backlog after the attack started.
    pub peak_backlog: usize,
    /// Whether the workload fully drained.
    pub drained: bool,
}

/// Run the attack with the OS-migration policy layered on the detector:
/// a single trojan on the funnel link targets the app's original primary;
/// when any link is classified `HardwareTrojan`, the OS migrates the
/// master to the far corner and the trojan goes blind.
pub fn run_with_migration(migrate: bool, horizon: u64) -> MigrationOutcome {
    let mesh = Mesh::paper();
    let app = AppSpec::blackscholes();
    // Hot funnel link, as in Fig. 11.
    let infected = crate::hottest_links(&app, 1);

    // Mitigation on: the detector must classify the link so the OS has a
    // signal. (L-Ob alone already defeats the trojan; the migration policy
    // additionally removes the target from the attack surface entirely.)
    let mut cfg = SimConfig::paper();
    cfg.snapshot_interval = 10;
    let mut sim = Simulator::new(cfg);
    for l in &infected {
        let ht = TaspHt::new(TaspConfig::new(TargetSpec::dest(
            (app.primary.0 & 0xF) as u8,
        )));
        sim.link_faults_mut(*l).trojan = Some(ht);
    }

    let warmup = 800u64;
    let until = warmup + horizon;
    let mut appsrc = MigratableApp::new(app, mesh, 9, until);
    sim.run(warmup, &mut appsrc);
    sim.arm_trojans(true);

    // The OS reads each cycle's new events; once a link is classified
    // `HardwareTrojan`, it migrates the master to the far corner.
    let mut migrated_at = None;
    let mut seen = sim.events().len();
    let mut os = |sim: &mut Simulator, app: &mut MigratableApp, _: Landing| {
        if migrate && migrated_at.is_none() {
            let classified = sim.events()[seen..].iter().any(|e| {
                matches!(
                    e,
                    SimEvent::LinkClassified {
                        class: FaultClass::HardwareTrojan,
                        ..
                    }
                )
            });
            seen = sim.events().len();
            if classified {
                let now = sim.cycle();
                // Move the master to the far corner, 200-cycle stall.
                app.migrate(now, NodeId(15), 200);
                migrated_at = Some(now - warmup);
            }
        }
        Cue::Free
    };
    sim.drive(&mut appsrc, Stop::At(until), &mut os);
    // Drain.
    let drained = sim.run_to_quiescence(10_000, &mut appsrc);
    let peak_backlog = sim
        .stats()
        .snapshots
        .iter()
        .filter(|s| s.cycle >= warmup)
        .map(|s| s.injection_util)
        .max()
        .unwrap_or(0);
    MigrationOutcome {
        migrated_at,
        injected: appsrc.packets_issued(),
        delivered: sim.stats().delivered_packets,
        peak_backlog,
        drained,
    }
}

/// Write the migration comparison: L-Ob alone against L-Ob with the
/// OS migrating the master, over a 1,500-cycle horizon.
pub fn ext_migration(out: &mut String) {
    outln!(
        out,
        "=== Extension — OS migration driven by the threat detector ===\n"
    );
    let with = run_with_migration(true, 1500);
    let without = run_with_migration(false, 1500);
    write_table(
        out,
        &[
            "policy",
            "migrated at (post-arm)",
            "delivered/injected",
            "peak backlog (flits)",
            "drained",
        ],
        &[
            vec![
                "L-Ob only".into(),
                "-".into(),
                format!("{}/{}", without.delivered, without.injected),
                without.peak_backlog.to_string(),
                without.drained.to_string(),
            ],
            vec![
                "L-Ob + migration".into(),
                with.migrated_at
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "-".into()),
                format!("{}/{}", with.delivered, with.injected),
                with.peak_backlog.to_string(),
                with.drained.to_string(),
            ],
        ],
    );
    outln!(
        out,
        "\nAfter migration the destination-targeting trojan never sees its\n\
         target again: the attack surface is removed entirely, on top of the\n\
         1–3 cycle L-Ob penalty that had already contained it."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_neutralises_the_trojan() {
        let with = run_with_migration(true, 1200);
        assert!(with.drained, "workload must finish");
        assert_eq!(with.delivered, with.injected);
        assert!(
            with.migrated_at.is_some(),
            "the detector must have produced a trojan classification"
        );
    }

    #[test]
    fn policy_only_fires_when_enabled() {
        let without = run_with_migration(false, 600);
        assert!(without.migrated_at.is_none());
    }
}

//! Watch a single TASP trojan deadlock most of a 64-core chip.
//!
//! Reproduces the dynamics of the paper's Fig. 11: the Blackscholes
//! workload warms the network for 1500 cycles, the attacker throws the
//! kill switch, and within a few hundred cycles back-pressure from one
//! compromised link has blocked ports on most routers and choked the
//! injection queues chip-wide.
//!
//! Run: `cargo run --release --example dos_attack`

use htnoc::prelude::*;

fn main() {
    let app = AppSpec::blackscholes();
    let mesh = Mesh::paper();

    // The attacker studies the traffic (Fig. 1) and picks the hottest
    // link — the column link funnelling the upper mesh into the primary.
    let mut model = AppModel::new(app.clone(), mesh.clone(), 7);
    let shares = TrafficMatrix::sample(&mut model, 1500).link_shares_xy(&mesh);
    let infected = select_infected(&mesh, &shares, 1.0, None)
        .into_iter()
        .take(1)
        .collect::<Vec<_>>();
    let (src, dir) = mesh.link_source(infected[0]);
    println!(
        "attacker plants one TASP on link {:?} ({:?} out of router {:?}), targeting dest {:?}\n",
        infected[0], dir, src, app.primary
    );

    let mut sc = Scenario::paper_default(app, Strategy::Unprotected).with_infected(infected);
    sc.warmup = 1500;
    sc.inject_until = 3000;
    sc.max_cycles = 3000;
    sc.snapshot_interval = 10;
    let result = run_scenario(&sc);

    println!("t(post-arm)  inj-queue flits  routers ≥1 port blocked  routers >50% cores dead");
    for s in result
        .stats
        .snapshots
        .iter()
        .filter(|s| s.cycle >= 1400 && s.cycle % 150 == 0)
    {
        let t = s.cycle as i64 - 1500;
        println!(
            "{t:>11}  {:>15}  {:>23}  {:>23}",
            s.injection_util, s.routers_blocked_port, s.routers_half_cores_full
        );
    }
    // Where the damage sits: per-router injection backlog at the end,
    // rendered as a heat map (the infected funnel glows).
    println!("\nfinal injection-backlog heat map (router grid, y=3 on top):");
    let mesh2 = Mesh::paper();
    let mut sim = sc.build_sim();
    let mut traffic = sc.build_traffic(&mesh2);
    sim.run(sc.warmup, traffic.as_mut());
    sim.arm_trojans(true);
    sim.run(sc.max_cycles - sim.cycle(), traffic.as_mut());
    let backlog: Vec<f64> = (0..16)
        .map(|r| {
            (0..4)
                .map(|c| {
                    (0..4)
                        .map(|v| sim.injection_queue_len(r * 4 + c, v as u8) as f64)
                        .sum::<f64>()
                })
                .sum()
        })
        .collect();
    let peak = backlog.iter().cloned().fold(0.0f64, f64::max);
    print!("{}", htnoc::core::viz::router_grid(&mesh2, &backlog, peak));

    let worst_blocked = result
        .stats
        .snapshots
        .iter()
        .map(|s| s.routers_blocked_port)
        .max()
        .unwrap_or(0);
    let worst_dead = result
        .stats
        .snapshots
        .iter()
        .map(|s| s.routers_half_cores_full)
        .max()
        .unwrap_or(0);
    println!(
        "\none trojan, one link: {}/16 routers with a blocked port, {}/16 routers \
         with most injection ports dead",
        worst_blocked, worst_dead
    );
    println!("(paper: 68% of routers within 50–100 cycles, 81% of injection ports by 1500)");
}

//! `htnoc` — command-line front end for the simulator.
//!
//! ```text
//! htnoc attack   [--app NAME] [--strategy NAME] [--infected PCT] [--cycles N] [--seed N] [--json]
//! htnoc clean    [--app NAME] [--cycles N] [--seed N] [--json]
//! htnoc power
//! htnoc list
//! ```
//!
//! An unknown subcommand or flag, an unknown app or strategy, an
//! infection percentage outside 0–100 or an unparsable number prints the
//! usage to stderr and exits with status 2.

use htnoc::prelude::*;

const USAGE: &str = "usage:
  htnoc attack [--app NAME] [--strategy NAME] [--infected PCT] [--cycles N] [--seed N] [--json]
  htnoc clean  [--app NAME] [--cycles N] [--seed N] [--json]
  htnoc power
  htnoc list";

/// Options of `attack` and `clean`, with their defaults.
struct Opts {
    app: AppSpec,
    strategy: Strategy,
    infected_pct: f64,
    cycles: u64,
    seed: u64,
    json: bool,
}

/// Parse `--flag value` pairs (and the `--json` switch) among the
/// `allowed` flag names. Anything else, an unknown name or an unparsable
/// or out-of-range value, is an error.
fn parse_opts(args: &[String], allowed: &[&str]) -> Result<Opts, String> {
    let mut o = Opts {
        app: AppSpec::blackscholes(),
        strategy: Strategy::S2sLob,
        infected_pct: 5.0,
        cycles: 1500,
        seed: 7,
        json: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let name = arg
            .strip_prefix("--")
            .filter(|n| allowed.contains(n))
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        if name == "json" {
            o.json = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        let bad = |what: &str| format!("--{name} needs {what}, got {value:?}");
        match name {
            "app" => o.app = app_by_name(value).ok_or_else(|| bad("an app from `htnoc list`"))?,
            "strategy" => {
                o.strategy =
                    strategy_by_name(value).ok_or_else(|| bad("a strategy from `htnoc list`"))?
            }
            "infected" => {
                o.infected_pct = value
                    .parse()
                    .ok()
                    .filter(|p| (0.0..=100.0).contains(p))
                    .ok_or_else(|| bad("a percentage from 0 to 100"))?
            }
            // The attack run's cycle cap is (300 + N) * 10.
            "cycles" => {
                o.cycles = value
                    .parse::<u64>()
                    .ok()
                    .filter(|c| c.checked_add(300).and_then(|t| t.checked_mul(10)).is_some())
                    .ok_or_else(|| bad("a cycle count"))?
            }
            "seed" => o.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            _ => unreachable!("every allowed flag is handled"),
        }
    }
    Ok(o)
}

fn app_by_name(name: &str) -> Option<AppSpec> {
    AppSpec::all().into_iter().find(|a| a.name == name)
}

fn strategy_by_name(name: &str) -> Option<Strategy> {
    Some(match name {
        "unprotected" => Strategy::Unprotected,
        "e2e" => Strategy::E2eObfuscation,
        "tdm" => Strategy::Tdm { domains: 2 },
        "reroute" => Strategy::Reroute,
        "lob" | "s2s" | "s2s-lob" => Strategy::S2sLob,
        _ => return None,
    })
}

fn report(r: &htnoc::core::RunResult, json: bool) {
    if json {
        println!("{}", htnoc::core::report::run_result_json("run", r));
        return;
    }
    println!("cycles simulated     {}", r.cycles);
    println!("packets injected     {}", r.stats.injected_packets);
    println!("packets delivered    {}", r.stats.delivered_packets);
    println!("flits delivered      {}", r.stats.delivered_flits);
    println!("avg packet latency   {:.1} cycles", r.stats.avg_latency());
    println!("max packet latency   {} cycles", r.stats.latency_max);
    println!("retransmissions      {}", r.stats.retransmissions);
    println!("uncorrectable faults {}", r.stats.uncorrectable_faults);
    println!("BIST scans           {}", r.stats.bist_scans);
    println!(
        "workload finished    {}",
        if r.drained {
            "yes"
        } else {
            "NO (starved/deadlocked)"
        }
    );
    let obf = r
        .events
        .iter()
        .filter(|e| matches!(e, SimEvent::ObfuscationSucceeded { .. }))
        .count();
    if obf > 0 {
        println!("L-Ob clean crossings {obf}");
    }
}

fn cmd_attack(o: Opts) {
    let app = o.app;
    let mesh = Mesh::paper();
    let mut model = AppModel::new(app.clone(), mesh.clone(), o.seed);
    let shares = TrafficMatrix::sample(&mut model, 1500).link_shares_xy(&mesh);
    let infected = select_infected(&mesh, &shares, o.infected_pct / 100.0, Some(app.primary));
    println!(
        "workload {} | defence {:?} | {} infected links | {} injection cycles\n",
        app.name,
        o.strategy,
        infected.len(),
        o.cycles
    );
    let mut sc = Scenario::paper_default(app, o.strategy).with_infected(infected);
    sc.seed = o.seed;
    sc.warmup = 300;
    sc.inject_until = 300 + o.cycles;
    sc.max_cycles = (300 + o.cycles) * 10;
    sc.snapshot_interval = 50;
    report(&run_scenario(&sc), o.json);
}

fn cmd_clean(o: Opts) {
    println!(
        "workload {} | no trojans | {} injection cycles\n",
        o.app.name, o.cycles
    );
    let mut sc = Scenario::paper_default(o.app, Strategy::Unprotected);
    sc.seed = o.seed;
    sc.warmup = 0;
    sc.inject_until = o.cycles;
    sc.max_cycles = o.cycles * 10;
    sc.snapshot_interval = 50;
    report(&run_scenario(&sc), o.json);
}

fn cmd_power() {
    let router = RouterPower::paper();
    let mit = MitigationPower::paper();
    let (area, power) = mit.overhead(&router);
    println!(
        "router: {:.0} µm², {:.1} mW dynamic",
        router.total().area_um2,
        router.total().dynamic_uw / 1000.0
    );
    println!(
        "mitigation: {:.0} µm² (+{:.1}%), {:.0} µW (+{:.1}%)",
        mit.total().area_um2,
        area * 100.0,
        mit.total().dynamic_uw,
        power * 100.0
    );
    println!("\nTASP variants (area µm² / dynamic µW / leakage nW):");
    for (kind, p) in TaspPower::new(noc_power::CellLibrary::tsmc40()).table1() {
        println!(
            "  {:<9} {:6.2} / {:7.3} / {:6.2}",
            kind.name(),
            p.area_um2,
            p.dynamic_uw,
            p.leakage_nw
        );
    }
}

fn cmd_list() {
    println!("applications: blackscholes facesim ferret fft");
    println!("strategies:   unprotected e2e tdm reroute lob");
    println!();
    println!("paper experiments: cargo run --release -p noc-bench --bin repro  (lists them)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = args
        .split_first()
        .map_or(("", &[][..]), |(cmd, rest)| (cmd.as_str(), rest));
    let result = match cmd {
        "attack" => parse_opts(
            rest,
            &["app", "strategy", "infected", "cycles", "seed", "json"],
        )
        .map(cmd_attack),
        "clean" => parse_opts(rest, &["app", "cycles", "seed", "json"]).map(cmd_clean),
        "power" => parse_opts(rest, &[]).map(|_| cmd_power()),
        "list" => parse_opts(rest, &[]).map(|_| cmd_list()),
        "" => {
            println!("htnoc — hardware-trojan-aware NoC simulator\n\n{USAGE}");
            Ok(())
        }
        _ => Err(format!("unknown subcommand {cmd:?}")),
    };
    if let Err(err) = result {
        eprintln!("htnoc: {err}\n\n{USAGE}");
        std::process::exit(2);
    }
}

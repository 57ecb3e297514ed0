//! Reproduce the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p noc-bench --bin repro                  # list the experiments
//! cargo run --release -p noc-bench --bin repro -- fig10_speedup # print one (or more)
//! cargo run --release -p noc-bench --bin repro -- all           # rewrite results/*.txt
//! ```
//!
//! `all` runs every experiment in parallel and writes each one's text to
//! `results/<name>.txt` in this source tree; the root package's
//! `tests/reproduction.rs` fails when a committed file differs from it.

use noc_bench::repro::{find, render, render_all, results_dir, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        for (name, _) in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    if args == ["all"] {
        let dir = results_dir();
        for (name, text) in render_all() {
            let path = dir.join(format!("{name}.txt"));
            let state = match std::fs::read_to_string(&path) {
                Ok(old) if old == text => "unchanged",
                _ => "updated",
            };
            std::fs::write(&path, text).unwrap_or_else(|e| {
                eprintln!("repro: cannot write {}: {e}", path.display());
                std::process::exit(1);
            });
            println!("{state:>9}  {}", path.display());
        }
        return;
    }
    let runs: Vec<_> = args
        .iter()
        .map(|name| {
            find(name).unwrap_or_else(|| {
                eprintln!(
                    "repro: no experiment {name:?} (run `repro` for the list, `repro all` for every one)"
                );
                std::process::exit(2);
            })
        })
        .collect();
    for (_, run) in runs {
        print!("{}", render(run));
    }
}

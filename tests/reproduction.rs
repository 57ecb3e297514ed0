//! The committed `results/` is exactly what the tree prints: every
//! registered experiment's text equals its `results/<name>.txt` byte for
//! byte, and the registry and the directory name the same experiments.
//! Regenerate with `cargo run --release -p noc-bench --bin repro -- all`.

use noc_bench::repro::{render_all, results_dir, EXPERIMENTS};
use std::collections::BTreeSet;

/// Where `committed` and `printed` first part, as a one-line report.
fn first_difference(committed: &str, printed: &str) -> String {
    let mut committed_lines = committed.lines();
    let mut printed_lines = printed.lines();
    for line in 1.. {
        match (committed_lines.next(), printed_lines.next()) {
            (Some(c), Some(p)) if c == p => continue,
            (None, None) => break,
            (c, p) => {
                return format!(
                    "line {line}: committed {:?}, printed {:?}",
                    c.unwrap_or("<end of file>"),
                    p.unwrap_or("<end of text>")
                )
            }
        }
    }
    "line endings differ".into()
}

#[test]
fn every_experiment_prints_its_committed_results_file() {
    let dir = results_dir();
    let stale: Vec<String> = render_all()
        .into_iter()
        .filter_map(|(name, printed)| {
            let path = dir.join(format!("{name}.txt"));
            match std::fs::read_to_string(&path) {
                Ok(committed) if committed == printed => None,
                Ok(committed) => Some(format!(
                    "results/{name}.txt differs at {}",
                    first_difference(&committed, &printed)
                )),
                Err(e) => Some(format!("results/{name}.txt: {e}")),
            }
        })
        .collect();
    assert!(
        stale.is_empty(),
        "the committed results are not what the tree prints \
         (regenerate with `cargo run --release -p noc-bench --bin repro -- all`):\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_registry_and_results_name_the_same_experiments() {
    let registered: BTreeSet<String> = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
    let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ is readable")
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        registered, committed,
        "registered experiments vs results/*.txt"
    );
}

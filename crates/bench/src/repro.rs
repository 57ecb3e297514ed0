//! The reproduction registry: every experiment whose text is committed
//! as `results/<name>.txt`, by name.

use crate::power_tables as power;
use crate::{ablations, extensions, fig1, fig10, fig11, fig12, fig2, flood, migration};
use std::path::{Path, PathBuf};

/// One experiment: its name and the function that writes its text.
pub type Experiment = (&'static str, fn(&mut String));

/// Every experiment, in the order `repro` lists them.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig1_traffic", fig1::fig1_traffic),
    ("fig2_fault_latency", fig2::fig2_fault_latency),
    ("fig8_power_pies", power::fig8_power_pies),
    ("fig9_target_area", power::fig9_target_area),
    ("table1_tasp_overhead", power::table1_tasp_overhead),
    (
        "table2_mitigation_overhead",
        power::table2_mitigation_overhead,
    ),
    ("fig10_speedup", fig10::fig10_speedup),
    ("fig11_backpressure", fig11::fig11_backpressure),
    ("fig12_mitigation", fig12::fig12_mitigation),
    ("ablation_payload_fsm", ablations::ablation_payload_fsm),
    ("ablation_retx_scheme", ablations::ablation_retx_scheme),
    ("ablation_lob_methods", ablations::ablation_lob_methods),
    (
        "ablation_detector_thresholds",
        ablations::ablation_detector_thresholds,
    ),
    (
        "ablation_buffer_geometry",
        ablations::ablation_buffer_geometry,
    ),
    ("exp_flood_routing", flood::exp_flood_routing),
    ("exp_detectability", extensions::exp_detectability),
    ("exp_multi_trojan", extensions::exp_multi_trojan),
    ("ext_migration", migration::ext_migration),
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<Experiment> {
    EXPERIMENTS.iter().copied().find(|(n, _)| *n == name)
}

/// The text `run` writes.
pub fn render(run: fn(&mut String)) -> String {
    let mut out = String::new();
    run(&mut out);
    out
}

/// Every experiment's name and text, in registry order, run in parallel.
pub fn render_all() -> Vec<(&'static str, String)> {
    htnoc_core::sweep::par_map(EXPERIMENTS.to_vec(), None, |(name, run)| {
        (name, render(run))
    })
}

/// The committed `results/` directory of this source tree.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the root")
        .join("results")
}

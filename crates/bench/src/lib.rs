//! The figure/table regeneration harness.
//!
//! Every table, figure, ablation and extension experiment of the
//! evaluation is a function that writes its text into a `String`, listed
//! by name in [`repro::EXPERIMENTS`]. The `repro` binary prints them and
//! rewrites the committed `results/<name>.txt` files; the root package's
//! `tests/reproduction.rs` holds those files to what the tree prints.
//! The compute functions return structured data for the tests and the
//! criterion benches. EXPERIMENTS.md records paper-vs-measured for each.

use htnoc_core::prelude::*;

/// `println!` into the `String` an experiment writes.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    }};
}

pub mod ablations;
pub mod extensions;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod flood;
pub mod migration;
pub mod power_tables;
pub mod repro;
pub mod table;

/// The `n` links carrying the largest share of `app`'s traffic under XY
/// routing, hottest first, among those that leave the mesh reroutable:
/// the attacker's placement for `n` trojans (Fig. 11's funnel link when
/// `n` is 1). The shares come from 1,500 cycles of the model at seed 7.
pub fn hottest_links(app: &AppSpec, n: usize) -> Vec<LinkId> {
    let mesh = Mesh::paper();
    let mut probe = AppModel::new(app.clone(), mesh.clone(), 7);
    let shares = TrafficMatrix::sample(&mut probe, 1500).link_shares_xy(&mesh);
    select_infected(&mesh, &shares, 1.0, None)
        .into_iter()
        .take(n)
        .collect()
}

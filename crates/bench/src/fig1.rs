//! Fig. 1 — traffic distributions of an application benchmark on the
//! 64-core NoC: (a) src×dest packet matrix, (b) per-source geographic
//! totals, (c) per-link traffic shares.

use crate::table::{pct, write_table};
use htnoc_core::prelude::*;

/// All three Fig. 1 views for one application model.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// Application name.
    pub app: &'static str,
    /// Measured src x dest packet counts.
    pub matrix: TrafficMatrix,
    /// Per-source totals (Fig. 1(b)).
    pub source_totals: Vec<u64>,
    /// Per-link traffic shares under XY (Fig. 1(c)).
    pub link_shares: Vec<f64>,
}

/// Sample `cycles` of the model's offered load (Fig. 1 characterises the
/// trace, not the network response).
pub fn compute(app: AppSpec, cycles: u64, seed: u64) -> Fig1Data {
    let mesh = Mesh::paper();
    let name = app.name;
    let mut model = AppModel::new(app, mesh.clone(), seed);
    let matrix = TrafficMatrix::sample(&mut model, cycles);
    let source_totals = matrix.source_totals();
    let link_shares = matrix.link_shares_xy(&mesh);
    Fig1Data {
        app: name,
        matrix,
        source_totals,
        link_shares,
    }
}

/// Write Fig. 1's three views for Blackscholes over 5,000 sampled
/// cycles.
pub fn fig1_traffic(out: &mut String) {
    let cycles = 5000;
    let data = compute(AppSpec::blackscholes(), cycles, 7);
    let mesh = Mesh::paper();

    outln!(
        out,
        "=== Fig. 1 — {} traffic distributions ({} sampled cycles) ===\n",
        data.app,
        cycles
    );

    outln!(out, "(a) source × destination request packets:");
    let headers: Vec<String> = std::iter::once("src\\dst".to_string())
        .chain((0..16).map(|d| format!("{d}")))
        .collect();
    let hrefs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..16)
        .map(|s| {
            std::iter::once(format!("{s}"))
                .chain((0..16).map(|d| data.matrix.counts[s][d].to_string()))
                .collect()
        })
        .collect();
    write_table(out, &hrefs, &rows);

    outln!(out, "\n(b) per-source totals by mesh position (hot spots):");
    for y in (0..4).rev() {
        let row: Vec<String> = (0..4)
            .map(|x| {
                let n = mesh.node_at(noc_types::Coord::new(x, y));
                format!("{:6}", data.source_totals[n.index()])
            })
            .collect();
        outln!(out, "  y={y}  {}", row.join(" "));
    }

    outln!(
        out,
        "\n(c) per-link traffic share under XY routing (top 12):"
    );
    let hot = data.matrix.hottest_links_xy(&mesh, 12);
    let rows: Vec<Vec<String>> = hot
        .iter()
        .map(|(l, share)| {
            let (src, dir) = mesh.link_source(*l);
            vec![
                format!("link {}", l.0),
                format!("{:?} {:?}", src, dir),
                pct(*share),
            ]
        })
        .collect();
    write_table(out, &["link", "from / dir", "share"], &rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackscholes_distribution_shape() {
        let data = compute(AppSpec::blackscholes(), 2000, 11);
        // (b): the primary router is the hottest source (its cores answer
        // workers at a boosted rate).
        let primary = AppSpec::blackscholes().primary.index();
        let max_src = data
            .source_totals
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .unwrap()
            .0;
        assert_eq!(max_src, primary);
        // (c): shares form a distribution with visible peaks and valleys.
        let total: f64 = data.link_shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let max = data.link_shares.iter().cloned().fold(0.0, f64::max);
        let min = data.link_shares.iter().cloned().fold(1.0, f64::min);
        assert!(max > 4.0 * (min + 1e-12), "peaks and valleys expected");
    }
}

//! Terminal visualisation of network state: per-router heat maps and the
//! link-utilisation picture of Fig. 1(b)/(c), rendered as text grids so
//! examples and the CLI can show *where* an attack is biting.

use noc_sim::MetricsRegistry;
use noc_types::{Coord, Direction, Mesh, NodeId};

/// Map an intensity in `[0, 1]` to a heat glyph.
pub fn heat_glyph(intensity: f64) -> char {
    const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '#', '@'];
    let i = (intensity.clamp(0.0, 1.0) * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[i]
}

/// Render a 4-wide grid of per-router values as a heat map, highest row
/// (y = 3) on top. `peak` scales the ramp; zero peak renders all blank.
pub fn router_grid(mesh: &Mesh, values: &[f64], peak: f64) -> String {
    assert_eq!(values.len(), mesh.routers());
    let mut out = String::new();
    for y in (0..mesh.height()).rev() {
        out.push_str("  ");
        for x in 0..mesh.width() {
            let n = mesh.node_at(Coord::new(x, y));
            let v = if peak > 0.0 {
                values[n.index()] / peak
            } else {
                0.0
            };
            out.push('[');
            out.push(heat_glyph(v));
            out.push(']');
        }
        out.push('\n');
    }
    out
}

/// Render per-link shares as a mesh diagram: routers as `(r)` cells with
/// horizontal/vertical link glyphs between them scaled by utilisation.
pub fn link_grid(mesh: &Mesh, shares: &[f64]) -> String {
    assert_eq!(shares.len(), mesh.links());
    let peak = shares.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    let pair_heat = |a: NodeId, dir: Direction| {
        // Combine both directions of the physical pair for the glyph.
        let fwd = mesh
            .link_out(a, dir)
            .map(|l| shares[l.index()])
            .unwrap_or(0.0);
        let rev = mesh
            .neighbor(a, dir)
            .and_then(|nb| mesh.link_out(nb, dir.opposite()))
            .map(|l| shares[l.index()])
            .unwrap_or(0.0);
        (fwd + rev) / (2.0 * peak)
    };
    let mut out = String::new();
    for y in (0..mesh.height()).rev() {
        // Router row with eastward links.
        out.push_str("  ");
        for x in 0..mesh.width() {
            let n = mesh.node_at(Coord::new(x, y));
            out.push_str(&format!("({:X})", n.0));
            if x + 1 < mesh.width() {
                let h = pair_heat(n, Direction::East);
                let g = heat_glyph(h);
                out.push(g);
                out.push(g);
            }
        }
        out.push('\n');
        // Southward links below this row.
        if y > 0 {
            out.push_str("  ");
            for x in 0..mesh.width() {
                let n = mesh.node_at(Coord::new(x, y));
                let v = pair_heat(n, Direction::South);
                out.push(' ');
                out.push(heat_glyph(v));
                out.push(' ');
                if x + 1 < mesh.width() {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Render the per-link retransmission picture from the metrics registry
/// as a mesh diagram — the forensic "where is the trojan" view.
pub fn retx_heatmap(mesh: &Mesh, metrics: &MetricsRegistry) -> String {
    let shares: Vec<f64> = metrics
        .links()
        .iter()
        .map(|l| l.retransmissions.get() as f64)
        .collect();
    link_grid(mesh, &shares)
}

/// Human-readable per-link metrics table, hottest (most retransmitted)
/// links first; links with no traffic are omitted. `top` caps the rows.
pub fn link_metrics_table(metrics: &MetricsRegistry, elapsed: u64, top: usize) -> String {
    let mut rows: Vec<(usize, u64)> = metrics
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.flits.get() > 0)
        .map(|(i, l)| (i, l.retransmissions.get()))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut out =
        String::from("  link   flits    util    retx  ecc_cor  ecc_unc   nacks     lob\n");
    for (i, _) in rows.into_iter().take(top) {
        let l = metrics.link(noc_types::LinkId(i as u16));
        out.push_str(&format!(
            "  {:>4}  {:>6}  {:>5.1}%  {:>6}  {:>7}  {:>7}  {:>6}  {:>6}\n",
            i,
            l.flits.get(),
            l.utilization(elapsed) * 100.0,
            l.retransmissions.get(),
            l.ecc_corrected.get(),
            l.ecc_uncorrectable.get(),
            l.nacks.get(),
            l.lob_selections.get(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::Mesh;

    #[test]
    fn glyph_ramp_is_monotone() {
        let glyphs: Vec<char> = (0..=10).map(|i| heat_glyph(i as f64 / 10.0)).collect();
        assert_eq!(*glyphs.first().unwrap(), ' ');
        assert_eq!(*glyphs.last().unwrap(), '@');
        // Indices into the ramp never decrease.
        const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '#', '@'];
        let idx = |c: char| RAMP.iter().position(|r| *r == c).unwrap();
        assert!(glyphs.windows(2).all(|w| idx(w[0]) <= idx(w[1])));
        // Out-of-range inputs clamp.
        assert_eq!(heat_glyph(-1.0), ' ');
        assert_eq!(heat_glyph(2.0), '@');
    }

    #[test]
    fn router_grid_shape_and_orientation() {
        let mesh = Mesh::paper();
        let mut values = vec![0.0; 16];
        values[12] = 1.0; // router 12 = (0, 3): top-left cell
        let grid = router_grid(&mesh, &values, 1.0);
        let lines: Vec<&str> = grid.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("  [@]"), "{grid}");
        assert!(lines[3].starts_with("  [ ]"), "{grid}");
    }

    #[test]
    fn link_grid_renders_all_rows() {
        let mesh = Mesh::paper();
        let shares = vec![1.0 / 48.0; 48];
        let grid = link_grid(&mesh, &shares);
        // 4 router rows + 3 vertical-link rows.
        assert_eq!(grid.lines().count(), 7);
        assert!(grid.contains("(0)"));
        assert!(grid.contains("(F)"), "router 15 printed in hex: {grid}");
    }

    #[test]
    fn metrics_renderers_show_the_hot_link() {
        use noc_sim::MetricsRegistry;
        use noc_types::LinkId;
        let mesh = Mesh::paper();
        let mut m = MetricsRegistry::new(mesh.links(), mesh.routers());
        m.link_mut(LinkId(0)).flits.add(100);
        m.link_mut(LinkId(0)).retransmissions.add(40);
        m.link_mut(LinkId(5)).flits.add(10);
        let table = link_metrics_table(&m, 1000, 8);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3, "header + the two active links:\n{table}");
        assert!(lines[1].trim_start().starts_with('0'), "hottest first");
        // One direction of the pair is hot, so the pair glyph sits at
        // half intensity ('='), every other link stays blank.
        let map = retx_heatmap(&mesh, &m);
        assert!(map.contains("(0)==(1)"), "hot link rendered:\n{map}");
    }
}

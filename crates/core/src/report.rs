//! Machine-readable result export: one run's aggregates and time series
//! as JSON, so external plotting/analysis tooling can consume experiment
//! outputs without parsing the human tables. The document is a
//! [`noc_sim::json::Json`] tree, printed compactly.

use crate::experiment::RunResult;
use noc_sim::json::Json;

fn int(n: u64) -> Json {
    Json::Int(n.into())
}

/// Export one run's aggregates and time series as JSON.
pub fn run_result_json(label: &str, r: &RunResult) -> String {
    let snapshots = Json::Arr(
        r.stats
            .snapshots
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("cycle", int(s.cycle)),
                    ("input_util", int(s.input_util as u64)),
                    ("output_util", int(s.output_util as u64)),
                    ("injection_util", int(s.injection_util as u64)),
                    ("all_cores_full", int(s.routers_all_cores_full as u64)),
                    ("half_cores_full", int(s.routers_half_cores_full as u64)),
                    ("blocked", int(s.routers_blocked_port as u64)),
                    ("delivered_delta", int(s.delivered_flits)),
                    ("retx_delta", int(s.retransmissions)),
                    ("uncorrectable_delta", int(s.uncorrectable_faults)),
                ])
            })
            .collect(),
    );
    let links = Json::Arr(
        r.metrics
            .links()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                Json::obj(vec![
                    ("link", int(i as u64)),
                    ("flits", int(l.flits.get())),
                    ("retx", int(l.retransmissions.get())),
                    ("ecc_corrected", int(l.ecc_corrected.get())),
                    ("ecc_uncorrectable", int(l.ecc_uncorrectable.get())),
                    ("nacks", int(l.nacks.get())),
                    ("lob_selections", int(l.lob_selections.get())),
                ])
            })
            .collect(),
    );
    Json::obj(vec![
        ("label", Json::Str(label.to_string())),
        ("cycles", int(r.cycles)),
        ("drained", Json::Bool(r.drained)),
        ("injected_packets", int(r.stats.injected_packets)),
        ("delivered_packets", int(r.stats.delivered_packets)),
        ("avg_latency", Json::Float(r.stats.avg_latency())),
        ("p99_latency", int(r.stats.latency_percentile(0.99))),
        ("retransmissions", int(r.stats.retransmissions)),
        ("uncorrectable_faults", int(r.stats.uncorrectable_faults)),
        ("bist_scans", int(r.stats.bist_scans)),
        ("trace_events", int(r.trace.len() as u64)),
        ("links", links),
        ("snapshots", snapshots),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{MetricsRegistry, SimStats};

    #[test]
    fn run_result_exports_valid_json_shape() {
        let r = RunResult {
            stats: SimStats::default(),
            cycles: 100,
            completion: None,
            drained: true,
            events: Vec::new(),
            metrics: MetricsRegistry::new(2, 1),
            trace: Vec::new(),
        };
        let doc = Json::parse(&run_result_json("smoke", &r)).expect("valid JSON");
        assert_eq!(doc.get("label"), Some(&Json::Str("smoke".into())));
        assert_eq!(doc.get("drained"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("snapshots"), Some(&Json::Arr(Vec::new())));
        assert_eq!(doc.get("trace_events"), Some(&Json::Int(0)));
        let Some(Json::Arr(links)) = doc.get("links") else {
            panic!("per-link table exported");
        };
        assert_eq!(links[1].get("link"), Some(&Json::Int(1)));
    }
}

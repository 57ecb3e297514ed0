//! One criterion bench per paper table/figure: each measures the code path
//! that regenerates it, at a reduced scale so `cargo bench` stays
//! affordable. The full-scale prints come from the `repro` driver.

use criterion::{criterion_group, criterion_main, Criterion};
use htnoc_core::prelude::*;
use noc_bench::{fig1, fig10, fig11, fig12, fig2, power_tables};

fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1_traffic_matrix", |b| {
        b.iter(|| fig1::compute(AppSpec::blackscholes(), 500, 7))
    });
}

fn bench_fig2(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2");
    g.sample_size(10);
    g.bench_function("fault_latency_point", |b| {
        b.iter(|| fig2::measure(3, fig2::FaultKind::TrojanMitigated, 2000))
    });
    g.finish();
}

fn bench_fig8_9_tables(c: &mut Criterion) {
    c.bench_function("fig8_router_pies", |b| {
        b.iter(power_tables::fig8_router_pies)
    });
    c.bench_function("fig9_target_areas", |b| b.iter(power_tables::fig9_areas));
    c.bench_function("table1_model", |b| b.iter(power_tables::table1_model));
    c.bench_function("table2_model", |b| b.iter(power_tables::table2_model));
}

fn bench_fig10(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    let app = AppSpec::blackscholes();
    let infected = fig10::infected_for(&app, 0.05, 3);
    g.bench_function("speedup_cell_lob", |b| {
        b.iter(|| {
            let mut sc = Scenario::paper_default(app.clone(), Strategy::S2sLob)
                .with_infected(infected.clone());
            sc.warmup = 100;
            sc.inject_until = 300;
            sc.max_cycles = 4000;
            htnoc_core::run_scenario(&sc)
        })
    });
    g.finish();
}

fn bench_fig11(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11");
    g.sample_size(10);
    g.bench_function("backpressure_series", |b| {
        b.iter(|| fig11::compute(Strategy::Unprotected, 1, 300))
    });
    g.finish();
}

fn bench_fig12(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12");
    g.sample_size(10);
    g.bench_function("tdm_panel", |b| b.iter(|| fig12::compute_tdm(300)));
    g.bench_function("lob_panel", |b| b.iter(|| fig12::compute_lob(300)));
    g.finish();
}

criterion_group!(
    benches,
    bench_fig1,
    bench_fig2,
    bench_fig8_9_tables,
    bench_fig10,
    bench_fig11,
    bench_fig12
);
criterion_main!(benches);

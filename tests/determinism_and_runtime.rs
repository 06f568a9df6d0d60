//! Determinism guarantees of the simulated experiments.

use mra::workloads::{run, Algorithm, Load, Scenario};

fn sc(seed: u64) -> Scenario {
    Scenario::builder()
        .load(Load::High)
        .max_request_size(6)
        .nodes(12)
        .resources(24)
        .seed(seed)
        .measure_secs(2.0)
        .build()
}

#[test]
fn identical_seeds_identical_runs() {
    for algo in [
        Algorithm::Incremental,
        Algorithm::BouabdallahLaforest,
        Algorithm::LassLoan,
        Algorithm::Maddi,
    ] {
        let a = run(algo, &sc(77));
        let b = run(algo, &sc(77));
        assert_eq!(a.cs_completed, b.cs_completed, "{}", algo.label());
        assert_eq!(a.msgs_total, b.msgs_total, "{}", algo.label());
        assert_eq!(
            a.wait_stats().mean_ms,
            b.wait_stats().mean_ms,
            "{}",
            algo.label()
        );
    }
}

#[test]
fn different_seeds_differ() {
    let a = run(Algorithm::LassLoan, &sc(1));
    let b = run(Algorithm::LassLoan, &sc(2));
    // Message totals virtually never coincide across seeds.
    assert_ne!(
        (a.cs_completed, a.msgs_total),
        (b.cs_completed, b.msgs_total)
    );
}

#[test]
fn gantt_rendering_of_a_real_run() {
    let res = run(Algorithm::LassLoan, &sc(3));
    let gantt = mra::sim::render_gantt(&res, 72);
    // One row per resource plus header/footer.
    assert_eq!(gantt.lines().count(), 24 + 2);
    assert!(gantt.contains("use rate"));
}

//! The allocator's benchmark: four workloads, end-to-end metrics measured
//! untraced, and a traced run that adds a per-layer ledger.  See
//! README.md in this directory for the workloads, metrics and layers.

pub mod layers;
pub mod probe;
pub mod sim;
pub mod stats;
pub mod tcp;

use stats::Report;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper_sim", "scale_sim", "tcp_serve", "tcp_overload"];

/// End-to-end metrics and units, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("sim_events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("use_rate", "ratio"),
    ("wait_mean_ms", "ms"),
    ("wait_p99_ms", "ms"),
    ("msgs_per_cs", "count"),
    ("served_per_cpu_s", "1/s"),
    ("goodput_hz", "1/s"),
    ("success_frac", "ratio"),
];

/// Per-layer metrics and units, printed by every traced run.  A layer a
/// workload does not exercise reads 0 there (see README.md).
pub const PER_LAYER: [(&str, &str); 49] = [
    ("bench.wrapper_overhead_pct", "%"),
    ("types.union_ns", "ns"),
    ("types.is_disjoint_ns", "ns"),
    ("types.is_subset_ns", "ns"),
    ("types.clone_ns", "ns"),
    ("types.set_heap_bytes", "B"),
    ("core.on_message_ns.ReqCnt", "ns"),
    ("core.on_message_ns.ReqCnt1", "ns"),
    ("core.on_message_ns.ReqRes", "ns"),
    ("core.on_message_ns.ReqLoan", "ns"),
    ("core.on_message_ns.Counter", "ns"),
    ("core.on_message_ns.Token", "ns"),
    ("core.request_ns", "ns"),
    ("core.release_ns", "ns"),
    ("core.calls_per_cs", "count"),
    ("simnet.loop_self_ns_per_event", "ns"),
    ("simnet.events_per_cs", "count"),
    ("simnet.setup_build_s", "s"),
    ("simnet.setup_new_s", "s"),
    ("simnet.setup_init_s", "s"),
    ("simnet.shard_imbalance", "ratio"),
    ("workloads.next_request_ns", "ns"),
    ("serve.next_request_ns", "ns"),
    ("serve.set_now_ns", "ns"),
    ("serve.reqs_per_batch", "count"),
    ("serve.admission_wait_p50_ms", "ms"),
    ("serve.admission_wait_p99_ms", "ms"),
    ("serve.depth_high_water", "count"),
    ("serve.shed_frac", "ratio"),
    ("serve.grant_mean_ms", "ms"),
    ("serve.grant_p50_ms", "ms"),
    ("serve.grant_p99_ms", "ms"),
    ("protocol.encode_ns", "ns"),
    ("protocol.decode_ns", "ns"),
    ("protocol.bytes_per_msg.ReqCnt", "B"),
    ("protocol.bytes_per_msg.ReqCnt1", "B"),
    ("protocol.bytes_per_msg.ReqRes", "B"),
    ("protocol.bytes_per_msg.ReqLoan", "B"),
    ("protocol.bytes_per_msg.Counter", "B"),
    ("protocol.bytes_per_msg.Token", "B"),
    ("protocol.acks_per_data_frame", "ratio"),
    ("net.syscalls_per_frame", "ratio"),
    ("net.frames_per_write", "ratio"),
    ("net.syscalls_per_served", "ratio"),
    ("net.retransmits_per_served", "ratio"),
    ("net.wire_bytes_per_served", "B"),
    ("net.frame_decode_ns", "ns"),
    ("net.oversize_frames", "count"),
    ("obs.trace_ring_overhead_pct", "%"),
];

/// What one run of one workload produced.
pub struct Outcome {
    pub report: Report,
    /// Requests attempted (sim: issued in the window; TCP: offered).
    pub attempted: u64,
    /// Requests that failed (sim: censored, never granted).
    pub failed: u64,
}

/// Where traced runs write their spans: inside this package, ignored by
/// git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Add a 0 row for every ledger metric this workload's layers did not
/// produce: the layer is not on this workload's path.
pub fn null_rows(r: &mut Report) {
    for (name, unit) in PER_LAYER {
        if r.get(name).is_none() {
            r.value(name, unit, 0.0);
        }
    }
}

/// Processes `setup_s` is measured in.  Set-up time moves by up to 2×
/// from one process to the next (heap layout, page placement, where the
/// threads land) while staying within a few percent inside one, so the
/// figure is the median over fresh processes rather than over repeats in
/// this one.
const SETUP_PROCESSES: usize = 15;

/// One fresh process of this binary per sample, one after another, each
/// printing the median set-up time of `workload` it measured.
pub fn setup_in_processes(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    (0..SETUP_PROCESSES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args(["--setup-probe", workload, "--seed", &seed.to_string()])
                .output()
                .map_err(|e| format!("set-up probe process: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match (out.status.success(), text.trim().parse::<f64>()) {
                (true, Ok(v)) => Ok(v),
                _ => Err(format!(
                    "set-up probe process failed: {} {text}",
                    out.status
                )),
            }
        })
        .collect()
}

/// The set-up probe one process of [`setup_in_processes`] runs.
pub fn setup_probe(workload: &str, seed: u64) -> Result<f64, String> {
    use sim::SimWorkload;
    use tcp::TcpWorkload;
    match workload {
        "paper_sim" => Ok(sim::setup_probe(SimWorkload::Paper, seed)),
        "scale_sim" => Ok(sim::setup_probe(SimWorkload::Scale, seed)),
        "tcp_serve" => tcp::setup_probe(TcpWorkload::Serve, seed),
        "tcp_overload" => tcp::setup_probe(TcpWorkload::Overload, seed),
        _ => Err(format!("unknown workload {workload:?}")),
    }
}

/// Run one workload.  `trace` selects the traced pass (per-layer ledger)
/// instead of the end-to-end measurement.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    use sim::SimWorkload;
    use tcp::TcpWorkload;
    match (workload, trace) {
        ("paper_sim", false) => sim::measure(SimWorkload::Paper, seed, seconds),
        ("scale_sim", false) => sim::measure(SimWorkload::Scale, seed, seconds),
        ("tcp_serve", false) => tcp::measure(TcpWorkload::Serve, seed, seconds),
        ("tcp_overload", false) => tcp::measure(TcpWorkload::Overload, seed, seconds),
        ("paper_sim", true) => sim::measure_traced(SimWorkload::Paper, seed, seconds, workload),
        ("scale_sim", true) => sim::measure_traced(SimWorkload::Scale, seed, seconds, workload),
        ("tcp_serve", true) => tcp::measure_traced(TcpWorkload::Serve, seed, seconds, workload),
        ("tcp_overload", true) => {
            tcp::measure_traced(TcpWorkload::Overload, seed, seconds, workload)
        }
        _ => Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        )),
    }
}

/// Put the report in the benchmark's declared order and check it holds
/// exactly the declared metrics with their units.
pub fn canonical(report: Report, trace: bool) -> Result<Report, String> {
    let spec: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Report::default();
    for (name, unit) in spec {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if m.unit != *unit {
            return Err(format!(
                "metric {name} has unit {} but {unit} is declared",
                m.unit
            ));
        }
        out.metrics.push(m.clone());
    }
    if report.metrics.len() != spec.len() {
        let extra: Vec<&str> = report
            .metrics
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !spec.iter().any(|(s, _)| s == n))
            .collect();
        return Err(format!("undeclared metrics: {extra:?}"));
    }
    Ok(out)
}

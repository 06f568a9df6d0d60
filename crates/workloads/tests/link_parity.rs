//! Cross-commit parity goldens for the link stack (fault filter →
//! reliable session) on the two simulated substrates.
//!
//! Every other determinism suite compares two layouts of the *same* build
//! (shards 1 vs k, threads 1 vs 4).  This one pins literal digests, so a
//! refactor of the link layer that moves a single simulator event, a
//! single RNG draw or a single fault verdict fails here even when it is
//! self-consistent:
//!
//! * `Sim` — the `RunResult` digest (the same fields as `sim_scale`'s),
//!   the fault and session counters, and an FNV-1a hash of the JSONL
//!   trace, for 8-node LASS-with-loan under perfect links, drop + dup with
//!   reliability, pause + crash + partition + dup with reliability, and
//!   the drop + dup case again on 3 shards;
//! * `VirtualNet` — every field of the `FaultyReport` for LASS and
//!   Bouabdallah–Laforest under drop + dup with reliability, and under
//!   dup-only links without it.

use mra_baselines::BouabdallahLaforest;
use mra_core::LassConfig;
use mra_protocol::testkit::{run_faulty_workload, ExerciseCfg, VirtualNet};
use mra_protocol::Allocator;
use mra_sim::faults::FaultPlan;
use mra_sim::obs::{render_jsonl, TraceMode};
use mra_sim::reliable::Reliability;
use mra_sim::{LatencyModel, RunResult, Sim};
use mra_types::Time;
use mra_workloads::{Load, PaperWorkload, Scenario};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// `sim_scale`'s digest: aggregate counters plus the canonical records.
fn digest(r: &RunResult) -> u64 {
    let mut h = FNV_OFFSET;
    let mut fold = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    };
    fold(r.cs_completed);
    fold(r.censored);
    fold(r.events_processed);
    fold(r.msgs_total);
    fold(r.msg_weight);
    for rec in &r.records {
        fold(rec.node as u64);
        fold(rec.size as u64);
        fold(rec.issued.as_nanos());
        fold(rec.granted.map_or(u64::MAX, |t| t.as_nanos()));
        fold(rec.released.map_or(u64::MAX, |t| t.as_nanos()));
    }
    h
}

/// One traced 8-node LASS-with-loan run: `(digest, trace hash, counters)`.
fn sim_case(plan: Option<FaultPlan>, reliable: bool, shards: usize) -> (u64, u64, String) {
    let n = 8;
    let sc = Scenario::builder()
        .nodes(n)
        .resources(16)
        .max_request_size(4)
        .load(Load::High)
        .seed(0x5EED)
        .measure_secs(0.4)
        .shards(shards)
        .build();
    let mut cfg = sc.sim_config();
    // Jittered links: every latency draw (data, acks, retransmissions)
    // is part of what the digest pins.
    cfg.latency = LatencyModel::Uniform {
        lo: Time::from_micros(200),
        hi: Time::from_micros(900),
    };
    let mut sim = Sim::new(
        LassConfig::with_loan(n, sc.m).build_nodes(),
        PaperWorkload::per_node(&sc, n),
        sc.m,
        cfg,
    );
    if let Some(p) = plan {
        sim.set_fault_plan(p);
    }
    if reliable {
        sim.set_reliability(Reliability::with_rto(Time::from_millis(2)));
    }
    sim.set_tracing(TraceMode::Unbounded);
    let res = sim.run();
    assert_eq!(res.shards, shards);
    let trace = res.obs.trace.as_ref().expect("tracing armed");
    let jsonl = render_jsonl(trace, &res.algo, res.n, res.m);
    (
        digest(&res),
        fnv(jsonl.as_bytes()),
        format!("{:?} {:?}", res.faults, res.reliability),
    )
}

fn lossy() -> FaultPlan {
    FaultPlan::new(0xD1CE).drop_rate(0.1).dup_rate(0.1)
}

fn windows() -> FaultPlan {
    FaultPlan::new(0xBEEF)
        .dup_rate(0.2)
        .pause(3, Time::from_millis(150), Time::from_millis(220))
        .crash(5, Time::from_millis(250), Time::from_millis(300))
        .partition(
            vec![0, 1, 2],
            Time::from_millis(320),
            Time::from_millis(380),
        )
}

#[test]
fn sim_perfect_links() {
    let got = sim_case(None, false, 1);
    let want = (
        12080677955834350099,
        2313773175725027164,
        "FaultStats { dropped_link: 0, dropped_partition: 0, dropped_crash: 0, duplicated: 0, deduped: 0, deferred: 0 } ReliabilityStats { data_sent: 0, retransmits: 0, rto_fires: 0, acks_sent: 0, acks_piggybacked: 0, dup_dropped: 0, gap_dropped: 0 }",
    );
    assert_eq!((got.0, got.1, got.2.as_str()), want);
}

#[test]
fn sim_drop_dup_with_reliability() {
    let got = sim_case(Some(lossy()), true, 1);
    let want = (
        2785098444623128574,
        13634135371900625185,
        "FaultStats { dropped_link: 106, dropped_partition: 0, dropped_crash: 0, duplicated: 110, deduped: 0, deferred: 0 } ReliabilityStats { data_sent: 496, retransmits: 125, rto_fires: 110, acks_sent: 477, acks_piggybacked: 78, dup_dropped: 102, gap_dropped: 13 }",
    );
    assert_eq!((got.0, got.1, got.2.as_str()), want);
}

#[test]
fn sim_windows_and_dup_with_reliability() {
    let got = sim_case(Some(windows()), true, 1);
    let want = (
        1205026765539599081,
        12384229575441390781,
        "FaultStats { dropped_link: 0, dropped_partition: 28, dropped_crash: 16, duplicated: 146, deduped: 0, deferred: 12 } ReliabilityStats { data_sent: 343, retransmits: 56, rto_fires: 49, acks_sent: 306, acks_piggybacked: 50, dup_dropped: 82, gap_dropped: 1 }",
    );
    assert_eq!((got.0, got.1, got.2.as_str()), want);
}

#[test]
fn sim_drop_dup_with_reliability_on_3_shards() {
    let got = sim_case(Some(lossy()), true, 3);
    let want = (
        2785098444623128574,
        13634135371900625185,
        "FaultStats { dropped_link: 106, dropped_partition: 0, dropped_crash: 0, duplicated: 110, deduped: 0, deferred: 0 } ReliabilityStats { data_sent: 496, retransmits: 125, rto_fires: 110, acks_sent: 477, acks_piggybacked: 78, dup_dropped: 102, gap_dropped: 13 }",
    );
    assert_eq!((got.0, got.1, got.2.as_str()), want);
}

/// Every field of one `run_faulty_workload` report, rendered.
fn vnet_case<A: Allocator>(nodes: Vec<A>, plan: &FaultPlan, reliable: bool) -> String {
    let m = 6;
    let mut net = VirtualNet::new(nodes, m);
    net.install_faults(plan);
    if reliable {
        net.enable_reliability(Reliability::default());
    }
    let cfg = ExerciseCfg {
        rounds_per_node: 4,
        max_req_size: 3,
        m,
        hold_steps: 2,
        active_nodes: None,
        step_cap: 2_000_000,
    };
    let mut rng = StdRng::seed_from_u64(0xACE);
    let r = run_faulty_workload(&mut net, &cfg, &mut rng);
    format!(
        "cs={} starved={:?} actions={} delivered={} stats={:?} rel={:?}",
        r.cs_completed, r.starved, r.actions, r.delivered, r.stats, r.reliability
    )
}

#[test]
fn virtualnet_reports() {
    let loss = FaultPlan::new(0x1055).drop_rate(0.2).dup_rate(0.1);
    let dup = FaultPlan::new(0xD0B).dup_rate(1.0);
    let got = [
        vnet_case(LassConfig::with_loan(4, 6).build_nodes(), &loss, true),
        vnet_case(BouabdallahLaforest::build_nodes(4, 6), &loss, true),
        vnet_case(LassConfig::with_loan(4, 6).build_nodes(), &dup, false),
        vnet_case(BouabdallahLaforest::build_nodes(4, 6), &dup, false),
    ];
    let want = [
        "cs=16 starved=[] actions=258 delivered=71 stats=FaultStats { dropped_link: 38, dropped_partition: 0, dropped_crash: 0, duplicated: 14, deduped: 0, deferred: 0 } rel=ReliabilityStats { data_sent: 71, retransmits: 42, rto_fires: 28, acks_sent: 74, acks_piggybacked: 19, dup_dropped: 19, gap_dropped: 12 }",
        "cs=16 starved=[] actions=241 delivered=77 stats=FaultStats { dropped_link: 35, dropped_partition: 0, dropped_crash: 0, duplicated: 12, deduped: 0, deferred: 0 } rel=ReliabilityStats { data_sent: 77, retransmits: 32, rto_fires: 22, acks_sent: 59, acks_piggybacked: 32, dup_dropped: 16, gap_dropped: 7 }",
        "cs=16 starved=[] actions=132 delivered=68 stats=FaultStats { dropped_link: 0, dropped_partition: 0, dropped_crash: 0, duplicated: 68, deduped: 68, deferred: 0 } rel=ReliabilityStats { data_sent: 0, retransmits: 0, rto_fires: 0, acks_sent: 0, acks_piggybacked: 0, dup_dropped: 0, gap_dropped: 0 }",
        "cs=16 starved=[] actions=155 delivered=91 stats=FaultStats { dropped_link: 0, dropped_partition: 0, dropped_crash: 0, duplicated: 91, deduped: 91, deferred: 0 } rel=ReliabilityStats { data_sent: 0, retransmits: 0, rto_fires: 0, acks_sent: 0, acks_piggybacked: 0, dup_dropped: 0, gap_dropped: 0 }",
    ];
    assert_eq!(got, want);
}

//! Wire-level integration: an 8-node loopback cluster over **real TCP**
//! completes its round quota with zero safety violations, for LASS and for
//! a baseline.  A safety violation panics inside the shared
//! `SafetyMonitor` (same checker as every other substrate), so plain
//! completion is the assertion.
//!
//! Honors `MRA_FAST=1` by shrinking the per-node round quota.

use mra::baselines::{BouabdallahLaforest, Maddi};
use mra::core::LassConfig;
use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::protocol::faults::FaultPlan;
use mra::protocol::reliable::Reliability;
use mra::sim::FixedWorkload;
use mra::types::Time;
use std::time::{Duration, Instant};

const N: usize = 8;
const M: usize = 16;

fn fast() -> bool {
    std::env::var("MRA_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Per-node round quota: `MRA_FAST` (the CI knob that shrinks every
/// workload in the workspace) quarters it.
fn rounds() -> usize {
    if fast() {
        3
    } else {
        12
    }
}

fn workloads() -> Vec<FixedWorkload> {
    (0..N)
        .map(|_| FixedWorkload {
            think: Time::from_micros(300),
            cs: Time::from_micros(500),
            m: M,
            size: 3,
        })
        .collect()
}

#[test]
fn lass_8_node_cluster_over_tcp() {
    let rounds = rounds();
    let cfg = LassConfig::with_loan(N, M);
    let res = run_tcp_cluster(
        cfg.build_nodes(),
        workloads(),
        M,
        TcpClusterConfig::new(rounds, 0xC0FF_EE00),
    );
    assert_eq!(res.algo, "lass+loan");
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
    assert_eq!(res.wait_stats().count, N * rounds);
    // Real traffic flowed: LASS needs counters and tokens for remote sets.
    assert!(res.msgs_total > 0, "no messages crossed the wire");
}

#[test]
fn bouabdallah_laforest_8_node_cluster_over_tcp() {
    let rounds = rounds();
    let res = run_tcp_cluster(
        BouabdallahLaforest::build_nodes(N, M),
        workloads(),
        M,
        TcpClusterConfig::new(rounds, 0xBEEF),
    );
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
    // The control token alone costs messages every cycle.
    assert!(res.msgs_per_cs() >= 1.0);
}

/// A quota run on the reactor also tallies its transport counters: the
/// harness folds every node's counters into the run report.
#[test]
fn lass_8_node_cluster_on_the_reactor_backend() {
    let rounds = rounds();
    let cfg = LassConfig::with_loan(N, M);
    let res = run_tcp_cluster(
        cfg.build_nodes(),
        workloads(),
        M,
        TcpClusterConfig::new(rounds, 0xC0FF_EE01),
    );
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
    // Any quota run moves frames and costs write syscalls.
    assert!(res.obs.net.frames_out > 0, "no outbound frames tallied");
    assert!(res.obs.net.frames_in > 0, "no inbound frames tallied");
    assert!(res.obs.net.write_calls > 0, "no write syscalls tallied");
    assert!(res.obs.net.read_calls > 0, "no read syscalls tallied");
}

/// The reactor's coalescing claim: every run spends fewer than 1.5
/// read+write syscalls per wire frame, the cost of a
/// thread-per-connection transport (one write plus two blocking reads per
/// frame) by construction.  Unlike wall or CPU time the syscall count is
/// free of timing noise.  Near-zero think and CS times make nodes
/// re-request as fast as the transport carries tokens, so the wire is
/// saturated: token-serialized LASS (the wakeup-dominated worst case),
/// broadcast-heavy Maddi (concurrent traffic, where coalescing shows), and
/// LASS over a 10% drop shim with the session layer's acks and
/// retransmits in the mix.
#[test]
fn reactor_spends_fewer_than_one_and_a_half_syscalls_per_frame() {
    let saturating = |n: usize| -> Vec<FixedWorkload> {
        (0..n)
            .map(|_| FixedWorkload {
                think: Time::from_micros(5),
                cs: Time::from_micros(10),
                m: M,
                size: 3,
            })
            .collect()
    };
    // (label, Maddi instead of LASS-loan, nodes, full-mode rounds, lossy)
    let points = [
        ("lass_loan_8n", false, 8, 80, false),
        ("maddi_16n", true, 16, 40, false),
        ("lass_loan_8n_reliable_loss10", false, 8, 80, true),
    ];
    for (label, maddi, n, full_rounds, lossy) in points {
        let rounds = if fast() { full_rounds / 4 } else { full_rounds };
        let cfg = TcpClusterConfig {
            faults: lossy.then(|| FaultPlan::new(0xFA17).drop_rate(0.1)),
            reliability: lossy.then(|| Reliability::with_rto(Time::from_millis(2))),
            ..TcpClusterConfig::new(rounds, 0xBE7_0000)
        };
        let res = if maddi {
            run_tcp_cluster(Maddi::build_nodes(n, M), saturating(n), M, cfg)
        } else {
            let nodes = LassConfig::with_loan(n, M).build_nodes();
            run_tcp_cluster(nodes, saturating(n), M, cfg)
        };
        assert_eq!(res.cs_completed, (n * rounds) as u64, "{label}");
        let ratio = res.obs.net.syscalls_per_frame().expect("frames moved");
        println!("{label}: {ratio:.4} syscalls/frame");
        assert!(ratio < 1.5, "{label}: {ratio:.4} syscalls per frame");
    }
}

#[test]
fn reactor_backend_recovers_a_lossy_wire_with_the_session_layer() {
    // Reliability + a 10% drop shim on the reactor path: the session
    // layer runs *inside* the reactor here (RTOs on its timer wheel,
    // acks coalesced into the next flush), so the exact quota under loss
    // is the end-to-end proof that batching broke no session invariant.
    let rounds = rounds();
    let cfg = LassConfig::with_loan(N, M);
    let res = run_tcp_cluster(
        cfg.build_nodes(),
        workloads(),
        M,
        TcpClusterConfig {
            faults: Some(FaultPlan::new(0xFA17).drop_rate(0.1).dup_rate(0.05)),
            reliability: Some(Reliability::with_rto(Time::from_millis(2))),
            ..TcpClusterConfig::new(rounds, 0xC0FF_EE02)
        },
    );
    assert_eq!(res.cs_completed, (N * rounds) as u64);
    assert_eq!(res.censored, 0);
}

#[test]
fn lass_handles_emulated_wan_latency_over_tcp() {
    // A short run with 1 ms of artificial one-way latency stacked on the
    // loopback wire: still exact quota, still violation-free.
    let cfg = LassConfig::with_loan(4, 8);
    let res = run_tcp_cluster(
        cfg.build_nodes(),
        (0..4)
            .map(|_| FixedWorkload {
                think: Time::from_micros(200),
                cs: Time::from_micros(400),
                m: 8,
                size: 2,
            })
            .collect(),
        8,
        TcpClusterConfig {
            extra_latency: Time::from_millis(1),
            ..TcpClusterConfig::new(3, 42)
        },
    );
    assert_eq!(res.cs_completed, 12);
    assert_eq!(res.censored, 0);
}

#[test]
fn emulated_latency_does_not_stretch_critical_sections() {
    // Every node's CS-end timer falls due while messages are still held
    // back by the emulated link latency; the node must leave its critical
    // section on its own timer, not once the held-back message is due.
    let extra = Time::from_millis(2);
    let res = run_tcp_cluster(
        LassConfig::with_loan(4, 8).build_nodes(),
        (0..4)
            .map(|_| FixedWorkload {
                think: Time::from_micros(200),
                cs: Time::from_micros(100),
                m: 8,
                size: 2,
            })
            .collect(),
        8,
        TcpClusterConfig {
            extra_latency: extra,
            ..TcpClusterConfig::new(10, 42)
        },
    );
    assert_eq!(res.cs_completed, 40);
    for r in &res.records {
        let held = r.released.expect("released") - r.granted.expect("granted");
        assert!(
            held < extra,
            "node {} held a 100 us critical section for {:.3} ms",
            r.node,
            held.as_millis_f64()
        );
    }
}

#[test]
fn sub_millisecond_timers_on_tcp() {
    // 50 us think times and 20 us critical sections: timers rounded up
    // to whole milliseconds would cost at least 2 ms per round.
    const R: usize = 200;
    let t0 = Instant::now();
    let res = run_tcp_cluster(
        LassConfig::with_loan(2, 4).build_nodes(),
        (0..2)
            .map(|_| FixedWorkload {
                think: Time::from_micros(50),
                cs: Time::from_micros(20),
                m: 4,
                size: 1,
            })
            .collect(),
        4,
        TcpClusterConfig::new(R, 7),
    );
    let wall = t0.elapsed();
    assert_eq!(res.cs_completed, 2 * R as u64);
    assert!(
        wall < Duration::from_millis(R as u64),
        "{R} rounds took {wall:?}"
    );
}

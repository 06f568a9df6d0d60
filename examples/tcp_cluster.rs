//! Run the same LASS workload on a TCP loopback cluster, once over the raw
//! wire and once with emulated link latency stacked on it, and compare
//! their metrics side by side.  This is the paper's deployment story in
//! one screen: the protocol state machines, workload driver and safety
//! monitoring of the simulator, over real sockets.
//!
//! ```text
//! cargo run --release --example tcp_cluster
//! ```

use mra::core::LassConfig;
use mra::net::{run_tcp_cluster, TcpClusterConfig};
use mra::sim::{FixedWorkload, RunResult};
use mra::types::Time;

const N: usize = 4;
const M: usize = 12;
const SIZE: usize = 3;

fn workloads() -> Vec<FixedWorkload> {
    (0..N)
        .map(|_| FixedWorkload {
            think: Time::from_micros(300),
            cs: Time::from_micros(500),
            m: M,
            size: SIZE,
        })
        .collect()
}

fn report(label: &str, res: &RunResult) {
    let w = res.wait_stats();
    println!(
        "{label:<18} {:>4} CS   wait mean {:7.3} ms (p95 {:7.3})   {:5.1} msgs/CS   weight {}",
        res.cs_completed,
        w.mean_ms,
        w.p95_ms,
        res.msgs_per_cs(),
        res.msg_weight,
    );
}

fn main() {
    let fast = std::env::var("MRA_FAST").is_ok_and(|v| !v.is_empty() && v != "0");
    let rounds = if fast { 4 } else { 12 };
    let seed = 7;

    println!(
        "LASS (with loan), {N} nodes x {M} resources, {SIZE} per request, \
         {rounds} rounds per node\n"
    );

    // The protocol over real loopback TCP sockets, raw.
    let tcp_res = run_tcp_cluster(
        LassConfig::with_loan(N, M).build_nodes(),
        workloads(),
        M,
        TcpClusterConfig::new(rounds, seed),
    );
    report("tcp loopback", &tcp_res);

    // And once more with 50 us of emulated latency per hop stacked on the
    // wire: the waits grow, the quota and safety do not change.
    let tcp_lat = run_tcp_cluster(
        LassConfig::with_loan(N, M).build_nodes(),
        workloads(),
        M,
        TcpClusterConfig {
            extra_latency: Time::from_micros(50),
            ..TcpClusterConfig::new(rounds, seed)
        },
    );
    report("tcp + 50us", &tcp_lat);

    let quota = (N * rounds) as u64;
    assert_eq!(tcp_res.cs_completed, quota);
    assert_eq!(tcp_lat.cs_completed, quota);
    println!(
        "\nBoth runs completed their quota of {quota} critical sections \
         with zero safety violations."
    );
}

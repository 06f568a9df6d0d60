//! The two serving workloads on the TCP reactor: a 2-node loopback
//! cluster (one connection) running LASS with loan and the reliable
//! session, fed by `ServeWorkload`'s open-loop Poisson arrivals.
//! `tcp_serve` offers about half of saturation, `tcp_overload` at least
//! twice saturation.
//!
//! The paper's virtual-time quantities (use rate, waiting time, messages
//! per critical section) and the simulator's event rate come, on these
//! workloads, from the same serving configuration replayed on the
//! simulator over a loopback-like link: wall-clock waits on a shared
//! 2-core machine swing with every scheduler stall, while the replay is
//! deterministic for a seed, so a change to the protocol's schedule under
//! this load shows there.

use crate::layers::{codec_rows, core_rows, types_rows, write_spans};
use crate::probe::{
    new_ledger, peak_rss_mb, process_cpu_ns, take_ledger, FirstPoll, NodeLedger, TimedAlloc,
    TimedWorkload,
};
use crate::sim::{check_digest, run_phases, Digest, SimRun};
use crate::stats::{median, quantile, Report};
use crate::{null_rows, Outcome};
use mra_core::{LassConfig, LassMsg};
use mra_net::{run_tcp_cluster, NetBackend, TcpClusterConfig};
use mra_obs::TraceMode;
use mra_protocol::reliable::Reliability;
use mra_serve::{
    check_conservation, RequestShape, ServeConfig, ServeStats, ServeWorkload, SharedServeStats,
};
use mra_sim::{LatencyModel, SimConfig};
use mra_sim::{RunResult, Workload};
use mra_types::Time;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NODES: usize = 2;
const RESOURCES: usize = 16;
/// Virtual serving time of one simulator replay (after 0.2 s warm-up).
const REPLAY_S: f64 = 8.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpWorkload {
    Serve,
    Overload,
}

impl TcpWorkload {
    /// Offered Poisson rate per node.  Two nodes saturate near 16 k
    /// served/s each on a 2-core machine in its good phases, and near a
    /// third of that while the host steals CPU time: `Serve` offers an
    /// eighth of the good-phase saturation, which the cluster keeps up with
    /// in both phases, and `Overload` ~2.5× of it.
    fn rate_hz(self) -> f64 {
        match self {
            TcpWorkload::Serve => 2_000.0,
            TcpWorkload::Overload => 40_000.0,
        }
    }

    /// Critical-section batches each node must complete per cluster run
    /// (about half a second of serving per run).
    fn rounds(self) -> usize {
        match self {
            TcpWorkload::Serve => 1_000,
            TcpWorkload::Overload => 1_500,
        }
    }

    /// The serving front end for `seed`: arrivals, request shapes
    /// (1–3 of 16 resources, 5–20 µs critical sections) and admission.
    /// `Serve` issues every request alone and queues instead of shedding:
    /// it measures the per-request wire path, and with the default 64-deep
    /// queue the ~30 ms scheduling stalls of a shared host shed requests
    /// even at a fifth of saturation, turning stalls into refusals and
    /// singletons into batches.  `Overload` keeps the default admission.
    pub fn serve_config(self, seed: u64) -> ServeConfig {
        let (max_depth, max_batch) = match self {
            TcpWorkload::Serve => (1 << 16, 1),
            TcpWorkload::Overload => (
                ServeConfig::default().max_depth,
                ServeConfig::default().max_batch,
            ),
        };
        ServeConfig {
            rate_hz: self.rate_hz(),
            max_depth,
            max_batch,
            shape: RequestShape {
                m: RESOURCES,
                phi: 3,
                cs_min: Time::from_micros(5),
                cs_max: Time::from_micros(20),
                classes: 2,
            },
            seed: seed ^ 0x5e21_0000,
            ..ServeConfig::default()
        }
    }

    /// The simulator configuration of the replay.  Links take 10–30 µs,
    /// the order of a loopback TCP hop; the spread keeps waiting times
    /// from collapsing onto multiples of one constant latency.
    fn replay_config(self, seed: u64) -> SimConfig {
        SimConfig {
            latency: LatencyModel::Uniform {
                lo: Time::from_micros(10),
                hi: Time::from_micros(30),
            },
            seed,
            warmup: Time::from_millis(200),
            measure: Time::from_secs_f64(REPLAY_S),
            drain: Time::from_millis(200),
            active_nodes: None,
            max_events: 100_000_000,
            shards: 1,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            TcpWorkload::Serve => "tcp_serve",
            TcpWorkload::Overload => "tcp_overload",
        }
    }

    fn cluster_config(self, seed: u64, rounds: usize) -> TcpClusterConfig {
        TcpClusterConfig {
            backend: NetBackend::Reactor,
            reliability: Some(Reliability::default()),
            ..TcpClusterConfig::new(rounds, seed)
        }
    }
}

/// One cluster run and what it served.
pub struct TcpRun {
    /// Call start → every node's workload first polled.
    pub setup_s: f64,
    /// Last first poll → cluster joined.
    pub serve_s: f64,
    pub cpu_s: f64,
    pub result: RunResult,
    pub serve: ServeStats,
}

impl TcpRun {
    /// The run's output checks: the round quota was met, every batch
    /// issued was served, and the serving counters conserve requests.
    /// (The cluster itself asserts mutual exclusion and holder-table
    /// conservation and panics on a breach.)
    fn check(&self, rounds: usize) -> Result<(), String> {
        let s = &self.serve;
        let quota = (NODES * rounds) as u64;
        if self.result.cs_completed != quota || s.batches != quota {
            return Err(format!(
                "quota not met: {} critical sections, {} batches, expected {quota}",
                self.result.cs_completed, s.batches
            ));
        }
        if s.served != s.batched_reqs || s.granted != s.served {
            return Err(format!(
                "requests left in flight: batched {} granted {} served {}",
                s.batched_reqs, s.granted, s.served
            ));
        }
        check_conservation(s, s.admitted - s.batched_reqs, 0)
    }

    fn served_per_cpu_s(&self) -> f64 {
        self.serve.served as f64 / self.cpu_s
    }
}

fn lass_nodes() -> Vec<mra_core::Lass> {
    LassConfig::with_loan(NODES, RESOURCES).build_nodes()
}

/// Run the cluster over `workloads`; `first_poll` reports when the last
/// node was first polled.
fn run_cluster<A, W>(
    w: TcpWorkload,
    seed: u64,
    rounds: usize,
    nodes: Vec<A>,
    workloads: Vec<W>,
    handles: &[SharedServeStats],
    first_poll: impl FnOnce() -> Option<Instant>,
) -> Result<TcpRun, String>
where
    A: mra_protocol::Allocator + Send + 'static,
    A::Msg: mra_protocol::WireCodec,
    W: Workload + 'static,
{
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let result = run_tcp_cluster(nodes, workloads, RESOURCES, w.cluster_config(seed, rounds));
    let t1 = Instant::now();
    let cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    let polled = first_poll().ok_or("no workload was ever polled")?;
    let run = TcpRun {
        setup_s: (polled - t0).as_secs_f64(),
        serve_s: (t1 - polled).as_secs_f64(),
        cpu_s,
        result,
        serve: SharedServeStats::merge_all(handles),
    };
    run.check(rounds)?;
    Ok(run)
}

/// One cluster run of the program as it ships (only the first poll is
/// noted, to end the set-up interval).
pub fn run_plain(w: TcpWorkload, seed: u64) -> Result<TcpRun, String> {
    run_plain_rounds(w, seed, w.rounds())
}

fn run_plain_rounds(w: TcpWorkload, seed: u64, rounds: usize) -> Result<TcpRun, String> {
    let (workloads, handles) = ServeWorkload::fleet(&w.serve_config(seed), NODES);
    let polled = Arc::new(Mutex::new(None));
    let wl = FirstPoll::fleet(workloads, &polled);
    run_cluster(w, seed, rounds, lass_nodes(), wl, &handles, || {
        *polled.lock().expect("first-poll lock")
    })
}

/// A cluster run with every protocol and workload call timed, and what
/// the timing adapters recorded.
pub type TimedRun = (TcpRun, NodeLedger<LassMsg>);

/// One cluster run with every protocol and workload call timed.
pub fn run_timed(w: TcpWorkload, seed: u64) -> Result<TimedRun, String> {
    let (workloads, handles) = ServeWorkload::fleet(&w.serve_config(seed), NODES);
    let ledger = new_ledger();
    let epoch = Instant::now();
    let nodes = TimedAlloc::fleet(lass_nodes(), epoch, &ledger);
    let wl = TimedWorkload::fleet(workloads, epoch, &ledger);
    // The adapters fold into the ledger when the node threads drop them,
    // which is before the cluster call returns.
    let first = ledger.clone();
    let run = run_cluster(w, seed, w.rounds(), nodes, wl, &handles, move || {
        first.lock().expect("ledger lock").first_poll
    })?;
    Ok((run, take_ledger(&ledger)))
}

/// Cluster set-ups one probe process times (each a one-round cluster run;
/// the first warms the process and is dropped).
const SETUP_RUNS: usize = 6;

/// Median set-up time of one-round cluster runs in this process.
pub fn setup_probe(w: TcpWorkload, seed: u64) -> Result<f64, String> {
    let times = (0..SETUP_RUNS)
        .map(|_| run_plain_rounds(w, seed, 1).map(|r| r.setup_s))
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&times[1..]))
}

/// One simulator replay of the serving configuration, with the serving
/// counters' conservation checked.
fn replay(w: TcpWorkload, seed: u64) -> Result<SimRun, String> {
    let (workloads, handles) = ServeWorkload::fleet(&w.serve_config(seed), NODES);
    let cfg = w.replay_config(seed);
    let run = run_phases(
        move || (lass_nodes(), workloads, RESOURCES, cfg),
        TraceMode::Off,
        Some(Reliability::default()),
    );
    let s = SharedServeStats::merge_all(&handles);
    check_conservation(&s, s.admitted - s.batched_reqs, s.batched_reqs - s.served)
        .map_err(|e| format!("replay: {e}"))?;
    Ok(run)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The end-to-end run: untraced cluster runs for `seconds`.
pub fn measure(w: TcpWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut rss = 0.0;
    let mut replay_rates = Vec::new();
    let mut digest: Option<Digest> = None;
    let mut replayed = None;
    while runs.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        runs.push(run_plain(w, seed)?);
        if runs.len() == 1 {
            rss = peak_rss_mb();
        }
        let rep = replay(w, seed)?;
        let d = Digest::of(&rep.result);
        match &digest {
            None => digest = Some(d),
            Some(first) => check_digest(first, &d, &format!("replay {}", replay_rates.len()))?,
        }
        replay_rates.push(rep.result.events_processed as f64 / rep.loop_s);
        replayed = Some(rep.result);
    }
    let digest = digest.expect("one replay");
    let replayed = replayed.expect("one replay");
    println!("replay digest: {}", digest.line());
    let per = |f: &dyn Fn(&TcpRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    let mut r = Report::default();
    r.samples("sim_events_per_s", "1/s", &replay_rates);
    r.samples("setup_s", "s", &crate::setup_in_processes(w.name(), seed)?);
    r.value("peak_rss_mb", "MiB", rss);
    let waits = replayed.records.len();
    r.pooled("use_rate", "ratio", digest.use_rate, 1);
    r.pooled("wait_mean_ms", "ms", digest.wait_mean_ms, waits);
    r.pooled("wait_p99_ms", "ms", digest.wait_p99_ms, waits);
    r.pooled("msgs_per_cs", "count", replayed.msgs_per_cs(), 1);
    r.samples("served_per_cpu_s", "1/s", &per(&TcpRun::served_per_cpu_s));
    r.samples(
        "goodput_hz",
        "1/s",
        &per(&|x| x.serve.served as f64 / x.serve_s),
    );
    r.samples(
        "success_frac",
        "ratio",
        &per(&|x| 1.0 - x.serve.shed() as f64 / x.serve.offered as f64),
    );
    let offered: u64 = runs.iter().map(|x| x.serve.offered).sum();
    // Shed requests are refusals by design of the admission layer, not
    // failed operations; a lost request fails the run's checks instead.
    Ok(Outcome {
        report: r,
        attempted: offered,
        failed: 0,
    })
}

/// The traced run: interleaved plain/timed cluster runs (both checked),
/// then the serve, protocol and net ledger from the timed ones.
pub fn measure_traced(
    w: TcpWorkload,
    seed: u64,
    seconds: f64,
    workload: &str,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut overhead = Vec::new();
    let mut plains: Vec<TcpRun> = Vec::new();
    let mut timed: Vec<TimedRun> = Vec::new();
    let mut pair = 0;
    while pair < 3 || start.elapsed().as_secs_f64() < seconds * 0.8 {
        let (plain, t) = if pair % 2 == 0 {
            let p = run_plain(w, seed)?;
            (p, run_timed(w, seed)?)
        } else {
            let t = run_timed(w, seed)?;
            (run_plain(w, seed)?, t)
        };
        // CPU per served request, timed vs plain.
        overhead.push(100.0 * (plain.served_per_cpu_s() / t.0.served_per_cpu_s() - 1.0));
        plains.push(plain);
        timed.push(t);
        pair += 1;
    }
    let mut r = Report::default();
    r.samples("bench.wrapper_overhead_pct", "%", &overhead);

    let per = |f: &dyn Fn(&TimedRun) -> f64| timed.iter().map(f).collect::<Vec<f64>>();
    let (run, ledger) = timed.last().expect("one timed run");
    let requests = ledger.request.calls.max(1);
    core_rows(ledger, requests, &mut r);
    // The node loop (mra-sim's runtime) runs on the node threads: their
    // CPU time minus what the protocol and workload calls took.
    r.samples(
        "simnet.loop_self_ns_per_event",
        "ns",
        &per(&|(_, l)| {
            let inside = (l.protocol_calls().ns + l.workload_calls().ns) as f64;
            (l.thread_cpu_ns as f64 - inside) / l.protocol_calls().calls.max(1) as f64
        }),
    );
    r.value(
        "simnet.events_per_cs",
        "count",
        ledger.protocol_calls().calls as f64 / requests as f64,
    );

    let s = &run.serve;
    r.value("serve.next_request_ns", "ns", ledger.next_request.mean_ns());
    r.value("serve.set_now_ns", "ns", ledger.set_now.mean_ns());
    r.samples(
        "serve.reqs_per_batch",
        "count",
        &per(&|(x, _)| x.serve.batched_reqs as f64 / x.serve.batches as f64),
    );
    r.samples(
        "serve.admission_wait_p50_ms",
        "ms",
        &per(&|(_, l)| ms(median(&l.admission_wait_ns))),
    );
    r.samples(
        "serve.admission_wait_p99_ms",
        "ms",
        &per(&|(_, l)| ms(quantile(&l.admission_wait_ns, 0.99))),
    );
    r.value("serve.depth_high_water", "count", s.depth_high_water as f64);
    r.samples(
        "serve.shed_frac",
        "ratio",
        &per(&|(x, _)| x.serve.shed() as f64 / x.serve.offered as f64),
    );
    // Wall-clock intended-arrival → grant latency, from the untimed runs:
    // reported, not bounded, because scheduler stalls on a shared 2-core
    // machine move it by multiples between runs.
    let grant = |f: &dyn Fn(&ServeStats) -> f64| {
        plains.iter().map(|x| ms(f(&x.serve))).collect::<Vec<f64>>()
    };
    r.samples(
        "serve.grant_mean_ms",
        "ms",
        &grant(&|s| s.grant_latency.mean()),
    );
    r.samples(
        "serve.grant_p50_ms",
        "ms",
        &grant(&|s| s.grant_latency.p50()),
    );
    r.samples(
        "serve.grant_p99_ms",
        "ms",
        &grant(&|s| s.grant_latency.p99()),
    );

    let net = |x: &TcpRun| x.result.obs.net.clone();
    r.samples(
        "protocol.acks_per_data_frame",
        "ratio",
        &per(&|(x, _)| net(x).ack_frames as f64 / net(x).frames_out.max(1) as f64),
    );
    r.samples(
        "net.syscalls_per_frame",
        "ratio",
        &per(&|(x, _)| net(x).syscalls_per_frame().unwrap_or(0.0)),
    );
    r.samples(
        "net.frames_per_write",
        "ratio",
        &per(&|(x, _)| net(x).frames_per_write().unwrap_or(0.0)),
    );
    r.samples(
        "net.syscalls_per_served",
        "ratio",
        &per(&|(x, _)| (net(x).read_calls + net(x).write_calls) as f64 / x.serve.served as f64),
    );
    // Retransmissions on a loss-free loopback link: the RTO fired before
    // the ack came back, so something held the ack (or the frame) that long.
    r.samples(
        "net.retransmits_per_served",
        "ratio",
        &per(&|(x, _)| net(x).retransmit_frames as f64 / x.serve.served as f64),
    );
    r.samples(
        "net.wire_bytes_per_served",
        "B",
        &per(&|(x, _)| net(x).bytes_out as f64 / x.serve.served as f64),
    );
    types_rows(&ledger.sets, &mut r);
    codec_rows(&ledger.msgs, &mut r);
    null_rows(&mut r);

    let loop_ns = (run.setup_s + run.serve_s) * 1e9;
    let path = crate::out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    write_spans(&path, workload, loop_ns as u64, &ledger.spans);
    println!(
        "spans: {} written to {}",
        ledger.spans.len(),
        path.display()
    );
    Ok(Outcome {
        report: r,
        attempted: s.offered,
        failed: 0,
    })
}

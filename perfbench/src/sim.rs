//! The two simulator workloads: `paper_sim` (the paper's own 32 × 80
//! shape) and `scale_sim` (10 000 nodes × 100 000 resources).  Both run
//! LASS with loan on the discrete-event simulator as a closed loop: every
//! node is one client that thinks, requests, waits for its grant, holds
//! the resources and releases.

use crate::layers::{codec_rows, core_rows, types_rows, write_spans};
use crate::probe::{
    new_ledger, peak_rss_mb, process_cpu_ns, take_ledger, TimedAlloc, TimedWorkload,
};
use crate::stats::{median, quantile, Report};
use crate::{null_rows, Outcome};
use mra_core::{Lass, LassConfig, LassMsg};
use mra_obs::tracer::DEFAULT_RING_CAP;
use mra_obs::TraceMode;
use mra_protocol::Allocator;
use mra_sim::{Reliability, RunResult, Sim, Workload};
use mra_workloads::{Load, PaperWorkload, Scenario};
use std::time::Instant;

/// Virtual measurement window of `paper_sim`, seconds.  One run is ~2 M
/// events (1.5–2 s of loop time) and ~34 k critical sections: shorter
/// windows give more runs to take the median of, but the p99 wait then
/// moves by over 10 % from seed to seed.
const PAPER_WINDOW_S: f64 = 500.0;
/// Window of the tracing-overhead A/B on `paper_sim`: short, because it
/// is repeated in interleaved pairs.
const AB_WINDOW_S: f64 = 100.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    Paper,
    Scale,
}

impl SimWorkload {
    /// The scenario for `seed`.  The program receives only what this
    /// generates: node and resource counts, the request-size and timing
    /// laws, and the seed its per-node streams derive from.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            SimWorkload::Paper => paper_scenario(seed, PAPER_WINDOW_S),
            SimWorkload::Scale => {
                let mut sc = Scenario::large(10_000, 100_000, seed);
                sc.shards = Some(1);
                sc
            }
        }
    }

    /// Set-up samples one probe process takes, and how many set-ups one
    /// sample averages: a paper-scale set-up takes tens of microseconds,
    /// too short to time alone.
    fn setup_samples(self) -> (usize, usize) {
        match self {
            SimWorkload::Paper => (8, 25),
            SimWorkload::Scale => (4, 1),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::Paper => "paper_sim",
            SimWorkload::Scale => "scale_sim",
        }
    }
}

/// 32 nodes × 80 resources, φ = 16, high load, constant LAN latency,
/// over a virtual window of `window_s` seconds.
fn paper_scenario(seed: u64, window_s: f64) -> Scenario {
    Scenario::builder()
        .nodes(32)
        .resources(80)
        .max_request_size(16)
        .load(Load::High)
        .seed(seed)
        .measure_secs(window_s)
        .shards(1)
        .build()
}

/// LASS with loan as the workspace's runner builds it for `sc`.
pub fn lass_fleet(sc: &Scenario) -> (Vec<Lass>, Vec<PaperWorkload>) {
    let mut cfg = LassConfig::with_loan(sc.n, sc.m);
    cfg.policy = sc.policy;
    cfg.loan = Some(sc.loan_threshold);
    (cfg.build_nodes(), PaperWorkload::per_node(sc, sc.n))
}

/// The virtual-time outcome of a run.  Repeats of one seed must agree on
/// it exactly; it is printed with every run.
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    pub events: u64,
    pub cs_completed: u64,
    pub censored: u64,
    pub records: usize,
    pub msgs_total: u64,
    pub msg_by_kind: Vec<(&'static str, u64)>,
    pub use_rate: f64,
    pub wait_mean_ms: f64,
    pub wait_p50_ms: f64,
    pub wait_p99_ms: f64,
    pub grant_mean_ms: f64,
    pub grant_p50_ms: f64,
    pub grant_p99_ms: f64,
}

impl Digest {
    pub fn of(res: &RunResult) -> Self {
        let w = res.wait_stats();
        let g = res.serve_stats();
        Digest {
            events: res.events_processed,
            cs_completed: res.cs_completed,
            censored: res.censored,
            records: res.records.len(),
            msgs_total: res.msgs_total,
            msg_by_kind: res.msg_by_kind.clone(),
            use_rate: res.use_rate(),
            wait_mean_ms: w.mean_ms,
            wait_p50_ms: w.median_ms,
            wait_p99_ms: w.p99_ms,
            grant_mean_ms: g.mean_ms,
            grant_p50_ms: g.median_ms,
            grant_p99_ms: g.p99_ms,
        }
    }

    /// Bit-exact equality (floats compared by bit pattern).
    pub fn same(&self, o: &Digest) -> bool {
        let bits = |d: &Digest| {
            [
                d.use_rate,
                d.wait_mean_ms,
                d.wait_p50_ms,
                d.wait_p99_ms,
                d.grant_mean_ms,
                d.grant_p50_ms,
                d.grant_p99_ms,
            ]
            .map(f64::to_bits)
        };
        self.events == o.events
            && self.cs_completed == o.cs_completed
            && self.censored == o.censored
            && self.records == o.records
            && self.msgs_total == o.msgs_total
            && self.msg_by_kind == o.msg_by_kind
            && bits(self) == bits(o)
    }

    pub fn line(&self) -> String {
        let kinds: Vec<String> = self
            .msg_by_kind
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        format!(
            "events={} cs={} censored={} records={} msgs={} [{}] use_rate={:?} wait_mean_ms={:?} \
             wait_p50_ms={:?} wait_p99_ms={:?} grant_mean_ms={:?} grant_p50_ms={:?} grant_p99_ms={:?}",
            self.events,
            self.cs_completed,
            self.censored,
            self.records,
            self.msgs_total,
            kinds.join(" "),
            self.use_rate,
            self.wait_mean_ms,
            self.wait_p50_ms,
            self.wait_p99_ms,
            self.grant_mean_ms,
            self.grant_p50_ms,
            self.grant_p99_ms
        )
    }
}

/// One measured simulator run, its phases timed one at a time.
pub struct SimRun {
    pub build_s: f64,
    pub new_s: f64,
    pub init_s: f64,
    /// Wall and process-CPU time of the event loop alone (after `init`,
    /// before result assembly).
    pub loop_s: f64,
    pub loop_cpu_s: f64,
    pub result: RunResult,
}

/// Build (timed), `Sim::new`, `Sim::init`, step the loop to the end, then
/// let `Sim::run` assemble the result.
pub fn run_phases<A: Allocator + Send, W: Workload>(
    build: impl FnOnce() -> (Vec<A>, Vec<W>, usize, mra_sim::SimConfig),
    trace: TraceMode,
    reliability: Option<Reliability>,
) -> SimRun {
    let t0 = Instant::now();
    let (nodes, workloads, m, cfg) = build();
    let t1 = Instant::now();
    let mut sim = Sim::new(nodes, workloads, m, cfg);
    sim.set_tracing(trace);
    if let Some(rel) = reliability {
        sim.set_reliability(rel);
    }
    let t2 = Instant::now();
    sim.init();
    let t3 = Instant::now();
    let cpu0 = process_cpu_ns();
    while sim.step() {}
    let loop_s = t3.elapsed().as_secs_f64();
    let loop_cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    let result = sim.run();
    SimRun {
        build_s: (t1 - t0).as_secs_f64(),
        new_s: (t2 - t1).as_secs_f64(),
        init_s: (t3 - t2).as_secs_f64(),
        loop_s,
        loop_cpu_s,
        result,
    }
}

/// One run of the program as it ships: no adapters.
pub fn run_plain(w: SimWorkload, seed: u64, trace: TraceMode) -> SimRun {
    run_plain_with(move || w.scenario(seed), trace)
}

fn run_plain_with(scenario: impl FnOnce() -> Scenario, trace: TraceMode) -> SimRun {
    run_phases(
        move || {
            let sc = scenario();
            let (nodes, workloads) = lass_fleet(&sc);
            (nodes, workloads, sc.m, sc.sim_config())
        },
        trace,
        None,
    )
}

/// One run with every protocol and workload call timed.
pub fn run_timed(w: SimWorkload, seed: u64) -> (SimRun, crate::probe::NodeLedger<LassMsg>) {
    let ledger = new_ledger();
    let epoch = Instant::now();
    let sink = ledger.clone();
    let run = run_phases(
        move || {
            let sc = w.scenario(seed);
            let (nodes, workloads) = lass_fleet(&sc);
            (
                TimedAlloc::fleet(nodes, epoch, &sink),
                TimedWorkload::fleet(workloads, epoch, &sink),
                sc.m,
                sc.sim_config(),
            )
        },
        TraceMode::Off,
        None,
    );
    (run, take_ledger(&ledger))
}

pub fn check_digest(first: &Digest, d: &Digest, what: &str) -> Result<(), String> {
    if first.same(d) {
        Ok(())
    } else {
        Err(format!(
            "{what}: virtual-time digest differs\n  first: {}\n  this:  {}",
            first.line(),
            d.line()
        ))
    }
}

/// Repeat set-up alone (scenario, fleet, `Sim::new`, `init`) in this
/// process and return the median time of one set-up.  The first
/// sample warms the heap and is dropped.
pub fn setup_probe(w: SimWorkload, seed: u64) -> f64 {
    let (samples, batch) = w.setup_samples();
    let times: Vec<f64> = (0..=samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                let sc = w.scenario(seed);
                let (nodes, workloads) = lass_fleet(&sc);
                let mut sim = Sim::new(nodes, workloads, sc.m, sc.sim_config());
                sim.init();
                std::hint::black_box(&sim);
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&times[1..])
}

fn attempts(res: &RunResult) -> (u64, u64) {
    (res.records.len() as u64 + res.censored, res.censored)
}

impl SimWorkload {
    /// Seeds one end-to-end run pools over, each derived from `--seed`.
    /// A 99th-percentile wait moves by ~9 % from one seed to the next, and
    /// on `scale_sim` so does the cost of an event (a set's heap size
    /// follows its largest resource id).  Pooling cuts both at no cost in
    /// samples, since every run is repeated for the digest check anyway.
    fn sub_seeds(self) -> u64 {
        match self {
            SimWorkload::Paper => 3,
            SimWorkload::Scale => 6,
        }
    }

    fn sub_seed(self, seed: u64, i: u64) -> u64 {
        seed.wrapping_mul(self.sub_seeds()).wrapping_add(i)
    }
}

/// The end-to-end run: untraced runs for `seconds`, cycling through the
/// sub-seeds; every sub-seed runs at least twice and its repeats must
/// agree on the digest.
pub fn measure(w: SimWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut firsts: Vec<(Digest, RunResult)> = Vec::new();
    let (mut rates, mut per_cpu, mut per_wall) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut rss = 0.0;
    let mut i = 0;
    let k_seeds = w.sub_seeds();
    while i < 2 * k_seeds || start.elapsed().as_secs_f64() < seconds {
        let k = (i % k_seeds) as usize;
        let run = run_plain(w, w.sub_seed(seed, k as u64), TraceMode::Off);
        let d = Digest::of(&run.result);
        if let Some((first, _)) = firsts.get(k) {
            check_digest(first, &d, &format!("sub-seed {k} repeat"))?;
        } else {
            if i == 0 {
                // One run's peak: later repeats only add allocator reuse
                // effects that depend on how many fit in `seconds`.
                rss = peak_rss_mb();
            }
            firsts.push((d, run.result.clone()));
        }
        let res = &run.result;
        let cs = res.cs_completed as f64;
        rates.push(res.events_processed as f64 / run.loop_s);
        per_cpu.push(cs / run.loop_cpu_s);
        per_wall.push(cs / run.loop_s);
        let (a, f) = attempts(res);
        attempted += a;
        failed += f;
        i += 1;
    }
    for (k, (d, _)) in firsts.iter().enumerate() {
        println!("digest[seed {}]: {}", w.sub_seed(seed, k as u64), d.line());
    }
    let setup = crate::setup_in_processes(w.name(), seed)?;

    // Virtual-time figures over the pooled sub-seed runs.
    let results: Vec<&RunResult> = firsts.iter().map(|(_, r)| r).collect();
    let waits: Vec<f64> = results
        .iter()
        .flat_map(|r| {
            r.records
                .iter()
                .filter_map(|x| x.wait())
                .map(|t| t.as_millis_f64())
        })
        .collect();
    let sum = |f: &dyn Fn(&RunResult) -> u64| results.iter().map(|r| f(r)).sum::<u64>() as f64;
    let mut r = Report::default();
    r.samples("sim_events_per_s", "1/s", &rates);
    r.samples("setup_s", "s", &setup);
    r.value("peak_rss_mb", "MiB", rss);
    let n = results.len();
    r.pooled(
        "use_rate",
        "ratio",
        results.iter().map(|r| r.use_rate()).sum::<f64>() / n as f64,
        n,
    );
    r.pooled(
        "wait_mean_ms",
        "ms",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        waits.len(),
    );
    r.pooled("wait_p99_ms", "ms", quantile(&waits, 0.99), waits.len());
    r.pooled(
        "msgs_per_cs",
        "count",
        sum(&|r| r.msgs_total) / sum(&|r| r.cs_completed),
        n,
    );
    r.samples("served_per_cpu_s", "1/s", &per_cpu);
    r.samples("goodput_hz", "1/s", &per_wall);
    let censored = sum(&|r| r.censored);
    r.pooled(
        "success_frac",
        "ratio",
        1.0 - censored / (censored + sum(&|r| r.records.len() as u64)),
        n,
    );
    Ok(Outcome {
        report: r,
        attempted,
        failed,
    })
}

/// The traced run: interleaved plain/timed pairs (the timed digest must
/// equal the plain one), a two-shard pass, the ring-tracing A/B, and the
/// layer probes on inputs the timed runs sampled.
pub fn measure_traced(
    w: SimWorkload,
    seed: u64,
    seconds: f64,
    workload: &str,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut overhead = Vec::new();
    let mut timed: Vec<(SimRun, crate::probe::NodeLedger<LassMsg>)> = Vec::new();
    let mut setups = (Vec::new(), Vec::new(), Vec::new());
    let mut digest: Option<Digest> = None;
    let mut pair = 0;
    while pair < 2 || start.elapsed().as_secs_f64() < seconds * 0.6 {
        // Alternate which side runs first so drift cancels.
        let (plain, t) = if pair % 2 == 0 {
            let p = run_plain(w, seed, TraceMode::Off);
            (p, run_timed(w, seed))
        } else {
            let t = run_timed(w, seed);
            (run_plain(w, seed, TraceMode::Off), t)
        };
        let dp = Digest::of(&plain.result);
        let dt = Digest::of(&t.0.result);
        if let Some(d) = &digest {
            check_digest(d, &dp, "plain repeat")?;
        }
        check_digest(&dp, &dt, "timed run vs plain run")?;
        digest.get_or_insert(dp);
        overhead.push(100.0 * (t.0.loop_s / plain.loop_s - 1.0));
        for x in [&plain, &t.0] {
            setups.0.push(x.build_s);
            setups.1.push(x.new_s);
            setups.2.push(x.init_s);
        }
        timed.push(t);
        pair += 1;
    }
    let digest = digest.expect("one pair");
    println!("digest: {}", digest.line());

    let mut r = Report::default();
    r.samples("bench.wrapper_overhead_pct", "%", &overhead);

    // Per-layer figures from the last timed run (all runs are the same
    // program on the same input; the last one ran warmest).
    let (run, ledger) = timed.last().expect("one timed run");
    let res = &run.result;
    let requests = ledger.request.calls.max(1);
    core_rows(ledger, requests, &mut r);
    let loop_ns = run.loop_s * 1e9;
    let handled = ledger.protocol_calls();
    let hooks = ledger.workload_calls();
    let events = res.events_processed as f64;
    r.samples(
        "simnet.loop_self_ns_per_event",
        "ns",
        &timed
            .iter()
            .map(|(x, l)| {
                let inside = (l.protocol_calls().ns + l.workload_calls().ns) as f64;
                (x.loop_s * 1e9 - inside) / x.result.events_processed as f64
            })
            .collect::<Vec<_>>(),
    );
    r.value("simnet.events_per_cs", "count", events / requests as f64);
    r.samples("simnet.setup_build_s", "s", &setups.0);
    r.samples("simnet.setup_new_s", "s", &setups.1);
    r.samples("simnet.setup_init_s", "s", &setups.2);
    r.value(
        "simnet.shard_imbalance",
        "ratio",
        shard_imbalance(w, seed, &digest)?,
    );
    r.value(
        "workloads.next_request_ns",
        "ns",
        ledger.next_request.mean_ns(),
    );
    // Closed loop: arrival is issue, so the grant latency is the wait.
    r.value("serve.grant_mean_ms", "ms", digest.grant_mean_ms);
    r.value("serve.grant_p50_ms", "ms", digest.grant_p50_ms);
    r.value("serve.grant_p99_ms", "ms", digest.grant_p99_ms);
    types_rows(&ledger.sets, &mut r);
    codec_rows(&ledger.msgs, &mut r);
    r.value("obs.trace_ring_overhead_pct", "%", ring_overhead(w, seed)?);
    null_rows(&mut r);
    println!(
        "ledger: {} handler calls ({:.1} ms), {} workload calls ({:.1} ms), loop {:.1} ms",
        handled.calls,
        handled.ns as f64 / 1e6,
        hooks.calls,
        hooks.ns as f64 / 1e6,
        loop_ns / 1e6
    );
    let path = crate::out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    write_spans(&path, workload, loop_ns as u64, &ledger.spans);
    println!(
        "spans: {} written to {}",
        ledger.spans.len(),
        path.display()
    );
    let (attempted, failed) = attempts(res);
    Ok(Outcome {
        report: r,
        attempted,
        failed,
    })
}

/// max/mean of per-shard event counts on a two-shard run of the same
/// input, whose digest must equal the one-shard digest.
fn shard_imbalance(w: SimWorkload, seed: u64, digest: &Digest) -> Result<f64, String> {
    let mut sc = w.scenario(seed);
    sc.shards = Some(2);
    let (nodes, workloads) = lass_fleet(&sc);
    let res = Sim::new(nodes, workloads, sc.m, sc.sim_config()).run();
    check_digest(digest, &Digest::of(&res), "two-shard run vs one-shard run")?;
    let ev = &res.shard_events;
    let mean = ev.iter().sum::<u64>() as f64 / ev.len().max(1) as f64;
    Ok(ev.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0))
}

/// Ring tracing cost on the event loop: interleaved off/ring pairs, the
/// median of the per-pair loop-time differences.
fn ring_overhead(w: SimWorkload, seed: u64) -> Result<f64, String> {
    let sc = match w {
        SimWorkload::Paper => paper_scenario(seed, AB_WINDOW_S),
        SimWorkload::Scale => w.scenario(seed),
    };
    let pairs = match w {
        SimWorkload::Paper => 6,
        SimWorkload::Scale => 3,
    };
    let mut pct = Vec::new();
    for i in 0..pairs {
        let ring = TraceMode::Ring(DEFAULT_RING_CAP);
        let (off, on) = if i % 2 == 0 {
            let off = run_plain_with(|| sc.clone(), TraceMode::Off);
            (off, run_plain_with(|| sc.clone(), ring))
        } else {
            let on = run_plain_with(|| sc.clone(), ring);
            (run_plain_with(|| sc.clone(), TraceMode::Off), on)
        };
        check_digest(
            &Digest::of(&off.result),
            &Digest::of(&on.result),
            "ring-traced run vs untraced run",
        )?;
        pct.push(100.0 * (on.loop_s / off.loop_s - 1.0));
    }
    Ok(median(&pct))
}

//! One node of a real-time run: the workload driver and the protocol
//! state machine, called by the node's reactor ([`crate::reactor`]) on the
//! reactor's own thread.
//!
//! Lifecycle per active node: think → request → wait for grant → hold the
//! critical section → release, repeated `rounds` times.  After its quota a
//! node parks but keeps serving protocol traffic (forwarding requests,
//! relaying tokens) until the cluster-wide shutdown reaches its reactor
//! (see [`PortCtrl`](crate::transport::PortCtrl)).
//!
//! The node never blocks.  Its reactor calls it in three places — on each
//! delivery the link endpoint lets through ([`Node::deliver`]), when the
//! think or CS timer ([`Node::deadline`]) expires ([`Node::on_timer`]), and
//! once before its first poll ([`Node::start`]) — and every call hands the
//! protocol's outbox, in send order, to the reactor's `send` sink.
//! Grants and releases are accounted against the run's shared
//! [`SafetyMonitor`] and [`Collector`].

use mra_obs::{trace_mode_from_env, EngineTracer, EventKind, ObsReport, TraceMode};
use mra_protocol::testkit::SafetyMonitor;
use mra_protocol::{Allocator, Ctx, WireMsg};
use mra_sim::driver::{Driver, DriverState};
use mra_sim::metrics::Collector;
use mra_sim::{RunResult, Workload};
use mra_types::{NodeId, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Lock preserving parking_lot-like semantics: a poisoned mutex (some node
/// thread already panicked) still yields its data, so the original panic
/// reaches the joiner instead of a PoisonError cascade.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// State shared by every node of one run: safety monitoring, metrics and
/// the common epoch that turns wall-clock instants into [`Time`] stamps.
#[derive(Debug)]
pub(crate) struct RunShared {
    /// Mutual-exclusion safety checker (panics on violation).
    pub(crate) monitor: Mutex<SafetyMonitor>,
    /// Metrics accumulator.
    pub(crate) collector: Mutex<Collector>,
    /// Causal tracer, `Some` only when armed via `MRA_TRACE` /
    /// `MRA_TRACE_FILE` (see [`mra_obs::trace_mode_from_env`]).  Disarmed
    /// runs pay exactly one `Option` check per hook site — the tracer
    /// itself is never constructed.  Real-time runs have no deterministic
    /// dispatch key, so every event is keyed `(shared.now(), 0)`; the
    /// per-record sequence number keeps the merged order stable.
    pub(crate) obs: Option<Mutex<EngineTracer>>,
    /// Wall-clock origin of the run.
    epoch: Instant,
}

impl RunShared {
    /// Fresh shared state for `n` nodes and `m` resources.  The collector
    /// window is open-ended (clamped to the actual end by
    /// [`Collector::finish`]).  Tracing arms from the environment.
    pub(crate) fn new(n: usize, m: usize) -> Self {
        let obs = match trace_mode_from_env() {
            TraceMode::Off => None,
            mode => Some(Mutex::new(EngineTracer::armed(n, mode))),
        };
        RunShared {
            monitor: Mutex::new(SafetyMonitor::new(n, m)),
            collector: Mutex::new(Collector::new(n, m, (Time::ZERO, Time::from_secs(3600)))),
            obs,
            epoch: Instant::now(),
        }
    }

    /// Wall time elapsed since the run epoch.
    pub(crate) fn now(&self) -> Time {
        Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Fold the run into its [`RunResult`] (tracer included) once every
    /// node has stopped, and hand back the safety monitor.
    pub(crate) fn finish(self: Arc<Self>, algo: &str, n: usize) -> (RunResult, SafetyMonitor) {
        let end = self.now();
        let shared =
            Arc::try_unwrap(self).unwrap_or_else(|_| panic!("a node outlived its run"));
        let mut res = into_inner(shared.collector).finish(algo, n, end);
        res.obs = shared.obs.map_or_else(ObsReport::default, |t| into_inner(t).finish());
        (res, into_inner(shared.monitor))
    }
}

fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Per-node run parameters.
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeCfg {
    /// Request/CS cycles this node must complete (ignored when passive).
    pub(crate) rounds: usize,
    /// Master seed; each node derives its own stream from it.
    pub(crate) seed: u64,
    /// Passive nodes never issue requests; they only serve protocol
    /// traffic (e.g. a central coordinator).
    pub(crate) is_active: bool,
}

/// One protocol instance with its workload driver.
///
/// # Panics
/// Its calls panic on any safety violation (monitored exactly like the
/// simulator) and on protocol contract violations surfaced by the
/// `Allocator` itself.
pub(crate) struct Node<A: Allocator, W> {
    me: NodeId,
    proto: A,
    workload: W,
    ctx: Ctx<A::Msg>,
    driver: Driver,
    rng: StdRng,
    rounds_left: usize,
    /// The pending timer: think expiry or CS expiry, depending on state.
    timer: Option<Instant>,
    shared: Arc<RunShared>,
}

impl<A: Allocator, W: Workload> Node<A, W> {
    /// Node `me` of `n`.
    pub(crate) fn new(
        me: NodeId,
        n: usize,
        proto: A,
        workload: W,
        shared: Arc<RunShared>,
        cfg: NodeCfg,
    ) -> Self {
        // The node always runs a full request/CS cycle before
        // decrementing, so a zero quota on an active node would underflow
        // instead of no-opping.
        assert!(
            !cfg.is_active || cfg.rounds >= 1,
            "active node {me} needs a round quota of at least 1"
        );
        let mut driver = Driver::new();
        if !cfg.is_active {
            driver.park();
        }
        Node {
            me,
            proto,
            workload,
            ctx: Ctx::new(me, n),
            driver,
            rng: StdRng::seed_from_u64(cfg.seed ^ (me as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            rounds_left: if cfg.is_active { cfg.rounds } else { 0 },
            timer: None,
            shared,
        }
    }

    pub(crate) fn me(&self) -> NodeId {
        self.me
    }

    /// Run the protocol's `on_init` and, on an active node, draw the first
    /// think time.
    pub(crate) fn start(&mut self, send: &mut impl FnMut(NodeId, A::Msg)) {
        self.ctx.set_now(self.shared.now());
        self.proto.on_init(&mut self.ctx);
        self.flush(send);
        if self.rounds_left > 0 {
            self.think();
        }
    }

    /// When the think or CS timer expires (`None` while waiting for a
    /// grant, and once parked).
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.timer
    }

    /// Hand one message from `from` to the protocol.
    pub(crate) fn deliver(
        &mut self,
        from: NodeId,
        msg: A::Msg,
        send: &mut impl FnMut(NodeId, A::Msg),
    ) {
        let shared = &*self.shared;
        self.ctx.set_now(shared.now());
        if let Some(obs) = &shared.obs {
            let mut t = lock(obs);
            t.set_key(shared.now(), 0);
            // Stamp 0: the wire format carries no Lamport stamps.
            t.on_recv(from, self.me, msg.kind(), msg.weight() as u32, 0);
        }
        self.proto.on_message(&mut self.ctx, from, msg);
        self.flush(send);
    }

    /// The think or CS timer expired: issue the next request, or leave the
    /// critical section.  Returns true when this release completed the
    /// node's round quota.
    pub(crate) fn on_timer(&mut self, send: &mut impl FnMut(NodeId, A::Msg)) -> bool {
        self.timer = None;
        let shared = &*self.shared;
        let now = shared.now();
        match self.driver.state() {
            DriverState::Thinking => {
                self.workload.set_now(now);
                let set = self.driver.issue(&mut self.workload, &mut self.rng);
                // Open-loop workloads claim the request's intended
                // arrival; closed-loop ones arrive at issue.
                let arrival = self.workload.intended_arrival().unwrap_or(now).min(now);
                if let Some(obs) = &shared.obs {
                    let mut t = lock(obs);
                    t.set_key(now, 0);
                    t.on_cs(EventKind::CsRequest, self.me, set.len() as u32);
                }
                lock(&shared.collector).on_issue(self.me, set.clone(), now, arrival);
                self.ctx.set_now(shared.now());
                self.proto.request(&mut self.ctx, set);
                self.flush(send);
                false
            }
            DriverState::InCs => {
                if let Some(obs) = &shared.obs {
                    let mut t = lock(obs);
                    t.set_key(now, 0);
                    t.on_cs(EventKind::CsExit, self.me, 0);
                }
                lock(&shared.collector).on_release(self.me, now);
                self.workload.on_release(now);
                lock(&shared.monitor).exit(self.me);
                self.driver.released();
                self.ctx.set_now(shared.now());
                self.proto.release(&mut self.ctx);
                self.flush(send);
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    self.driver.park();
                    return true;
                }
                self.think();
                false
            }
            // Waiting/Parked never arm a timer.
            other => unreachable!("timer in state {other:?}"),
        }
    }

    fn think(&mut self) {
        self.workload.set_now(self.shared.now());
        self.timer = Some(Instant::now() + self.workload.think_time(&mut self.rng).to_std());
    }

    /// Drain the outbox into `send` and turn a grant edge into CS
    /// bookkeeping (+ CS-end timer).  The outbox drains in place (its
    /// capacity is the reused buffer), under one collector lock per burst.
    fn flush(&mut self, send: &mut impl FnMut(NodeId, A::Msg)) {
        let shared = &*self.shared;
        if self.ctx.has_output() {
            let mut collector = lock(&shared.collector);
            // One tracer lock per outbox burst; every message in the burst
            // shares the key (now, 0), disambiguated by the tracer's seq.
            let mut obs = shared.obs.as_ref().map(|m| {
                let mut t = lock(m);
                t.set_key(shared.now(), 0);
                t
            });
            for (to, msg) in self.ctx.drain_outbox() {
                collector.on_message(msg.kind(), msg.weight());
                if let Some(t) = obs.as_deref_mut() {
                    t.on_send(self.me, to, msg.kind(), msg.weight() as u32);
                }
                send(to, msg);
            }
        }
        if self.ctx.take_granted() {
            let set = self.driver.current_set();
            let size = set.len() as u32;
            lock(&shared.monitor).enter(self.me, set);
            let now = shared.now();
            lock(&shared.collector).on_grant(self.me, now);
            self.workload.on_grant(now);
            if let Some(obs) = &shared.obs {
                let mut t = lock(obs);
                t.set_key(now, 0);
                t.on_cs(EventKind::CsEnter, self.me, size);
            }
            let cs = self.driver.granted();
            self.timer = Some(Instant::now() + cs.to_std());
        }
    }
}

//! Measuring the program from outside: timing adapters around the public
//! `Allocator` and `Workload` traits, an in-memory span log, a counting
//! global allocator, and process/thread clocks.
//!
//! Each adapter owns a private [`NodeLedger`] and folds it into the run's
//! shared [`Ledger`] when it is dropped (the engine drops the nodes when
//! the run ends), so the timed path takes no lock.

use mra_protocol::{Allocator, Ctx, ProcState, WireMsg};
use mra_sim::Workload;
use mra_types::{NodeId, ResourceSet, Time};
use rand::rngs::StdRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nodes whose adapters keep input samples (messages, request sets) for
/// the codec and set-algebra probes.  A handful is enough and keeps the
/// 10k-node run's sample memory bounded.
const SAMPLING_NODES: usize = 16;
/// Messages kept per kind per sampling node.
const MSGS_PER_KIND: usize = 16;
/// Request sets kept per sampling node.
const SETS_PER_NODE: usize = 64;
/// Spans kept per run, shared evenly between the nodes.
const SPAN_BUDGET: usize = 1 << 15;

/// Call count and summed wall time of one layer entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    pub calls: u64,
    pub ns: u64,
}

impl Timing {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    fn merge(&mut self, o: &Timing) {
        self.calls += o.calls;
        self.ns += o.ns;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
/// Its parent is the run's loop span (the engine or node loop that made
/// the call); `node` identifies the caller.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub node: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Everything one node's adapters measured.
#[derive(Debug)]
pub struct NodeLedger<M> {
    pub on_message: Vec<(&'static str, Timing)>,
    pub on_init: Timing,
    pub request: Timing,
    pub release: Timing,
    pub think_time: Timing,
    pub next_request: Timing,
    pub set_now: Timing,
    pub lifecycle_hooks: Timing,
    /// Arrival → issue wait of each issued batch's oldest member (ns);
    /// recorded only for workloads that report intended arrivals.
    pub admission_wait_ns: Vec<f64>,
    pub first_poll: Option<Instant>,
    /// CPU time of the calling thread between its first poll and the
    /// adapter's drop (the node loop's thread on the real-time runtimes).
    pub thread_cpu_ns: u64,
    pub msgs: Vec<M>,
    pub sets: Vec<ResourceSet>,
    pub spans: Vec<Span>,
}

impl<M> Default for NodeLedger<M> {
    fn default() -> Self {
        NodeLedger {
            on_message: Vec::new(),
            on_init: Timing::default(),
            request: Timing::default(),
            release: Timing::default(),
            think_time: Timing::default(),
            next_request: Timing::default(),
            set_now: Timing::default(),
            lifecycle_hooks: Timing::default(),
            admission_wait_ns: Vec::new(),
            first_poll: None,
            thread_cpu_ns: 0,
            msgs: Vec::new(),
            sets: Vec::new(),
            spans: Vec::new(),
        }
    }
}

impl<M> NodeLedger<M> {
    fn kind_slot(&mut self, kind: &'static str) -> &mut Timing {
        let i = match self.on_message.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                self.on_message.push((kind, Timing::default()));
                self.on_message.len() - 1
            }
        };
        &mut self.on_message[i].1
    }

    fn merge(&mut self, o: NodeLedger<M>) {
        for (k, t) in &o.on_message {
            self.kind_slot(k).merge(t);
        }
        self.on_init.merge(&o.on_init);
        self.request.merge(&o.request);
        self.release.merge(&o.release);
        self.think_time.merge(&o.think_time);
        self.next_request.merge(&o.next_request);
        self.set_now.merge(&o.set_now);
        self.lifecycle_hooks.merge(&o.lifecycle_hooks);
        self.admission_wait_ns.extend(o.admission_wait_ns);
        // The fleet is set up when its *last* node is first polled.
        self.first_poll = latest(self.first_poll, o.first_poll);
        self.thread_cpu_ns += o.thread_cpu_ns;
        self.msgs.extend(o.msgs);
        self.sets.extend(o.sets);
        self.spans.extend(o.spans);
    }

    /// Messages of every kind handled, and their summed handler time.
    pub fn messages(&self) -> Timing {
        let mut t = Timing::default();
        for (_, k) in &self.on_message {
            t.merge(k);
        }
        t
    }

    pub fn kind(&self, kind: &str) -> Timing {
        self.on_message
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(Timing::default(), |(_, t)| *t)
    }

    /// Every protocol handler call (init, messages, request, release).
    pub fn protocol_calls(&self) -> Timing {
        let mut t = self.messages();
        t.merge(&self.on_init);
        t.merge(&self.request);
        t.merge(&self.release);
        t
    }

    /// Every workload hook call.
    pub fn workload_calls(&self) -> Timing {
        let mut t = self.think_time;
        t.merge(&self.next_request);
        t.merge(&self.set_now);
        t.merge(&self.lifecycle_hooks);
        t
    }
}

/// The run-wide sink the adapters fold into.
pub type Ledger<M> = Arc<Mutex<NodeLedger<M>>>;

pub fn new_ledger<M>() -> Ledger<M> {
    Arc::new(Mutex::new(NodeLedger::default()))
}

/// Take the merged ledger out once every adapter has been dropped.
pub fn take_ledger<M>(l: &Ledger<M>) -> NodeLedger<M> {
    std::mem::take(&mut *l.lock().expect("ledger mutex poisoned by a panicking node"))
}

/// Per-adapter state shared by the two adapter kinds.
struct Probe<M> {
    node: u32,
    sample: bool,
    span_cap: usize,
    epoch: Instant,
    local: NodeLedger<M>,
    sink: Ledger<M>,
}

impl<M> Probe<M> {
    fn new(node: NodeId, n: usize, epoch: Instant, sink: &Ledger<M>) -> Self {
        Probe {
            node: node as u32,
            sample: node < SAMPLING_NODES,
            span_cap: SPAN_BUDGET / n.max(1),
            epoch,
            local: NodeLedger::default(),
            sink: Arc::clone(sink),
        }
    }

    #[inline]
    fn span(&mut self, name: &'static str, t0: Instant, dur_ns: u64) {
        if self.local.spans.len() < self.span_cap {
            self.local.spans.push(Span {
                name,
                node: self.node,
                start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    fn flush(&mut self) {
        let local = std::mem::take(&mut self.local);
        // A poisoned sink means another node already panicked; that panic
        // is what the run reports, so losing this node's figures is fine.
        if let Ok(mut g) = self.sink.lock() {
            g.merge(local);
        }
    }
}

/// The later of two optional instants.
fn latest(a: Option<Instant>, b: Option<Instant>) -> Option<Instant> {
    a.max(b)
}

#[inline]
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// An `Allocator` that times every call into the wrapped protocol
/// instance and samples the messages it handles.
pub struct TimedAlloc<A: Allocator> {
    inner: A,
    probe: Probe<A::Msg>,
}

impl<A: Allocator> TimedAlloc<A> {
    /// Wrap a fleet; node `i` reports into `sink`.
    pub fn fleet(nodes: Vec<A>, epoch: Instant, sink: &Ledger<A::Msg>) -> Vec<Self> {
        let n = nodes.len();
        nodes
            .into_iter()
            .enumerate()
            .map(|(i, inner)| TimedAlloc {
                inner,
                probe: Probe::new(i, n, epoch, sink),
            })
            .collect()
    }
}

impl<A: Allocator> Drop for TimedAlloc<A> {
    fn drop(&mut self) {
        self.probe.flush();
    }
}

impl<A: Allocator> Allocator for TimedAlloc<A> {
    type Msg = A::Msg;

    fn on_init(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let t0 = Instant::now();
        self.inner.on_init(ctx);
        let ns = elapsed_ns(t0);
        self.probe.local.on_init.add(ns);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: NodeId, msg: Self::Msg) {
        let kind = msg.kind();
        if self.probe.sample && self.probe.local.kind_slot(kind).calls < MSGS_PER_KIND as u64 {
            self.probe.local.msgs.push(msg.clone());
        }
        let t0 = Instant::now();
        self.inner.on_message(ctx, from, msg);
        let ns = elapsed_ns(t0);
        self.probe.local.kind_slot(kind).add(ns);
        self.probe.span(kind, t0, ns);
    }

    fn request(&mut self, ctx: &mut Ctx<Self::Msg>, resources: ResourceSet) {
        let t0 = Instant::now();
        self.inner.request(ctx, resources);
        let ns = elapsed_ns(t0);
        self.probe.local.request.add(ns);
        self.probe.span("request", t0, ns);
    }

    fn release(&mut self, ctx: &mut Ctx<Self::Msg>) {
        let t0 = Instant::now();
        self.inner.release(ctx);
        let ns = elapsed_ns(t0);
        self.probe.local.release.add(ns);
        self.probe.span("release", t0, ns);
    }

    fn state(&self) -> ProcState {
        self.inner.state()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A `Workload` that times every hook of the wrapped workload, samples
/// the request sets it draws, and records the arrival → issue wait of
/// open-loop requests.  The message type only names the ledger it shares
/// with the node's [`TimedAlloc`].
pub struct TimedWorkload<W, M> {
    inner: W,
    probe: Probe<M>,
    now: Time,
    cpu_at_first_poll: Option<u64>,
}

impl<W: Workload, M: Send> TimedWorkload<W, M> {
    pub fn fleet(workloads: Vec<W>, epoch: Instant, sink: &Ledger<M>) -> Vec<Self> {
        let n = workloads.len();
        workloads
            .into_iter()
            .enumerate()
            .map(|(i, inner)| TimedWorkload {
                inner,
                probe: Probe::new(i, n, epoch, sink),
                now: Time::ZERO,
                cpu_at_first_poll: None,
            })
            .collect()
    }
}

impl<W, M> Drop for TimedWorkload<W, M> {
    fn drop(&mut self) {
        if let Some(c0) = self.cpu_at_first_poll {
            self.probe.local.thread_cpu_ns = thread_cpu_ns().saturating_sub(c0);
        }
        self.probe.flush();
    }
}

impl<W: Workload, M: Send> Workload for TimedWorkload<W, M> {
    fn think_time(&mut self, rng: &mut StdRng) -> Time {
        let t0 = Instant::now();
        let t = self.inner.think_time(rng);
        self.probe.local.think_time.add(elapsed_ns(t0));
        t
    }

    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time) {
        let t0 = Instant::now();
        let (set, cs) = self.inner.next_request(rng);
        let ns = elapsed_ns(t0);
        self.probe.local.next_request.add(ns);
        self.probe.span("next_request", t0, ns);
        if self.probe.sample && self.probe.local.sets.len() < SETS_PER_NODE {
            self.probe.local.sets.push(set.clone());
        }
        if let Some(arrival) = self.inner.intended_arrival() {
            let wait = self.now.saturating_sub(arrival);
            self.probe
                .local
                .admission_wait_ns
                .push(wait.as_nanos() as f64);
        }
        (set, cs)
    }

    fn set_now(&mut self, now: Time) {
        if self.probe.local.first_poll.is_none() {
            self.probe.local.first_poll = Some(Instant::now());
            self.cpu_at_first_poll = Some(thread_cpu_ns());
        }
        self.now = now;
        let t0 = Instant::now();
        self.inner.set_now(now);
        self.probe.local.set_now.add(elapsed_ns(t0));
    }

    fn intended_arrival(&self) -> Option<Time> {
        self.inner.intended_arrival()
    }

    fn on_grant(&mut self, now: Time) {
        let t0 = Instant::now();
        self.inner.on_grant(now);
        self.probe.local.lifecycle_hooks.add(elapsed_ns(t0));
    }

    fn on_release(&mut self, now: Time) {
        let t0 = Instant::now();
        self.inner.on_release(now);
        self.probe.local.lifecycle_hooks.add(elapsed_ns(t0));
    }
}

/// The thinnest adapter: it only notes when the engine first polls the
/// workload, which is where a real-time run's set-up ends.  Used by the
/// untimed runs, which must not pay for per-call timing.
pub struct FirstPoll<W> {
    inner: W,
    polled: bool,
    sink: Arc<Mutex<Option<Instant>>>,
}

impl<W: Workload> FirstPoll<W> {
    pub fn fleet(workloads: Vec<W>, sink: &Arc<Mutex<Option<Instant>>>) -> Vec<Self> {
        workloads
            .into_iter()
            .map(|inner| FirstPoll {
                inner,
                polled: false,
                sink: Arc::clone(sink),
            })
            .collect()
    }
}

impl<W: Workload> Workload for FirstPoll<W> {
    fn think_time(&mut self, rng: &mut StdRng) -> Time {
        self.inner.think_time(rng)
    }

    fn next_request(&mut self, rng: &mut StdRng) -> (ResourceSet, Time) {
        self.inner.next_request(rng)
    }

    fn set_now(&mut self, now: Time) {
        if !self.polled {
            self.polled = true;
            let t = Instant::now();
            if let Ok(mut g) = self.sink.lock() {
                *g = latest(*g, Some(t));
            }
        }
        self.inner.set_now(now);
    }

    fn intended_arrival(&self) -> Option<Time> {
        self.inner.intended_arrival()
    }

    fn on_grant(&mut self, now: Time) {
        self.inner.on_grant(now);
    }

    fn on_release(&mut self, now: Time) {
        self.inner.on_release(now);
    }
}

/// A global allocator that counts heap bytes requested while
/// [`count_allocations`] runs; otherwise it adds one relaxed load per
/// allocation in front of the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNTED_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            COUNTED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same contract as our caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            COUNTED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same contract as our caller's, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            COUNTED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a block `System` handed out.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` and return the heap bytes it requested (single-threaded use).
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNTED_BYTES.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, COUNTED_BYTES.load(Ordering::Relaxed))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; the clock ids used are Linux constants.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
pub fn thread_cpu_ns() -> u64 {
    clock_ns(3)
}

/// CPU time of the whole process (CLOCK_PROCESS_CPUTIME_ID), in
/// nanoseconds — finer than `getrusage`'s microseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(2)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

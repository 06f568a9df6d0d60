//! Serving-layer accounting: admission counters and the arrival → grant
//! latency histogram.
//!
//! Latency here is keyed by *intended arrival* time, not issue time —
//! that is the whole point of the serving layer's measurement contract.
//! Waiting time keyed by issue time understates tail latency whenever the
//! admission queue is non-empty (coordinated omission); the `grant`
//! histogram below includes that queueing.

use std::sync::{Arc, Mutex, MutexGuard};

use mra_obs::LogHist;
use mra_types::Time;

/// Counters + the grant-latency histogram for one node's serving layer.
///
/// Conservation invariant (checked by tests, reported by benches):
/// `offered == admitted + shed_depth + shed_class`, and at quiescence
/// `admitted == served + queued + inflight`.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Arrivals generated (open loop: independent of server health).
    pub offered: u64,
    /// Arrivals accepted into the admission queue.
    pub admitted: u64,
    /// Arrivals rejected because the queue was at `max_depth`.
    pub shed_depth: u64,
    /// Arrivals rejected because their class was at quota.
    pub shed_class: u64,
    /// Engine-level critical-section requests issued (one per batch).
    pub batches: u64,
    /// Requests folded into those batches.
    pub batched_reqs: u64,
    /// Requests whose critical section was entered (granted).
    pub granted: u64,
    /// Requests fully served (granted and released).
    pub served: u64,
    /// Deepest admission-queue depth observed.
    pub depth_high_water: usize,
    /// Intended-arrival → grant latency, per request (not per batch).
    pub grant_latency: LogHist,
}

impl ServeStats {
    /// Record one request's grant, keyed by its intended arrival.
    pub fn on_grant(&mut self, arrival: Time, now: Time) {
        self.granted += 1;
        self.grant_latency
            .record(now.saturating_sub(arrival).as_nanos());
    }

    /// Record one request's completion.
    pub fn on_done(&mut self) {
        self.served += 1;
    }

    /// Total shed arrivals.
    pub fn shed(&self) -> u64 {
        self.shed_depth + self.shed_class
    }

    /// Fold another node's stats into this one (for fleet-wide reports).
    pub fn merge(&mut self, other: &ServeStats) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.shed_depth += other.shed_depth;
        self.shed_class += other.shed_class;
        self.batches += other.batches;
        self.batched_reqs += other.batched_reqs;
        self.granted += other.granted;
        self.served += other.served;
        self.depth_high_water = self.depth_high_water.max(other.depth_high_water);
        self.grant_latency.merge(&other.grant_latency);
    }
}

/// Shared handle to a node's [`ServeStats`].
///
/// The engine consumes the `ServeWorkload` by value, so callers keep this
/// handle to read results after the run.  Lock contention is a non-issue:
/// each node owns its own stats and touches them a handful of times per
/// critical section.
#[derive(Clone, Debug, Default)]
pub struct SharedServeStats(Arc<Mutex<ServeStats>>);

impl SharedServeStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Lock the underlying stats (poison-tolerant: a panicking peer must
    /// not hide the accounting that led up to the panic).
    pub fn lock(&self) -> MutexGuard<'_, ServeStats> {
        match self.0.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Merge a whole fleet's per-node stats into one report.
    pub fn merge_all(handles: &[SharedServeStats]) -> ServeStats {
        let mut total = ServeStats::default();
        for h in handles {
            total.merge(&h.lock());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let a = SharedServeStats::new();
        let b = SharedServeStats::new();
        {
            let mut g = a.lock();
            g.offered = 3;
            g.admitted = 2;
            g.shed_depth = 1;
            g.on_grant(Time::from_millis(1), Time::from_millis(5));
            g.on_done();
        }
        {
            let mut g = b.lock();
            g.offered = 4;
            g.admitted = 4;
            g.depth_high_water = 7;
        }
        let t = SharedServeStats::merge_all(&[a, b]);
        assert_eq!(t.offered, 7);
        assert_eq!(t.admitted, 6);
        assert_eq!(t.shed(), 1);
        assert_eq!(t.granted, 1);
        assert_eq!(t.served, 1);
        assert_eq!(t.depth_high_water, 7);
        assert_eq!(t.grant_latency.count(), 1);
    }
}

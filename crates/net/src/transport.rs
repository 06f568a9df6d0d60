//! The TCP mesh vocabulary shared by the reactor transport
//! (`crate::reactor`) and the cluster harnesses ([`crate::cluster`]):
//! the peer directory ([`PeerDirectory`]), shutdown coordination
//! ([`PortCtrl`]) and mesh construction parameters ([`MeshConfig`]).
//!
//! Shutdown is coordinated at the transport level, by the reactor, so the
//! node itself only reports that its quota is done:
//!
//! * **in-process clusters** ([`PortCtrl::Cluster`]) count finishers in a
//!   shared atomic — the last one broadcasts
//!   [`TAG_SHUTDOWN`](crate::frame::TAG_SHUTDOWN) frames;
//! * **multi-process deployments** ([`PortCtrl::Solo`]) send
//!   [`TAG_DONE`](crate::frame::TAG_DONE) frames to node 0, which
//!   broadcasts the shutdown once every active node (itself included) has
//!   finished.

use mra_obs::NetCounters;
use mra_protocol::faults::{FaultPlan, FaultStats};
use mra_protocol::reliable::{Reliability, ReliabilityStats};
use mra_types::{NodeId, Time};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The cluster map: `NodeId → SocketAddr` for every node.
#[derive(Clone, Debug)]
pub struct PeerDirectory {
    addrs: Vec<SocketAddr>,
}

impl PeerDirectory {
    /// Directory over explicit addresses (index = node id).
    pub fn new(addrs: Vec<SocketAddr>) -> Self {
        assert!(!addrs.is_empty(), "empty peer directory");
        PeerDirectory { addrs }
    }

    /// Parse a comma-separated `host:port,host:port,…` list (the
    /// `mra-node --peers` format).  Blank entries — trailing commas,
    /// doubled commas, stray whitespace — are tolerated and skipped;
    /// a malformed entry is reported with its position in the list.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut addrs = Vec::new();
        for (idx, entry) in spec.split(',').enumerate() {
            let entry = entry.trim();
            if entry.is_empty() {
                continue; // tolerate `a,b,` and `a,,b`
            }
            let addr = entry.parse::<SocketAddr>().map_err(|e| {
                format!("peer entry #{idx} ({entry:?}): {e}")
            })?;
            addrs.push(addr);
        }
        if addrs.is_empty() {
            return Err("empty peer list".into());
        }
        Ok(PeerDirectory::new(addrs))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True if the directory is empty (never: construction forbids it;
    /// present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Address of node `id`.
    pub fn addr(&self, id: NodeId) -> SocketAddr {
        self.addrs[id]
    }
}

/// Which TCP transport drives the mesh.  The reactor is the only one;
/// the enum remains so configurations that name it keep building.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetBackend {
    /// One reactor thread per node polls every peer socket for readiness
    /// (`crate::reactor`): one bidirectional connection per unordered
    /// pair, coalesced writes, RTOs on the reactor's timer wheel.
    Reactor,
}

/// How a node's reactor coordinates cluster-wide shutdown.
pub enum PortCtrl {
    /// In-process loopback cluster: finishers decrement the shared count;
    /// the last one broadcasts shutdown frames.
    Cluster(Arc<AtomicUsize>),
    /// One process per node: finishers report
    /// [`TAG_DONE`](crate::frame::TAG_DONE) to node 0, which broadcasts
    /// shutdown once all `active` nodes are done.
    Solo {
        /// Number of request-issuing nodes (`0..active`; node 0 included).
        active: usize,
        /// Done reports seen so far (node 0 only; includes itself).
        done_seen: usize,
        /// Has this node finished its own quota?
        self_done: bool,
    },
}

/// What a node that just finished its quota must do next, as decided by
/// [`PortCtrl::self_done`].
pub(crate) enum DoneAct {
    /// Every active node is done: broadcast
    /// [`TAG_SHUTDOWN`](crate::frame::TAG_SHUTDOWN) and stop.
    LastFinisher,
    /// Report [`TAG_DONE`](crate::frame::TAG_DONE) to node 0 and keep
    /// serving the protocol.
    ReportDone,
    /// Keep serving until shutdown arrives.
    Wait,
}

impl PortCtrl {
    /// Node `me` finished its own round quota.
    pub(crate) fn self_done(&mut self, me: NodeId) -> DoneAct {
        match self {
            PortCtrl::Cluster(remaining) => {
                if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    DoneAct::LastFinisher
                } else {
                    DoneAct::Wait
                }
            }
            PortCtrl::Solo { active, done_seen, self_done } => {
                *self_done = true;
                if me == 0 {
                    *done_seen += 1;
                    if *done_seen >= *active {
                        DoneAct::LastFinisher
                    } else {
                        DoneAct::Wait
                    }
                } else {
                    DoneAct::ReportDone
                }
            }
        }
    }

    /// A [`TAG_DONE`](crate::frame::TAG_DONE) frame arrived (meaningful
    /// on solo node 0 only).  True when every active node — this one included — has finished:
    /// time to broadcast shutdown and stop.
    pub(crate) fn peer_done(&mut self) -> bool {
        match self {
            PortCtrl::Solo { active, done_seen, self_done } => {
                *done_seen += 1;
                *self_done && *done_seen >= *active
            }
            // Done frames only flow in solo deployments.
            PortCtrl::Cluster(_) => false,
        }
    }
}

/// Mesh construction parameters.
#[derive(Clone, Debug)]
pub struct MeshConfig {
    /// Artificial latency added on top of the real wire (delivery of each
    /// message is deferred by this much at the receiver).  `Time::ZERO`
    /// measures the raw transport.  Together with `faults` this forms the
    /// frame-level drop/delay shim.
    pub extra_latency: Time,
    /// How long to keep retrying outbound connections (peers of a
    /// multi-process cluster may start later than this node).
    pub connect_timeout: Duration,
    /// Frame-level fault shim: each inbound link runs the plan's
    /// deterministic per-link drop/duplicate filter inside the node's link
    /// endpoint (`k`-th frame on a link sees the same verdict as on the
    /// simulated substrates, and duplicates are absorbed or replayed into
    /// the session exactly as there).  What TCP cannot reproduce:
    /// time-based faults (partitions/outages name *simulated* instants; a
    /// real wire has no such clock).  See DESIGN.md §8.
    ///
    /// **Beware with quota-based runs and reliability off:** protocol
    /// messages lost to a drop filter are gone for good — token-based
    /// algorithms may then never finish their quota.  Enable
    /// [`MeshConfig::reliability`] to recover the drops, or keep lossy
    /// plans for explicitly bounded transport experiments.
    pub faults: Option<FaultPlan>,
    /// Reliable-delivery session layer (`mra_protocol::reliable`): when
    /// set, every protocol message travels as a sequenced
    /// `TAG_RDATA` frame with a piggybacked cumulative ack, receivers
    /// ack (standalone `TAG_RACK` frames) and dedup, and the reactor
    /// retransmits unacked frames on a capped-backoff timer — so
    /// [`MeshConfig::faults`] drops are *recovered* instead of absorbed
    /// into lost liveness.  `MRA_RELIABLE` / `MRA_RTO_MS` feed this in the
    /// `mra-node` binary.
    pub reliability: Option<Reliability>,
    /// Dump the node's [`NetCounters`] (frames/bytes per direction and
    /// kind, retransmissions, RTO fires) to stderr when its reactor exits.
    /// Fed by `mra-node --metrics` / `MRA_METRICS=1`.
    pub metrics: bool,
    /// Where the transport publishes its final [`PortStats`]: loopback
    /// harnesses hand each node a slot and merge them into the run's
    /// result after the reactor exits.  The reactor refreshes the slot
    /// every iteration, so it can be read live.  `None` keeps the
    /// counters reactor-local.
    pub counters_slot: Option<Arc<Mutex<PortStats>>>,
}

/// What one node's transport did: the wire counters, and its link
/// endpoint's fault verdicts and session counters.
#[derive(Clone, Debug, Default)]
pub struct PortStats {
    /// Frames, bytes and syscalls per direction and kind.
    pub net: NetCounters,
    /// Drop/duplicate verdicts of the inbound fault filters.
    pub faults: FaultStats,
    /// The reliable sessions' counters.
    pub reliability: ReliabilityStats,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            extra_latency: Time::ZERO,
            connect_timeout: Duration::from_secs(10),
            faults: None,
            reliability: None,
            metrics: false,
            counters_slot: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_parse() {
        let d = PeerDirectory::parse("127.0.0.1:9000, 127.0.0.1:9001").unwrap();
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.addr(1).port(), 9001);
        assert!(PeerDirectory::parse("not-an-addr").is_err());
        assert!(PeerDirectory::parse("").is_err());
    }

    #[test]
    fn directory_parse_tolerates_trailing_commas_and_blank_entries() {
        // Trailing comma (the classic shell-generated list), doubled
        // commas and stray whitespace all parse to the same directory.
        for spec in [
            "127.0.0.1:9000,127.0.0.1:9001,",
            "127.0.0.1:9000,,127.0.0.1:9001",
            " 127.0.0.1:9000 , 127.0.0.1:9001 , ",
        ] {
            let d = PeerDirectory::parse(spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(d.len(), 2, "{spec:?}");
            assert_eq!(d.addr(0).port(), 9000);
            assert_eq!(d.addr(1).port(), 9001);
        }
        // A list of only separators is still empty.
        assert_eq!(
            PeerDirectory::parse(", ,").unwrap_err(),
            "empty peer list"
        );
    }

    #[test]
    fn directory_parse_reports_the_offending_entry_with_its_index() {
        let err = PeerDirectory::parse("127.0.0.1:9000,bogus:addr,127.0.0.1:9001")
            .expect_err("malformed entry must fail");
        assert!(err.contains("#1"), "missing index: {err}");
        assert!(err.contains("bogus:addr"), "missing entry text: {err}");
        let err = PeerDirectory::parse("nope").expect_err("must fail");
        assert!(err.contains("#0"), "{err}");
    }
}

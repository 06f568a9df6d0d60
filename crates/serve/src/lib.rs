//! Allocation-as-a-service serving layer.
//!
//! The engines in this workspace are *closed-loop*: each node thinks, then
//! issues its next critical-section request, so a slow allocator quietly
//! slows the request stream down with it.  Real serving systems are
//! *open-loop* — callers arrive on their own schedule — and measuring them
//! with a closed loop produces coordinated omission: latency percentiles
//! that ignore exactly the queueing delay users experience.
//!
//! This crate supplies the open-loop front end:
//!
//! * [`arrivals`] — seeded, deterministic Poisson and heavy-tailed
//!   (bounded-Pareto) arrival processes that fabricate requests;
//! * [`admission`] — a bounded FIFO admission queue with per-class quotas,
//!   shed accounting, and batching of pairwise-disjoint resource vectors
//!   into single critical-section requests;
//! * [`serve`] — [`ServeWorkload`], which adapts the open-loop stream onto
//!   the engines' pull-based `Workload` trait and reports intended-arrival
//!   timestamps so latency is keyed where the request *arrived*, not where
//!   the closed loop got around to issuing it;
//! * [`stats`] — the arrival → grant latency histogram and conservation
//!   counters shared out of the consumed workload.

pub mod admission;
pub mod arrivals;
pub mod serve;
pub mod stats;

pub use admission::{Admission, AdmissionQueue, ServeReq};
pub use arrivals::{ArrivalGen, Interarrival, RequestShape};
pub use serve::{check_conservation, ServeConfig, ServeWorkload};
pub use stats::{ServeStats, SharedServeStats};

//! The reliable-delivery session layer: exactly-once FIFO channels over
//! lossy links.
//!
//! Every algorithm in this workspace is specified over **reliable FIFO
//! channels** (the paper's hypothesis 2).  PR 4's fault sweep demonstrated
//! what happens when that hypothesis is silently dropped: with no
//! retransmission, every protocol collapses past per-mille sustained frame
//! loss, and liveness is simply "not owed".  This module makes the channel
//! contract real — a per-ordered-pair session protocol that upgrades any
//! lossy-but-FIFO link back to exactly-once FIFO delivery:
//!
//! * **monotone sequence numbers** — the sender stamps the `k`-th frame on
//!   a directed link with `seq = k`;
//! * **cumulative acks** — the receiver tracks `expected`, the next
//!   in-order sequence number; the value `expected` acknowledges every
//!   frame with `seq < expected`.  Acks are piggybacked on reverse-direction
//!   data traffic and sent as standalone ack frames when no reverse data is
//!   flowing;
//! * **timer-driven retransmission** — while unacknowledged frames exist
//!   the sender arms a retransmit timer; on expiry it re-sends the whole
//!   unacked window (go-back-N: the underlying channel is FIFO, so the
//!   receiver only ever accepts `expected` and discards the rest) and backs
//!   off exponentially up to a cap;
//! * **receive-side dedup window** — frames with `seq < expected` are
//!   duplicates (a retransmission that raced the ack, or a wire-level
//!   duplicate): they are discarded *and re-acked*, so a lost ack cannot
//!   wedge the sender.  Frames with `seq > expected` are gap frames (an
//!   earlier frame was lost); discarding them preserves FIFO and the
//!   retransmit timer recovers the gap.
//!
//! This module holds the configuration ([`Reliability`]) and the counters
//! ([`ReliabilityStats`]); the session state itself lives in each node's
//! [`LinkEnd`](crate::link::LinkEnd), one session per peer, the same code
//! on every substrate.  Retransmit windows are pre-sized at construction
//! ([`Reliability::window`]), so the steady-state send/ack path performs
//! no heap allocation beyond cloning the message payload into the
//! retransmit window — the simulator's zero-alloc guard runs with
//! reliability enabled over a lossy plan.
//!
//! With reliability **off** the links are the paper-faithful perfect
//! channels (nothing changes); with reliability **on** the same protocols
//! survive any fault plan that is [recoverable](
//! crate::faults::FaultPlan::is_recoverable) — every drop rate below 1.0 —
//! and the engines re-arm their deadlock detectors accordingly.

use mra_types::Time;

/// Retransmission never backs off beyond `rto << MAX_BACKOFF`.
pub(crate) const MAX_BACKOFF: u32 = 6;

/// Session-layer configuration.  `off` is represented by *not installing*
/// a `Reliability` at all (`Option<Reliability>` everywhere): the engines
/// then run the paper's perfect-link model untouched.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Reliability {
    /// Initial retransmission timeout (doubles per expiry while a frame
    /// stays unacknowledged).
    pub rto: Time,
    /// Upper bound of the exponential backoff.
    pub rto_cap: Time,
    /// Pre-sized per-link retransmit window (frames).  The window grows on
    /// demand; the pre-size only decides when the first reallocation
    /// happens (the zero-alloc guard uses a generous one).
    pub window: usize,
}

impl Default for Reliability {
    /// 10 ms initial RTO (≫ the paper's γ = 0.6 ms LAN latency), capped at
    /// `10 ms << MAX_BACKOFF` = 640 ms, 64-frame window pre-size.
    fn default() -> Self {
        Reliability::with_rto(Time::from_millis(10))
    }
}

impl Reliability {
    /// A configuration with the given initial RTO and the default cap
    /// (`rto << MAX_BACKOFF`) and window pre-size.
    pub fn with_rto(rto: Time) -> Self {
        assert!(rto > Time::ZERO, "RTO must be positive");
        Reliability {
            rto,
            rto_cap: Time::from_nanos(
                (rto.as_nanos() as u128) // u128: the shift cannot overflow
                    .checked_shl(MAX_BACKOFF)
                    .map_or(u64::MAX, |v| v.min(u64::MAX as u128) as u64),
            ),
            window: 64,
        }
    }

    /// Is `MRA_RELIABLE` set to a truthy value (`1`, `true`, `yes`, `on`)?
    pub fn env_enabled() -> bool {
        std::env::var("MRA_RELIABLE")
            .map(|v| {
                matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "1" | "true" | "yes" | "on"
                )
            })
            .unwrap_or(false)
    }

    /// The initial RTO from `MRA_RTO_MS` (fractional milliseconds), or
    /// `default` when unset, unparsable or non-positive.  Shared by
    /// [`Reliability::from_env`] and sweeps that enable the session layer
    /// explicitly but still honour the RTO knob.
    pub fn env_rto_or(default: Time) -> Time {
        std::env::var("MRA_RTO_MS")
            .ok()
            .and_then(|v| v.trim().parse::<f64>().ok())
            .filter(|ms| *ms > 0.0)
            .map(Time::from_millis_f64)
            .unwrap_or(default)
    }

    /// The session config from the environment: `Some` when `MRA_RELIABLE`
    /// is truthy, with the initial RTO overridden by `MRA_RTO_MS`.
    pub fn from_env() -> Option<Reliability> {
        if !Self::env_enabled() {
            return None;
        }
        Some(Reliability::with_rto(Self::env_rto_or(Time::from_millis(
            10,
        ))))
    }

    /// The retransmission delay after `backoff` consecutive expiries:
    /// `min(rto << backoff, rto_cap)`.
    pub fn delay(&self, backoff: u32) -> Time {
        let ns = (self.rto.as_nanos() as u128)
            .checked_shl(backoff.min(MAX_BACKOFF))
            .map_or(u128::MAX, |v| v);
        Time::from_nanos(ns.min(self.rto_cap.as_nanos() as u128) as u64)
    }
}

/// What the session layer did during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Data frames sent for the first time.
    pub data_sent: u64,
    /// Data frames re-sent by a retransmit timer.
    pub retransmits: u64,
    /// Retransmit timer expiries that found unacked frames.
    pub rto_fires: u64,
    /// Standalone ack frames sent.
    pub acks_sent: u64,
    /// Acks piggybacked on reverse-direction data frames.
    pub acks_piggybacked: u64,
    /// Received data frames discarded as duplicates (`seq < expected`).
    pub dup_dropped: u64,
    /// Received data frames discarded as gaps (`seq > expected`).
    pub gap_dropped: u64,
}

impl ReliabilityStats {
    /// Frames the session layer put on the wire beyond first-transmission
    /// data: the retransmission overhead numerator.
    pub fn overhead_frames(&self) -> u64 {
        self.retransmits + self.acks_sent
    }

    /// Overhead in percent of first-transmission data frames (0 when no
    /// data flowed).
    pub fn overhead_pct(&self) -> f64 {
        if self.data_sent == 0 {
            return 0.0;
        }
        100.0 * self.overhead_frames() as f64 / self.data_sent as f64
    }

    /// Fold another counter set into this one — engines sum their nodes'
    /// link endpoints with it.
    pub fn absorb(&mut self, other: &ReliabilityStats) {
        self.data_sent += other.data_sent;
        self.retransmits += other.retransmits;
        self.rto_fires += other.rto_fires;
        self.acks_sent += other.acks_sent;
        self.acks_piggybacked += other.acks_piggybacked;
        self.dup_dropped += other.dup_dropped;
        self.gap_dropped += other.gap_dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_doubles_and_caps() {
        let cfg = Reliability::with_rto(Time::from_millis(5));
        assert_eq!(cfg.delay(0), Time::from_millis(5));
        assert_eq!(cfg.delay(3), Time::from_millis(40));
        assert_eq!(cfg.delay(63), cfg.rto_cap);
        assert_eq!(cfg.delay(200), cfg.rto_cap, "shift is clamped");
    }

    #[test]
    fn env_knobs() {
        // Serialized by being a single test: no other test reads these.
        std::env::remove_var("MRA_RELIABLE");
        assert!(Reliability::from_env().is_none());
        std::env::set_var("MRA_RELIABLE", "1");
        std::env::set_var("MRA_RTO_MS", "2.5");
        let r = Reliability::from_env().expect("enabled");
        assert_eq!(r.rto, Time::from_micros(2_500));
        std::env::set_var("MRA_RELIABLE", "off");
        assert!(Reliability::from_env().is_none());
        std::env::remove_var("MRA_RELIABLE");
        std::env::remove_var("MRA_RTO_MS");
    }
}

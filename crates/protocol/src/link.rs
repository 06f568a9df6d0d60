//! The per-node link endpoint: fault filter → reliable session, written
//! once for every substrate.
//!
//! A [`LinkEnd`] is everything one node knows about its links, with no
//! I/O and no clock of its own (sans-IO: the caller passes `now` and moves
//! the [`Packet`]s).  For each peer it owns
//!
//! * the **inbound fault filter** — the counter-hashed drop/duplicate
//!   verdict of the `k`-th frame arriving from that peer (see
//!   [`crate::faults`]);
//! * the **reliable session** ([`crate::reliable`]) — the transmit window
//!   of sequenced, unacknowledged frames, the receive window with its
//!   owed-ack flag, and the retransmit deadline;
//!
//! plus the node's [`FaultStats`] (probabilistic verdicts only) and
//! [`ReliabilityStats`].  The substrates keep only their own job: `Sim`
//! its event queue, latencies and outage/partition windows, `VirtualNet`
//! its link queues and stepping, the TCP reactor its sockets and the
//! byte encoding of a [`Packet`].  With reliability and faults both off
//! an endpoint holds no per-peer state at all, so a 10 000-node simulation
//! pays nothing for it.
//!
//! **One fate per frame.**  Every [`LinkEnd::receive`] consumes exactly
//! one verdict of the sender's link, whatever the packet carries, so the
//! same seed drops the same frames on every substrate.  A duplicate copy
//! arrives right behind its original and never re-enters the filter (a
//! copy of a copy would cascade at high duplicate rates): on perfect links
//! it is absorbed here and counted in [`FaultStats::deduped`]; with
//! sessions on it is replayed into the receive window, which discards it
//! as stale.
//!
//! **Timers.**  A link keeps one retransmit timer in flight from the first
//! unacknowledged send until a fire finds nothing to resend
//! ([`LinkEnd::arm`], [`LinkEnd::on_rto`]); acks never disarm it.  An
//! early fire whose oldest frame is still young re-arms at that frame's
//! own deadline without retransmitting.

use crate::faults::{FaultPlan, FaultStats, LinkFaults};
use crate::reliable::{Reliability, ReliabilityStats, MAX_BACKOFF};
use mra_types::{NodeId, Time};
use std::collections::VecDeque;

/// A frame as it travels one directed link.  `Sim` and `VirtualNet`
/// queue these; the TCP reactor encodes the same three shapes as wire
/// frames.
#[derive(Clone, Debug)]
pub enum Packet<M> {
    /// Reliability off: the raw protocol message, no session framing.
    Plain(M),
    /// A sequenced protocol message with a piggybacked cumulative ack.
    Data {
        /// Monotone per-link sequence number.
        seq: u64,
        /// Cumulative ack for the reverse direction.
        ack: u64,
        /// The protocol payload.
        msg: M,
    },
    /// A standalone cumulative ack for the reverse direction.
    Ack {
        /// Cumulative ack value.
        ack: u64,
    },
}

impl<M> Packet<M> {
    /// The protocol message on board (`None` for a standalone ack, which
    /// is session plumbing and stays untraced).
    #[inline]
    pub fn msg(&self) -> Option<&M> {
        match self {
            Packet::Plain(msg) | Packet::Data { msg, .. } => Some(msg),
            Packet::Ack { .. } => None,
        }
    }
}

/// What [`LinkEnd::receive`] made of an arriving packet.
#[derive(Debug)]
pub enum Recv<M> {
    /// Hand the message to the protocol (exactly once).
    Deliver(M),
    /// Consumed by the session layer: a standalone ack, or a stale or gap
    /// data frame.
    Absorb,
    /// Lost to the link's drop verdict.  The packet comes back so the
    /// substrate can trace what was lost.
    Drop(Packet<M>),
}

/// Verdict for one frame on a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FrameFate {
    Deliver,
    Drop,
    /// Deliver once; a duplicate copy follows on the wire.
    Duplicate,
}

/// splitmix64 finalizer: a statistically solid pure mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a unit float in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DROP: u64 = 0xD20_0001;
const SALT_DUP: u64 = 0xD0B_0002;

/// Fault filter of one directed link, with its own frame counter.
#[derive(Clone, Debug)]
struct LinkFilter {
    seed: u64,
    link: u64,
    faults: LinkFaults,
    k: u64,
}

impl LinkFilter {
    /// Filter for the directed link `from → to` of an `n`-node system.
    fn new(plan: &FaultPlan, from: NodeId, to: NodeId, n: usize) -> Self {
        LinkFilter {
            seed: plan.seed,
            link: (from * n + to) as u64,
            faults: plan.link_faults(from, to),
            k: 0,
        }
    }

    /// Verdict for the next frame on this link: a pure function of
    /// `(seed, link, k)`, so every substrate computes the same one.
    #[inline]
    fn next_fate(&mut self) -> FrameFate {
        let k = self.k;
        self.k += 1;
        let roll = |salt: u64| {
            unit(mix(self.seed
                ^ salt
                ^ self.link.rotate_left(32)
                ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        };
        if self.faults.drop > 0.0 && roll(SALT_DROP) < self.faults.drop {
            return FrameFate::Drop;
        }
        if self.faults.dup > 0.0 && roll(SALT_DUP) < self.faults.dup {
            return FrameFate::Duplicate;
        }
        FrameFate::Deliver
    }
}

/// One frame held in the retransmit window.
#[derive(Clone, Debug)]
struct Held<M> {
    seq: u64,
    /// When the frame was (re)transmitted last — the RTO compares against
    /// the *oldest* held frame so a timer armed for frame `k` never
    /// spuriously re-sends a younger frame `k+1`.
    sent_at: Time,
    msg: M,
}

/// Verdict of a retransmit timer expiry ([`TxSession::on_rto`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RtoVerdict {
    /// Nothing unacknowledged: the timer dies (the next send re-arms it).
    Idle,
    /// The oldest unacked frame is younger than the timeout: re-arm at the
    /// contained instant, no backoff bump.
    Rearm(Time),
    /// The oldest unacked frame timed out: re-send the whole window
    /// (go-back-N) — the contained count of frames — with the backoff
    /// bumped.
    Retransmit(usize),
}

/// Sender half of one directed link session.
#[derive(Clone, Debug)]
struct TxSession<M> {
    next_seq: u64,
    unacked: VecDeque<Held<M>>,
    backoff: u32,
}

impl<M: Clone> TxSession<M> {
    /// Fresh session with a pre-sized retransmit window.
    fn new(window: usize) -> Self {
        TxSession {
            next_seq: 0,
            unacked: VecDeque::with_capacity(window),
            backoff: 0,
        }
    }

    /// Stamp the next outgoing frame and retain a copy for retransmission.
    fn send(&mut self, msg: &M, now: Time) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unacked.push_back(Held {
            seq,
            sent_at: now,
            msg: msg.clone(),
        });
        seq
    }

    /// Apply a cumulative ack (`upto` acknowledges every `seq < upto`).
    /// Returns true when a frame was newly acknowledged; progress resets
    /// the backoff.
    fn ack(&mut self, upto: u64) -> bool {
        let mut progressed = false;
        while self.unacked.front().is_some_and(|h| h.seq < upto) {
            self.unacked.pop_front();
            progressed = true;
        }
        if progressed {
            self.backoff = 0;
        }
        progressed
    }

    fn has_unacked(&self) -> bool {
        !self.unacked.is_empty()
    }

    /// The unacknowledged `(seq, msg)` pairs, oldest first.
    fn unacked(&self) -> impl Iterator<Item = (u64, &M)> {
        self.unacked.iter().map(|h| (h.seq, &h.msg))
    }

    /// A retransmit timer expired at `now`.  On [`RtoVerdict::Retransmit`]
    /// the whole window counts as re-sent at `now` and the backoff is
    /// bumped.
    fn on_rto(&mut self, now: Time, cfg: &Reliability) -> RtoVerdict {
        let Some(oldest) = self.unacked.front() else {
            return RtoVerdict::Idle;
        };
        let due = oldest.sent_at + cfg.delay(self.backoff);
        if due > now {
            return RtoVerdict::Rearm(due);
        }
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF);
        for h in self.unacked.iter_mut() {
            h.sent_at = now;
        }
        RtoVerdict::Retransmit(self.unacked.len())
    }

    /// Restart every frame's RTO clock (and the backoff) at `now`.
    fn link_up(&mut self, now: Time) {
        self.backoff = 0;
        for h in self.unacked.iter_mut() {
            h.sent_at = now;
        }
    }

    /// Current retransmission delay under `cfg`.
    fn rto_delay(&self, cfg: &Reliability) -> Time {
        cfg.delay(self.backoff)
    }
}

/// Verdict of the receive window for one data frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RxVerdict {
    /// In order: hand the payload to the protocol exactly once.
    Deliver,
    /// `seq < expected`: a duplicate — discard, but re-ack.
    Stale,
    /// `seq > expected`: an earlier frame was lost — discard to preserve
    /// FIFO; the sender's timer retransmits the gap.
    Gap,
}

/// Receiver half of one directed link session.
#[derive(Clone, Copy, Debug, Default)]
struct RxWindow {
    /// The next in-order sequence number — also the cumulative ack value.
    expected: u64,
    /// A cumulative ack is owed to the sender and has not been
    /// piggybacked yet.
    owed: bool,
}

impl RxWindow {
    /// Classify an arriving sequence number.  Every data frame owes an
    /// ack: duplicates must be re-acked (the ack that would have cleared
    /// them may have been lost), and a gap costs nothing since the flag
    /// batches.
    fn accept(&mut self, seq: u64) -> RxVerdict {
        use std::cmp::Ordering::*;
        self.owed = true;
        match seq.cmp(&self.expected) {
            Equal => {
                self.expected += 1;
                RxVerdict::Deliver
            }
            Less => RxVerdict::Stale,
            Greater => RxVerdict::Gap,
        }
    }
}

/// Both halves of one peer's session plus its retransmit deadline.
#[derive(Clone, Debug)]
struct Session<M> {
    tx: TxSession<M>,
    rx: RxWindow,
    /// `Some` while a retransmit timer is in flight.
    deadline: Option<Time>,
}

/// One node's link endpoint: an inbound fault filter and a reliable
/// session per peer, and what they did.  See the module docs.
#[derive(Clone, Debug)]
pub struct LinkEnd<M> {
    me: NodeId,
    n: usize,
    /// `None` on perfect links: no per-peer state, and one pointer of
    /// footprint per node.
    links: Option<Box<Links<M>>>,
}

/// The per-peer state of an endpoint with a fault plan or sessions.
#[derive(Clone, Debug)]
struct Links<M> {
    rel: Option<Reliability>,
    /// Inbound filter per peer; empty without a fault plan.
    filters: Vec<LinkFilter>,
    /// Session per peer; empty with reliability off.
    sessions: Vec<Session<M>>,
    faults: FaultStats,
    reliability: ReliabilityStats,
}

impl<M: Clone> LinkEnd<M> {
    /// Node `me`'s endpoint in an `n`-node system: perfect links, no
    /// sessions, no per-peer state.
    pub fn new(me: NodeId, n: usize) -> Self {
        assert!(me < n, "node id {me} out of range 0..{n}");
        LinkEnd { me, n, links: None }
    }

    fn links_mut(&mut self) -> &mut Links<M> {
        self.links.get_or_insert_with(|| {
            Box::new(Links {
                rel: None,
                filters: Vec::new(),
                sessions: Vec::new(),
                faults: FaultStats::default(),
                reliability: ReliabilityStats::default(),
            })
        })
    }

    /// Run every inbound link through `plan`'s drop/duplicate filter,
    /// with fresh frame counters.
    ///
    /// # Panics
    /// If the plan overrides a link outside `0..n`.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        let (me, n) = (self.me, self.n);
        for (f, t, _) in &plan.overrides {
            assert!(*f < n && *t < n, "link override ({f},{t}) outside 0..{n}");
        }
        self.links_mut().filters = (0..n)
            .map(|peer| LinkFilter::new(plan, peer, me, n))
            .collect();
    }

    /// Open a reliable session to every peer, retransmit windows pre-sized
    /// to `cfg.window` frames.
    ///
    /// # Panics
    /// If reliability is already on.
    pub fn enable_reliability(&mut self, cfg: Reliability) {
        let n = self.n;
        let l = self.links_mut();
        assert!(l.rel.is_none(), "reliability enabled twice");
        l.rel = Some(cfg);
        l.sessions = (0..n)
            .map(|_| Session {
                tx: TxSession::new(cfg.window),
                rx: RxWindow::default(),
                deadline: None,
            })
            .collect();
    }

    /// Is the session layer on?
    pub fn reliable(&self) -> bool {
        self.links.as_ref().is_some_and(|l| l.rel.is_some())
    }

    /// Probabilistic fault verdicts so far (drops, duplicates, absorbed
    /// duplicates).
    pub fn faults(&self) -> FaultStats {
        self.links
            .as_ref()
            .map_or_else(FaultStats::default, |l| l.faults)
    }

    /// Session-layer counters so far.
    pub fn reliability(&self) -> ReliabilityStats {
        self.links
            .as_ref()
            .map_or_else(ReliabilityStats::default, |l| l.reliability)
    }

    /// Frame `msg` for `to` at `now` (clockless substrates pass
    /// [`Time::ZERO`]).  With sessions on this assigns the sequence number,
    /// keeps the retransmit copy and piggybacks the cumulative ack owed to
    /// `to`, which then needs no standalone ack.
    #[inline]
    pub fn send(&mut self, to: NodeId, msg: M, now: Time) -> Packet<M> {
        let Some(l) = self.links.as_deref_mut() else {
            return Packet::Plain(msg);
        };
        let Some(s) = l.sessions.get_mut(to) else {
            return Packet::Plain(msg);
        };
        let seq = s.tx.send(&msg, now);
        if s.rx.owed {
            s.rx.owed = false;
            l.reliability.acks_piggybacked += 1;
        }
        l.reliability.data_sent += 1;
        Packet::Data {
            seq,
            ack: s.rx.expected,
            msg,
        }
    }

    /// After a send to `to`: the instant a retransmit timer must fire, if
    /// none is in flight yet.
    #[inline]
    pub fn arm(&mut self, to: NodeId, now: Time) -> Option<Time> {
        let l = self.links.as_deref_mut()?;
        let cfg = l.rel?;
        let s = &mut l.sessions[to];
        if s.deadline.is_some() || !s.tx.has_unacked() {
            return None;
        }
        let at = now + s.tx.rto_delay(&cfg);
        s.deadline = Some(at);
        Some(at)
    }

    /// A packet from `from` arrived: run it through the link's fault
    /// filter, then the session.  Call [`LinkEnd::take_ack`] once the
    /// delivered message (if any) has been handled.
    ///
    /// # Panics
    /// On a session packet with reliability off.
    #[inline]
    pub fn receive(&mut self, from: NodeId, packet: Packet<M>) -> Recv<M> {
        const NO_SESSION: &str = "session packet without a session layer";
        let Some(l) = self.links.as_deref_mut() else {
            let Packet::Plain(msg) = packet else {
                panic!("{NO_SESSION}")
            };
            return Recv::Deliver(msg);
        };
        let mut copies = 1;
        if let Some(f) = l.filters.get_mut(from) {
            match f.next_fate() {
                FrameFate::Drop => {
                    l.faults.dropped_link += 1;
                    return Recv::Drop(packet);
                }
                FrameFate::Duplicate => {
                    l.faults.duplicated += 1;
                    copies = 2;
                }
                FrameFate::Deliver => {}
            }
        }
        match packet {
            Packet::Plain(msg) => {
                if copies == 2 {
                    // Perfect links: no session exists to see the copy.
                    l.faults.deduped += 1;
                }
                Recv::Deliver(msg)
            }
            Packet::Ack { ack } => {
                // Cumulative acks are idempotent: a duplicated one changes
                // nothing.
                l.sessions.get_mut(from).expect(NO_SESSION).tx.ack(ack);
                Recv::Absorb
            }
            Packet::Data { seq, ack, msg } => {
                let s = l.sessions.get_mut(from).expect(NO_SESSION);
                s.tx.ack(ack);
                let mut deliver = false;
                for _ in 0..copies {
                    match s.rx.accept(seq) {
                        RxVerdict::Deliver => deliver = true,
                        RxVerdict::Stale => l.reliability.dup_dropped += 1,
                        RxVerdict::Gap => l.reliability.gap_dropped += 1,
                    }
                }
                if deliver {
                    Recv::Deliver(msg)
                } else {
                    Recv::Absorb
                }
            }
        }
    }

    /// The standalone ack owed to `peer`, if no data frame piggybacked it
    /// since the last data frame arrived.
    #[inline]
    pub fn take_ack(&mut self, peer: NodeId) -> Option<Packet<M>> {
        let l = self.links.as_deref_mut()?;
        let s = l.sessions.get_mut(peer)?;
        if !s.rx.owed {
            return None;
        }
        s.rx.owed = false;
        l.reliability.acks_sent += 1;
        Some(Packet::Ack { ack: s.rx.expected })
    }

    /// The retransmit timer of the link to `peer` fired at `now`.  Passes
    /// every frame to resend — the whole unacked window, go-back-N — to
    /// `resend`, and returns when the timer must fire next (`None`: nothing
    /// left unacked, the timer dies until the next send re-arms it).
    /// Resent frames carry the current cumulative ack but leave the owed
    /// flag alone: a retransmission is no fresh inbound data.
    pub fn on_rto(
        &mut self,
        peer: NodeId,
        now: Time,
        mut resend: impl FnMut(Packet<M>),
    ) -> Option<Time> {
        const NO_SESSION: &str = "retransmit timer without a session layer";
        let l = self.links.as_deref_mut().expect(NO_SESSION);
        let cfg = l.rel.expect(NO_SESSION);
        let s = &mut l.sessions[peer];
        let next = match s.tx.on_rto(now, &cfg) {
            RtoVerdict::Idle => None,
            RtoVerdict::Rearm(at) => Some(at),
            RtoVerdict::Retransmit(k) => {
                l.reliability.rto_fires += 1;
                l.reliability.retransmits += k as u64;
                let ack = s.rx.expected;
                for (seq, msg) in s.tx.unacked() {
                    resend(Packet::Data {
                        seq,
                        ack,
                        msg: msg.clone(),
                    });
                }
                Some(now + s.tx.rto_delay(&cfg))
            }
        };
        s.deadline = next;
        next
    }

    /// When the timer of the link to `peer` fires, if one is in flight and
    /// a frame is still unacknowledged.  Substrates that poll (the TCP
    /// reactor) skip idle links with this and so never wake for them.
    pub fn deadline(&self, peer: NodeId) -> Option<Time> {
        let s = self.links.as_ref()?.sessions.get(peer)?;
        s.deadline.filter(|_| s.tx.has_unacked())
    }

    /// The transport to `peer` just came up (or is still forming at a
    /// timer fire).  Frames queued meanwhile never reached a wire, so
    /// their RTO clocks and the backoff restart at `now`, and the timer
    /// with them.
    pub fn link_up(&mut self, peer: NodeId, now: Time) {
        let Some(l) = self.links.as_deref_mut() else {
            return;
        };
        let Some(cfg) = l.rel else {
            return;
        };
        let s = &mut l.sessions[peer];
        if s.tx.has_unacked() {
            s.tx.link_up(now);
            s.deadline = Some(now + s.tx.rto_delay(&cfg));
        }
    }

    /// Pass every unacknowledged frame on every link to `emit`, peers in
    /// order — the clockless analogue of all timers firing at once.
    /// Returns the number of frames emitted.
    pub fn retransmit_all(&mut self, mut emit: impl FnMut(NodeId, Packet<M>)) -> usize {
        let Some(l) = self.links.as_deref_mut() else {
            return 0;
        };
        let mut count = 0;
        for (to, s) in l.sessions.iter().enumerate() {
            let k = s.tx.unacked.len();
            if k == 0 {
                continue;
            }
            l.reliability.rto_fires += 1;
            l.reliability.retransmits += k as u64;
            let ack = s.rx.expected;
            for (seq, msg) in s.tx.unacked() {
                emit(
                    to,
                    Packet::Data {
                        seq,
                        ack,
                        msg: msg.clone(),
                    },
                );
            }
            count += k;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two endpoints of a 2-node system with sessions on.
    fn pair() -> (LinkEnd<u32>, LinkEnd<u32>) {
        let mut a = LinkEnd::new(0, 2);
        let mut b = LinkEnd::new(1, 2);
        a.enable_reliability(Reliability::default());
        b.enable_reliability(Reliability::default());
        (a, b)
    }

    fn links(e: &LinkEnd<u32>) -> &Links<u32> {
        e.links.as_deref().expect("per-peer state installed")
    }

    fn data(p: &Packet<u32>) -> (u64, u64) {
        match *p {
            Packet::Data { seq, ack, .. } => (seq, ack),
            _ => panic!("expected a data packet, got {p:?}"),
        }
    }

    fn delivered(r: Recv<u32>) -> bool {
        matches!(r, Recv::Deliver(_))
    }

    /// The first `count` verdicts of `link` under `seed`.
    fn fates(seed: u64, link: u64, faults: LinkFaults, count: usize) -> Vec<FrameFate> {
        let mut f = LinkFilter {
            seed,
            link,
            faults,
            k: 0,
        };
        (0..count).map(|_| f.next_fate()).collect()
    }

    #[test]
    fn fate_is_deterministic_and_counter_indexed() {
        let faults = LinkFaults {
            drop: 0.3,
            dup: 0.2,
        };
        let a = fates(7, 5, faults, 200);
        let b = fates(7, 5, faults, 200);
        assert_eq!(a, b);
        let c = fates(8, 5, faults, 200);
        assert_ne!(a, c, "different seeds must give different verdicts");
        assert!(a.contains(&FrameFate::Drop));
        assert!(a.contains(&FrameFate::Duplicate));
        assert!(a.contains(&FrameFate::Deliver));
    }

    #[test]
    fn drop_frequency_tracks_probability() {
        let faults = LinkFaults {
            drop: 0.2,
            dup: 0.0,
        };
        let drops = fates(42, 3, faults, 10_000)
            .into_iter()
            .filter(|&f| f == FrameFate::Drop)
            .count();
        assert!((1_700..2_300).contains(&drops), "got {drops} drops");
    }

    #[test]
    fn endpoint_filter_matches_the_link_hash() {
        let plan = FaultPlan::new(99).drop_rate(0.25).dup_rate(0.1);
        let n = 4;
        let mut end: LinkEnd<u32> = LinkEnd::new(2, n);
        end.install_faults(&plan);
        let mut filter = LinkFilter::new(&plan, 1, 2, n);
        for k in 0..500 {
            let dups = end.faults().duplicated;
            let fate = match end.receive(1, Packet::Plain(k)) {
                Recv::Drop(_) => FrameFate::Drop,
                _ if end.faults().duplicated > dups => FrameFate::Duplicate,
                _ => FrameFate::Deliver,
            };
            assert_eq!(fate, filter.next_fate());
        }
        assert_eq!(filter.k, 500);
        assert_eq!(links(&end).filters[1].k, 500, "one fate per frame");
    }

    #[test]
    fn endpoint_overrides_take_precedence() {
        let plan = FaultPlan::new(1).drop_rate(0.0).link_override(
            0,
            1,
            LinkFaults {
                drop: 1.0,
                dup: 0.0,
            },
        );
        let mut at1: LinkEnd<u32> = LinkEnd::new(1, 2);
        let mut at0: LinkEnd<u32> = LinkEnd::new(0, 2);
        at1.install_faults(&plan);
        at0.install_faults(&plan);
        assert!(matches!(
            at1.receive(0, Packet::Plain(7)),
            Recv::Drop(Packet::Plain(7))
        ));
        assert!(delivered(at0.receive(1, Packet::Plain(7))));
    }

    #[test]
    fn endpoint_absorbs_perfect_link_duplicates_and_replays_session_ones() {
        let plan = FaultPlan::new(5).dup_rate(1.0);
        let mut absorb: LinkEnd<u32> = LinkEnd::new(1, 2);
        absorb.install_faults(&plan);
        assert!(delivered(absorb.receive(0, Packet::Plain(7))));
        assert_eq!(absorb.faults().duplicated, 1);
        assert_eq!(absorb.faults().deduped, 1);
        let (mut a, mut wire) = pair();
        wire.install_faults(&plan);
        let p = a.send(1, 7, Time::ZERO);
        assert!(delivered(wire.receive(0, p)));
        assert_eq!(wire.faults().duplicated, 1);
        assert_eq!(wire.faults().deduped, 0, "the session layer absorbs it");
        assert_eq!(wire.reliability().dup_dropped, 1);
    }

    #[test]
    fn endpoint_owes_one_ack_per_servicing_pass() {
        let (mut a, mut b) = pair();
        assert!(b.take_ack(0).is_none());

        // A burst of in-order frames owes exactly one cumulative ack.
        let burst: Vec<Packet<u32>> = (0..3).map(|k| a.send(1, k, Time::ZERO)).collect();
        for p in burst.iter().cloned() {
            assert!(delivered(b.receive(0, p)));
        }
        assert!(matches!(b.take_ack(0), Some(Packet::Ack { ack: 3 })));
        assert!(b.take_ack(0).is_none(), "flag consumed");

        // A duplicate re-owes an ack (the clearing ack may have been lost).
        assert!(matches!(b.receive(0, burst[1].clone()), Recv::Absorb));
        assert!(matches!(b.take_ack(0), Some(Packet::Ack { ack: 3 })));

        // Piggybacking onto outbound data consumes the flag too: no
        // standalone ack follows a data frame that already carried it.
        assert!(delivered(b.receive(0, a.send(1, 3, Time::ZERO))));
        assert_eq!(data(&b.send(0, 9, Time::ZERO)).1, 4);
        assert!(b.take_ack(0).is_none());

        // A gap frame still owes (batched, so it costs no extra frame).
        for k in 4..9 {
            a.send(1, k, Time::ZERO);
        }
        assert!(matches!(
            b.receive(0, a.send(1, 9, Time::ZERO)),
            Recv::Absorb
        ));
        assert!(matches!(b.take_ack(0), Some(Packet::Ack { ack: 4 })));
    }

    #[test]
    fn tx_session_sequences_acks_and_backs_off() {
        let cfg = Reliability::with_rto(Time::from_millis(10));
        let t0 = Time::ZERO;
        let mut tx: TxSession<u32> = TxSession::new(8);
        assert_eq!(tx.send(&10, t0), 0);
        assert_eq!(tx.send(&11, t0), 1);
        assert_eq!(tx.send(&12, t0), 2);
        assert!(tx.has_unacked());
        // Cumulative ack clears a prefix.
        assert!(tx.ack(2));
        assert_eq!(tx.unacked().count(), 1);
        assert!(!tx.ack(2), "re-ack makes no progress");
        // Due RTOs bump the backoff; progress resets it.
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(10));
        assert_eq!(
            tx.on_rto(Time::from_millis(10), &cfg),
            RtoVerdict::Retransmit(1)
        );
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(20));
        assert_eq!(
            tx.on_rto(Time::from_millis(30), &cfg),
            RtoVerdict::Retransmit(1)
        );
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(40));
        assert!(tx.ack(3));
        assert!(!tx.has_unacked());
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(10), "backoff reset");
        assert_eq!(
            tx.on_rto(Time::from_millis(99), &cfg),
            RtoVerdict::Idle,
            "nothing left to retransmit"
        );
        assert_eq!(tx.next_seq, 3);
    }

    #[test]
    fn young_frames_rearm_instead_of_retransmitting() {
        // A timer armed for frame A must not re-send frame B that was sent
        // just before the expiry.
        let cfg = Reliability::with_rto(Time::from_millis(10));
        let mut tx: TxSession<u32> = TxSession::new(8);
        tx.send(&1, Time::ZERO);
        // Frame 0 acked quickly; frame 1 sent at t = 8 ms.
        assert!(tx.ack(1));
        tx.send(&2, Time::from_millis(8));
        // The timer armed at t = 0 fires at t = 10: frame 1 is only 2 ms
        // old — re-arm at its own deadline (18 ms), no backoff bump.
        assert_eq!(
            tx.on_rto(Time::from_millis(10), &cfg),
            RtoVerdict::Rearm(Time::from_millis(18))
        );
        assert_eq!(tx.rto_delay(&cfg), Time::from_millis(10));
        assert_eq!(
            tx.on_rto(Time::from_millis(18), &cfg),
            RtoVerdict::Retransmit(1)
        );
    }

    #[test]
    fn backoff_is_capped() {
        let cfg = Reliability::with_rto(Time::from_millis(10));
        let mut tx: TxSession<u32> = TxSession::new(4);
        tx.send(&1, Time::ZERO);
        for k in 0..40u64 {
            // Always due: retransmission stamps `sent_at = now`, so fire
            // exactly one cap-delay later each round.
            tx.on_rto(Time::from_secs(1) * k, &cfg);
        }
        assert_eq!(tx.rto_delay(&cfg), cfg.rto_cap);
        assert_eq!(cfg.rto_cap, Time::from_millis(640));
    }

    #[test]
    fn rx_window_delivers_exactly_once_in_order() {
        let mut rx = RxWindow::default();
        assert_eq!(rx.accept(0), RxVerdict::Deliver);
        assert_eq!(rx.accept(0), RxVerdict::Stale, "retransmitted duplicate");
        assert_eq!(rx.accept(2), RxVerdict::Gap, "frame 1 was lost");
        assert_eq!(rx.accept(1), RxVerdict::Deliver);
        assert_eq!(rx.accept(2), RxVerdict::Deliver);
        assert_eq!(rx.expected, 3);
    }

    #[test]
    fn endpoint_piggybacks_and_emits_standalone_acks() {
        let (mut a, mut b) = pair();
        // 0 sends to 1; 1 receives and owes an ack.
        let p = a.send(1, 7, Time::ZERO);
        assert_eq!(data(&p), (0, 0));
        assert!(delivered(b.receive(0, p)));
        // No reverse data: the ack surfaces as a standalone frame.
        let ack = b.take_ack(0).expect("ack owed");
        assert!(matches!(ack, Packet::Ack { ack: 1 }));
        assert!(b.take_ack(0).is_none(), "flag consumed");
        assert!(matches!(a.receive(1, ack), Recv::Absorb));
        assert!(!links(&a).sessions[1].tx.has_unacked());
        assert_eq!(b.reliability().acks_sent, 1);
        assert_eq!(b.reliability().acks_piggybacked, 0);
    }

    #[test]
    fn reverse_data_consumes_the_owed_ack() {
        let (mut a, mut b) = pair();
        assert!(delivered(b.receive(0, a.send(1, 7, Time::ZERO))));
        // 1 replies with data: the ack rides along.
        let reply = b.send(0, 8, Time::ZERO);
        assert_eq!(data(&reply), (0, 1), "piggyback carries cum ack 1");
        assert!(b.take_ack(0).is_none(), "consumed by the piggyback");
        assert!(delivered(a.receive(1, reply)));
        assert!(
            links(&a).sessions[1].tx.unacked().next().is_none(),
            "0→1 frame acked"
        );
        assert_eq!(b.reliability().acks_piggybacked, 1);
    }

    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let (mut a, mut b) = pair();
        let p = a.send(1, 7, Time::ZERO);
        assert!(delivered(b.receive(0, p.clone())));
        let _ = b.take_ack(0);
        // The same frame again (wire duplicate or raced retransmission).
        assert!(matches!(b.receive(0, p), Recv::Absorb));
        assert_eq!(b.reliability().dup_dropped, 1);
        assert!(
            matches!(b.take_ack(0), Some(Packet::Ack { ack: 1 })),
            "duplicates are re-acked"
        );
    }

    #[test]
    fn gaps_are_dropped_and_recovered_by_retransmission() {
        let (mut a, mut b) = pair();
        let now = Time::ZERO;
        let p0 = a.send(1, 7, now);
        let p1 = a.send(1, 8, now);
        assert_eq!((data(&p0).0, data(&p1).0), (0, 1));
        // Frame 0 lost on the wire; frame 1 arrives as a gap.
        assert!(matches!(b.receive(0, p1), Recv::Absorb));
        assert_eq!(b.reliability().gap_dropped, 1);
        // Timer path: both frames retransmit, in order.
        assert!(a.arm(1, now).is_some());
        assert!(a.arm(1, now).is_none(), "only one timer per link");
        let mut resent = Vec::new();
        assert!(a
            .on_rto(1, Time::from_secs(1), |p| resent.push(p))
            .is_some());
        let seqs: Vec<u64> = resent.iter().map(|p| data(p).0).collect();
        assert_eq!(seqs, vec![0, 1]);
        // Receiver accepts 0 then 1, each exactly once.
        let mut frames = resent.into_iter();
        assert!(delivered(b.receive(0, frames.next().unwrap())));
        let last = frames.next().unwrap();
        assert!(delivered(b.receive(0, last.clone())));
        assert!(!delivered(b.receive(0, last)));
    }

    #[test]
    fn retransmit_all_re_emits_every_unacked_frame() {
        let mk = |me| {
            let mut e: LinkEnd<u32> = LinkEnd::new(me, 3);
            e.enable_reliability(Reliability::default());
            e
        };
        let (mut e0, mut e2) = (mk(0), mk(2));
        e0.send(1, 1, Time::ZERO);
        e0.send(1, 2, Time::ZERO);
        e2.send(0, 3, Time::ZERO);
        let mut seen = Vec::new();
        let mut k = 0;
        for (from, e) in [(0, &mut e0), (2, &mut e2)] {
            k += e.retransmit_all(|to, p| {
                if let Packet::Data { seq, msg, .. } = p {
                    seen.push((from, to, seq, msg));
                }
            });
        }
        assert_eq!(k, 3);
        assert_eq!(seen, vec![(0, 1, 0, 1), (0, 1, 1, 2), (2, 0, 0, 3)]);
        assert_eq!(
            e0.reliability().retransmits + e2.reliability().retransmits,
            3
        );
    }

    #[test]
    fn timer_stays_armed_across_a_full_ack_and_fires_idle() {
        let (mut a, mut b) = pair();
        let rto = Reliability::default().rto;
        let t0 = Time::ZERO;
        let p = a.send(1, 7, t0);
        let due = a.arm(1, t0).expect("first send arms");
        assert_eq!(due, t0 + rto);
        assert!(delivered(b.receive(0, p)));
        assert!(matches!(a.receive(1, b.take_ack(0).unwrap()), Recv::Absorb));
        // Fully acked: the timer is still in flight (acks never disarm),
        // but a polling substrate sees no deadline to wake for.
        assert!(
            a.arm(1, t0).is_none(),
            "no second timer while one is in flight"
        );
        assert_eq!(a.deadline(1), None);
        // It fires `Idle`: nothing is resent and it dies.
        let mut resent = 0;
        assert_eq!(a.on_rto(1, due, |_| resent += 1), None);
        assert_eq!(resent, 0);
        assert_eq!(a.reliability().rto_fires, 0);
        // The next send re-arms it.
        let t1 = due + Time::from_millis(1);
        a.send(1, 8, t1);
        assert_eq!(a.arm(1, t1), Some(t1 + rto));
        assert_eq!(a.deadline(1), Some(t1 + rto));
    }

    #[test]
    fn perfect_endpoint_holds_no_per_peer_state() {
        let mut e: LinkEnd<u32> = LinkEnd::new(3, 10_000);
        assert!(matches!(e.send(7, 1, Time::ZERO), Packet::Plain(1)));
        assert!(e.arm(7, Time::ZERO).is_none());
        assert!(delivered(e.receive(7, Packet::Plain(2))));
        assert!(e.take_ack(7).is_none());
        assert_eq!(e.retransmit_all(|_, _| {}), 0);
        assert!(e.links.is_none());
    }
}

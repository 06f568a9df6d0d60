//! The readiness-polled TCP transport: one reactor thread per node
//! drives *every* peer socket through an epoll/kqueue poller, and runs the
//! node itself.
//!
//! A thread-per-connection design spends one OS thread and one
//! ordered-pair connection per link — `n-1` reader threads and `2(n-1)`
//! sockets per node, one `write(2)` per frame.  Fine at 8 nodes; at 256
//! that is 65 k threads and 130 k sockets cluster-wide, and every
//! hot-path frame costs a syscall.  This module instead runs, per node:
//!
//! * **one thread** — the reactor — owning one [`polling::Poller`],
//!   every socket and the node ([`Node`](crate::node::Node)): the
//!   protocol runs on deliveries and on its think/CS timer, and its
//!   outbox drains straight into the write queues;
//! * **one bidirectional connection per unordered pair** — the smaller
//!   node id connects to the larger id's listener (the 4-byte handshake
//!   names the connector).  TCP is FIFO in both directions and the
//!   reactor serializes writes, so the per-directed-link FIFO contract
//!   the protocols assume still holds while the socket count halves;
//! * **incremental decode** — per-connection
//!   [`FrameBuf`](crate::frame::FrameBuf)s absorb reads wherever the
//!   kernel cuts them;
//! * **coalesced writes** — frames queue into a per-connection byte
//!   buffer and flush once per reactor iteration: protocol messages,
//!   retransmissions, control frames and piggybacked/standalone session
//!   acks to the same peer share a single `write(2)`.  A partial write
//!   parks the remainder and resumes on write-readiness;
//! * **one timer wheel** — the node's think/CS deadline, deliveries
//!   held back by `MeshConfig::extra_latency`, reliability RTOs and
//!   connect retries all bound the poll timeout, which keeps its
//!   sub-millisecond part (`epoll_pwait2`);
//! * **one link endpoint** — the node's
//!   [`LinkEnd`](mra_protocol::link::LinkEnd), the same fault filter and
//!   reliable session `Sim` and `VirtualNet` run; the reactor only maps
//!   its packets to frames and its deadlines to `Instant`s.
//!
//! See DESIGN.md §12 for the full contract.
//!
//! Everything here is unix-only (the vendored poller has no backend
//! elsewhere): on other platforms the stub `run_reactor` below reports
//! `Unsupported`, so TCP clusters do not run there.

#[cfg(unix)]
pub(crate) use imp::run_reactor;

#[cfg(unix)]
mod imp {
    use crate::frame::{
        begin_frame, decode_packet, encode_packet, end_frame, FrameBuf, WriteBuf, TAG_DONE,
        TAG_SHUTDOWN,
    };
    use crate::node::{lock, Node};
    use crate::sys;
    use crate::transport::{DoneAct, MeshConfig, PeerDirectory, PortCtrl, PortStats};
    use mra_obs::NetCounters;
    use mra_protocol::link::{LinkEnd, Packet, Recv};
    use mra_protocol::{Allocator, WireCodec};
    use mra_sim::Workload;
    use mra_types::{NodeId, Time};
    use polling::{Event, Events, Poller};
    use std::collections::VecDeque;
    use std::io::{self, Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// Wait this long between connect retries (a peer process may not
    /// have bound its listener yet — solo deployments).
    const RETRY_DELAY: Duration = Duration::from_millis(20);
    /// Reads serviced per connection per reactor iteration (~256 KiB).
    /// See [`Reactor::service_read`] — the bound keeps one flooding peer
    /// from starving everyone else's acks and timers.
    const MAX_READS_PER_PASS: usize = 16;
    /// On stop, keep flushing parked write buffers at most this long.
    const DRAIN_LIMIT: Duration = Duration::from_secs(5);

    /// One peer's connection state inside the reactor.
    struct PeerConn {
        /// `None` until a socket exists (acceptor side: until the
        /// handshake names this peer).
        stream: Option<TcpStream>,
        /// Transport-level setup (connect, or accept + handshake) done?
        connected: bool,
        /// Pending outbound bytes (consumed-prefix-compacting, so a slow
        /// peer bounds memory at the live backlog instead of growing it
        /// monotonically).  Frames queued before the connection exists
        /// park here too — on the connector side the first four bytes are
        /// the handshake itself, so it always leads whatever was queued
        /// early.
        wbuf: WriteBuf,
        /// Incremental inbound decoder.
        rbuf: FrameBuf,
        /// Is write-readiness part of the registered interest right now?
        want_write: bool,
        /// Next connect attempt (connector side, after a refusal).
        retry_at: Option<Instant>,
        /// The link is gone (EOF, error, fatal connect failure) — or is
        /// the self-slot, which never carries traffic.
        dead: bool,
    }

    impl PeerConn {
        fn parked(&self) -> usize {
            self.wbuf.pending()
        }
    }

    /// An accepted socket whose 4-byte handshake has not fully arrived.
    struct Pending {
        stream: TcpStream,
        got: Vec<u8>,
    }

    struct Reactor<M: WireCodec + Clone> {
        me: NodeId,
        n: usize,
        addrs: Vec<SocketAddr>,
        poller: Poller,
        listener: TcpListener,
        ctrl: PortCtrl,
        conns: Vec<PeerConn>,
        pending: Vec<Option<Pending>>,
        /// Fault filters and reliable sessions of every link.
        end: LinkEnd<M>,
        /// Origin of the endpoint's time axis.
        epoch: Instant,
        extra: Duration,
        /// Deliveries the link endpoint let through, each due `extra`
        /// after its arrival.  The delay is constant, so arrival order is
        /// delivery order.
        inbox: VecDeque<(Instant, NodeId, M)>,
        /// A shutdown frame arrived or a link broke: stop the node once
        /// the deliveries ahead of it are through.
        closing: bool,
        connect_deadline: Instant,
        counters: NetCounters,
        slot: Arc<Mutex<PortStats>>,
        metrics: bool,
        /// Reusable encode scratch (one frame at a time).
        buf: Vec<u8>,
        /// Reusable decode scratch (frame body, tag at `[0]`).
        scratch: Vec<u8>,
        /// `Some(deadline)` once the node stopped: flush, then exit.
        draining: Option<Instant>,
    }

    impl<M: WireCodec + Clone> Reactor<M> {
        fn key_listener(&self) -> usize {
            self.n
        }
        fn key_pending_base(&self) -> usize {
            self.n + 1
        }

        fn run<A, W>(mut self, mut node: Node<A, W>)
        where
            A: Allocator<Msg = M>,
            W: Workload,
        {
            for peer in (self.me + 1)..self.n {
                self.start_connect(peer);
            }
            // Frames the node sends before the mesh forms park in `wbuf`,
            // behind the handshake `start_connect` queued.
            node.start(&mut |to, msg| self.queue_data(to, msg));
            let mut events = Events::new();
            loop {
                self.publish();
                let timeout = self.next_timeout(node.deadline());
                if let Err(e) = self.poller.wait(&mut events, timeout) {
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    eprintln!("mra-net: reactor[{}] poll failed: {e}", self.me);
                    break;
                }
                for ev in events.iter() {
                    if ev.key == self.key_listener() {
                        self.accept_all();
                    } else if ev.key >= self.key_pending_base() {
                        self.service_pending(ev.key - self.key_pending_base());
                    } else {
                        if !self.conns[ev.key].connected && ev.writable {
                            self.finish_connect(ev.key);
                        }
                        if ev.readable {
                            self.service_read(ev.key);
                        }
                    }
                }
                if self.draining.is_none() {
                    self.drive(&mut node);
                    self.fire_timers();
                    self.queue_owed_acks();
                }
                self.flush_all();
                if let Some(dl) = self.draining {
                    if self.all_flushed() || Instant::now() >= dl {
                        break;
                    }
                }
            }
            self.publish();
            if self.metrics {
                eprintln!("{}", self.counters.render(self.me));
            }
        }

        /// Hand the node its due deliveries, then its expired timer, and
        /// act on what follows: quota done, or the run is closing.
        fn drive<A, W>(&mut self, node: &mut Node<A, W>)
        where
            A: Allocator<Msg = M>,
            W: Workload,
        {
            let now = Instant::now();
            while self.inbox.front().is_some_and(|&(at, ..)| at <= now) {
                let (_, from, msg) = self.inbox.pop_front().expect("front checked above");
                node.deliver(from, msg, &mut |to, msg| self.queue_data(to, msg));
            }
            if node.deadline().is_some_and(|t| t <= now)
                && node.on_timer(&mut |to, msg| self.queue_data(to, msg))
            {
                match self.ctrl.self_done(self.me) {
                    DoneAct::LastFinisher => self.shut_down_cluster(),
                    DoneAct::ReportDone => self.queue_ctrl(0, TAG_DONE, "Done"),
                    DoneAct::Wait => {}
                }
            }
            if self.closing && self.inbox.is_empty() {
                self.stop();
            }
        }

        /// Broadcast [`TAG_SHUTDOWN`] to every peer and stop.
        fn shut_down_cluster(&mut self) {
            for peer in 0..self.n {
                self.queue_ctrl(peer, TAG_SHUTDOWN, "Shutdown");
            }
            self.stop();
        }

        /// Stop the node: flush what can be flushed, then exit.
        fn stop(&mut self) {
            self.draining.get_or_insert(Instant::now() + DRAIN_LIMIT);
        }

        fn publish(&self) {
            let mut g = lock(&self.slot);
            // `clone_from`, not assignment: reuses the slot's `by_kind`
            // allocation, keeping the once-per-iteration publish free of
            // heap traffic.
            g.net.clone_from(&self.counters);
            g.faults = self.end.faults();
            g.reliability = self.end.reliability();
        }

        /// Now on the endpoint's time axis.
        fn now(&self) -> Time {
            Time::from_nanos(self.epoch.elapsed().as_nanos() as u64)
        }

        /// The earliest pending deadline — the node's timer, the next
        /// held-back delivery, RTOs, connect retries, the drain limit — as
        /// a poll timeout.  `None` blocks until I/O.
        fn next_timeout(&self, node: Option<Instant>) -> Option<Duration> {
            let mut next: Option<Instant> = self.draining;
            let mut fold = |t: Instant| match next {
                Some(cur) if cur <= t => {}
                _ => next = Some(t),
            };
            for c in &self.conns {
                if let Some(t) = c.retry_at {
                    fold(t);
                }
            }
            if self.draining.is_none() {
                if let Some(t) = node {
                    fold(t);
                }
                if let Some(&(at, ..)) = self.inbox.front() {
                    fold(at);
                }
                // Idle sessions keep their timer in flight until it fires
                // (the endpoint's rule) but have no deadline to wake for.
                for (peer, c) in self.conns.iter().enumerate() {
                    if let Some(t) = self.end.deadline(peer).filter(|_| !c.dead) {
                        fold(self.epoch + t.to_std());
                    }
                }
            }
            next.map(|t| t.saturating_duration_since(Instant::now()))
        }

        /// Encode one protocol message into `to`'s write queue (session
        /// framing + piggybacked ack when reliability is on).  The bytes
        /// ride the next flush — possibly sharing a `write(2)` with every
        /// other frame queued to `to` this iteration.
        fn queue_data(&mut self, to: NodeId, msg: M) {
            if to == self.me || self.conns[to].dead {
                return;
            }
            let now = self.now();
            let packet = self.end.send(to, msg, now);
            self.end.arm(to, now);
            let label = encode_packet(&mut self.buf, &packet);
            self.conns[to].wbuf.queue(&self.buf);
            self.counters.frames_out += 1;
            self.counters.by_kind.bump(label, 1);
        }

        /// Queue an empty control frame ([`TAG_DONE`] / [`TAG_SHUTDOWN`]).
        fn queue_ctrl(&mut self, to: NodeId, tag: u8, label: &'static str) {
            if to == self.me || self.conns[to].dead {
                return;
            }
            begin_frame(&mut self.buf);
            end_frame(&mut self.buf, tag);
            self.conns[to].wbuf.queue(&self.buf);
            self.counters.frames_out += 1;
            self.counters.by_kind.bump(label, 1);
        }

        /// Connect retries and retransmit timers.
        fn fire_timers(&mut self) {
            let wall = Instant::now();
            for peer in 0..self.n {
                if self.conns[peer].retry_at.is_some_and(|t| t <= wall) {
                    self.conns[peer].retry_at = None;
                    self.start_connect(peer);
                }
            }
            let now = self.now();
            let Reactor { end, conns, buf, counters, .. } = self;
            for (peer, c) in conns.iter_mut().enumerate() {
                if c.dead || !end.deadline(peer).is_some_and(|t| t <= now) {
                    continue;
                }
                if !c.connected {
                    // The link is still forming (connect retry, handshake
                    // in flight): every frame is parked locally, nothing
                    // can have been lost yet.  Firing the RTO here would
                    // queue a duplicate copy of the whole unacked window
                    // per expiry — pure wbuf growth and bogus retransmit
                    // counts on a perfect link.  Restart the clocks
                    // instead.
                    end.link_up(peer, now);
                    continue;
                }
                let mut fired = false;
                end.on_rto(peer, now, |packet| {
                    encode_packet(buf, &packet);
                    c.wbuf.queue(buf);
                    counters.retransmit_frames += 1;
                    counters.by_kind.bump("RData", 1);
                    fired = true;
                });
                if fired {
                    counters.rto_fires += 1;
                }
            }
        }

        /// Flush owed session acks: at most **one** standalone ack frame
        /// per peer per iteration, and none at all when a data frame
        /// queued this pass already piggybacked it, rather than one ack
        /// per data frame.
        fn queue_owed_acks(&mut self) {
            let Reactor { end, conns, buf, counters, .. } = self;
            for (peer, c) in conns.iter_mut().enumerate() {
                if c.dead {
                    continue;
                }
                if let Some(ack) = end.take_ack(peer) {
                    encode_packet(buf, &ack);
                    c.wbuf.queue(buf);
                    counters.ack_frames += 1;
                    counters.by_kind.bump("RAck", 1);
                }
            }
        }

        /// Start (or retry) the nonblocking connect to `peer`.
        fn start_connect(&mut self, peer: NodeId) {
            debug_assert!(peer > self.me);
            if self.conns[peer].dead {
                return;
            }
            if self.conns[peer].wbuf.is_empty() {
                // First attempt: the handshake leads the write queue, so
                // it hits the wire before any frame queued while the
                // connection was still forming.
                let hs = (self.me as u32).to_le_bytes();
                self.conns[peer].wbuf.queue(&hs);
            }
            match sys::connect_nonblocking(self.addrs[peer]) {
                Ok(stream) => {
                    if self.poller.add(&stream, Event::writable(peer)).is_err() {
                        self.fatal_link(peer);
                        return;
                    }
                    let c = &mut self.conns[peer];
                    c.stream = Some(stream);
                    c.connected = false;
                    c.want_write = true;
                }
                Err(e) => self.retry_or_die(peer, e),
            }
        }

        /// A connect-in-flight socket became writable: resolve it.
        fn finish_connect(&mut self, peer: NodeId) {
            let verdict = match self.conns[peer].stream.as_ref() {
                None => return,
                Some(s) => s.take_error(),
            };
            match verdict {
                Ok(None) => {
                    let c = &mut self.conns[peer];
                    let s = c.stream.as_ref().expect("stream checked above");
                    let _ = s.set_nodelay(true);
                    let want = c.parked() > 0;
                    let ev = Event { key: peer, readable: true, writable: want };
                    if self.poller.modify(s, ev).is_err() {
                        self.fatal_link(peer);
                        return;
                    }
                    c.connected = true;
                    c.want_write = want;
                    let now = self.now();
                    self.end.link_up(peer, now);
                }
                Ok(Some(e)) | Err(e) => {
                    if let Some(s) = self.conns[peer].stream.take() {
                        let _ = self.poller.delete(&s);
                    }
                    self.retry_or_die(peer, e);
                }
            }
        }

        fn retry_or_die(&mut self, peer: NodeId, e: io::Error) {
            if Instant::now() < self.connect_deadline {
                self.conns[peer].retry_at = Some(Instant::now() + RETRY_DELAY);
            } else {
                eprintln!(
                    "mra-net: reactor[{}]: connecting to node {peer} ({}) timed out: {e}",
                    self.me, self.addrs[peer]
                );
                self.fatal_link(peer);
            }
        }

        /// Tear down one link.  This also closes the run — peers only
        /// close links on shutdown (or breakage).
        fn fatal_link(&mut self, peer: NodeId) {
            if let Some(s) = self.conns[peer].stream.take() {
                let _ = self.poller.delete(&s);
            }
            let c = &mut self.conns[peer];
            c.dead = true;
            c.connected = false;
            c.wbuf.clear();
            c.retry_at = None;
            self.closing = true;
        }

        /// Accept every connection the backlog holds.
        fn accept_all(&mut self) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let idx = match self.pending.iter().position(Option::is_none) {
                            Some(i) => i,
                            None => {
                                self.pending.push(None);
                                self.pending.len() - 1
                            }
                        };
                        let key = self.key_pending_base() + idx;
                        if self.poller.add(&stream, Event::readable(key)).is_ok() {
                            self.pending[idx] =
                                Some(Pending { stream, got: Vec::with_capacity(4) });
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        eprintln!("mra-net: reactor[{}] accept failed: {e}", self.me);
                        break;
                    }
                }
            }
        }

        /// Read handshake bytes off an accepted socket; promote it into
        /// its peer slot once the 4-byte node id is complete.
        fn service_pending(&mut self, idx: usize) {
            let mut complete = false;
            let mut broken = false;
            {
                let Some(p) = self.pending.get_mut(idx).and_then(Option::as_mut) else {
                    return;
                };
                let mut b = [0u8; 4];
                loop {
                    let need = 4 - p.got.len();
                    if need == 0 {
                        complete = true;
                        break;
                    }
                    match p.stream.read(&mut b[..need]) {
                        Ok(0) => {
                            broken = true;
                            break;
                        }
                        Ok(k) => p.got.extend_from_slice(&b[..k]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            broken = true;
                            break;
                        }
                    }
                }
            }
            if broken {
                if let Some(p) = self.pending[idx].take() {
                    let _ = self.poller.delete(&p.stream);
                }
                return;
            }
            if !complete {
                return;
            }
            let p = self.pending[idx].take().expect("pending checked above");
            let id = u32::from_le_bytes(p.got[..4].try_into().expect("4 bytes")) as usize;
            // Bidirectional topology: only smaller ids connect to us, and
            // each unordered pair has exactly one connection.
            if id >= self.me || self.conns[id].stream.is_some() || self.conns[id].dead {
                eprintln!(
                    "mra-net: reactor[{}]: dropping connection with bad handshake id {id}",
                    self.me
                );
                let _ = self.poller.delete(&p.stream);
                return;
            }
            let _ = p.stream.set_nodelay(true);
            let _ = self.poller.delete(&p.stream);
            let want = self.conns[id].parked() > 0;
            let ev = Event { key: id, readable: true, writable: want };
            if self.poller.add(&p.stream, ev).is_err() {
                return;
            }
            let c = &mut self.conns[id];
            c.stream = Some(p.stream);
            c.connected = true;
            c.want_write = want;
            let now = self.now();
            self.end.link_up(id, now);
        }

        /// Service a readable connection: reads into the incremental
        /// decoder, handling every complete frame as it appears.
        ///
        /// Bounded to [`MAX_READS_PER_PASS`] reads per call: a peer that
        /// floods faster than we decode would otherwise keep this loop
        /// spinning for as long as the kernel has bytes, deferring the
        /// owed-ack drain, RTO timers and flushes for *every other peer*
        /// past their RTOs — the reverse path then sees spurious go-back-N
        /// retransmits with zero actual loss.  The poller is
        /// level-triggered and persistent, so leftover bytes re-report
        /// readability on the next `wait` immediately; bounding the pass
        /// costs nothing but interleaves the fairness-critical work.
        fn service_read(&mut self, peer: NodeId) {
            let mut reads = 0usize;
            loop {
                if reads >= MAX_READS_PER_PASS {
                    return;
                }
                reads += 1;
                let res = {
                    let c = &mut self.conns[peer];
                    let Some(s) = c.stream.as_mut() else {
                        return;
                    };
                    c.rbuf.read_from(s)
                };
                match res {
                    Ok(0) => {
                        self.fatal_link(peer);
                        return;
                    }
                    Ok(_) => {
                        self.counters.read_calls += 1;
                        loop {
                            match self.conns[peer].rbuf.next_frame_into(&mut self.scratch) {
                                Ok(Some(tag)) => {
                                    if !self.handle_frame(peer, tag) {
                                        self.fatal_link(peer);
                                        return;
                                    }
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    eprintln!(
                                        "mra-net: reactor[{}]: dropping link from node {peer}: {e}",
                                        self.me
                                    );
                                    self.fatal_link(peer);
                                    return;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.fatal_link(peer);
                        return;
                    }
                }
            }
        }

        /// Process one decoded frame (body in `self.scratch`, tag at
        /// `[0]`).  Returns false when the link must die — unknown tags,
        /// undecodable payloads, and session framing that does not match
        /// this node's (one end reliable, the other not).
        fn handle_frame(&mut self, peer: NodeId, tag: u8) -> bool {
            // The wire is tallied before the fault filter — these numbers
            // describe what arrived, not what was delivered.
            self.counters.frames_in += 1;
            self.counters.bytes_in += self.scratch.len() as u64 + 4;
            match tag {
                TAG_DONE => {
                    if self.draining.is_none() && self.ctrl.peer_done() {
                        self.shut_down_cluster();
                    }
                }
                TAG_SHUTDOWN => self.closing = true,
                _ => {
                    // Decode, then filter: a frame consumes its link's
                    // fault verdict inside the endpoint, whatever its tag.
                    let Ok(packet) = decode_packet(tag, &self.scratch[1..]) else {
                        return false;
                    };
                    // Session framing must match on both ends.
                    if matches!(packet, Packet::Plain(_)) == self.end.reliable() {
                        return false;
                    }
                    if let Recv::Deliver(msg) = self.end.receive(peer, packet) {
                        self.inbox.push_back((Instant::now() + self.extra, peer, msg));
                    }
                }
            }
            true
        }

        /// Write every connection's queued bytes — one `write(2)` per
        /// connection when the socket buffer takes it all, which is the
        /// point: every frame queued to the same peer this iteration
        /// shares that call.  A partial write parks the tail and arms
        /// write-readiness to resume.
        fn flush_all(&mut self) {
            for peer in 0..self.n {
                if peer != self.me {
                    self.flush(peer);
                }
            }
        }

        fn flush(&mut self, peer: NodeId) {
            let c = &mut self.conns[peer];
            if c.dead || !c.connected {
                return;
            }
            let Some(s) = c.stream.as_mut() else {
                return;
            };
            let mut broken = false;
            while !c.wbuf.is_empty() {
                match s.write(c.wbuf.unwritten()) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(k) => {
                        self.counters.write_calls += 1;
                        self.counters.bytes_out += k as u64;
                        // Partial writes advance a cursor; the consumed
                        // prefix compacts once it passes the threshold, so
                        // a slow peer costs the live backlog, not every
                        // byte ever parked.
                        c.wbuf.consume(k);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if broken {
                // Peer past shutdown: the write error is ignored; the
                // read side sees the EOF and ends the run if it matters.
                c.wbuf.clear();
                return;
            }
            let want = !c.wbuf.is_empty();
            if want != c.want_write {
                let ev = Event { key: peer, readable: true, writable: want };
                let s = c.stream.as_ref().expect("stream checked above");
                if self.poller.modify(s, ev).is_ok() {
                    c.want_write = want;
                }
            }
        }

        fn all_flushed(&self) -> bool {
            self.conns
                .iter()
                .all(|c| c.parked() == 0 || !c.connected || c.stream.is_none())
        }
    }

    /// Run `node` over its TCP mesh on the calling thread until the
    /// cluster-wide shutdown (or a broken link) stops it.  Connecting,
    /// accepting and handshaking proceed on the reactor, and frames sent
    /// before the mesh completes park in the per-peer write queues.  Every
    /// node's `listener` must be bound before any node starts connecting.
    pub(crate) fn run_reactor<A, W>(
        node: Node<A, W>,
        listener: TcpListener,
        dir: &PeerDirectory,
        ctrl: PortCtrl,
        cfg: MeshConfig,
    ) -> io::Result<()>
    where
        A: Allocator,
        A::Msg: WireCodec,
        W: Workload,
    {
        let me = node.me();
        let n = dir.len();
        assert!(me < n, "node id {me} outside directory 0..{n}");
        let poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        // std listens with backlog 128; every smaller peer SYNs at once
        // in a big mesh, and an overflow costs whole TCP-retry seconds.
        let _ = sys::listen_backlog(&listener, 4096);
        poller.add(&listener, Event::readable(n))?;

        let mut end = LinkEnd::new(me, n);
        if let Some(plan) = &cfg.faults {
            end.install_faults(plan);
        }
        if let Some(rel) = cfg.reliability {
            end.enable_reliability(rel);
        }
        let conns = (0..n)
            .map(|peer| PeerConn {
                stream: None,
                connected: false,
                wbuf: WriteBuf::new(),
                rbuf: FrameBuf::new(),
                want_write: false,
                retry_at: None,
                dead: peer == me,
            })
            .collect();
        let reactor = Reactor {
            me,
            n,
            addrs: (0..n).map(|i| dir.addr(i)).collect(),
            poller,
            listener,
            ctrl,
            conns,
            pending: Vec::new(),
            end,
            epoch: Instant::now(),
            extra: cfg.extra_latency.to_std(),
            inbox: VecDeque::new(),
            closing: false,
            connect_deadline: Instant::now() + cfg.connect_timeout,
            counters: NetCounters::default(),
            slot: cfg.counters_slot.unwrap_or_default(),
            metrics: cfg.metrics,
            buf: Vec::with_capacity(256),
            scratch: Vec::with_capacity(256),
            draining: None,
        };
        reactor.run(node);
        Ok(())
    }
}

#[cfg(not(unix))]
pub(crate) fn run_reactor<A, W>(
    _node: crate::node::Node<A, W>,
    _listener: std::net::TcpListener,
    _dir: &crate::transport::PeerDirectory,
    _ctrl: crate::transport::PortCtrl,
    _cfg: crate::transport::MeshConfig,
) -> std::io::Result<()>
where
    A: mra_protocol::Allocator,
{
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the reactor transport needs epoll/kqueue; TCP clusters are unix-only",
    ))
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::node::{lock, Node, NodeCfg, RunShared};
    use crate::transport::{MeshConfig, PeerDirectory, PortCtrl, PortStats};
    use mra_obs::NetCounters;
    use mra_protocol::faults::FaultPlan;
    use mra_protocol::link::{LinkEnd, Packet, Recv};
    use mra_protocol::reliable::Reliability;
    use mra_protocol::{Allocator, Ctx, DecodeError, ProcState, WireCodec, WireMsg, WireReader};
    use mra_sim::FixedWorkload;
    use mra_types::{NodeId, ResourceSet, Time};
    use std::collections::VecDeque;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex};
    use std::thread::JoinHandle;
    use std::time::{Duration, Instant};

    /// A numbered test message.
    #[derive(Clone, Debug)]
    struct Num(u64);

    impl WireMsg for Num {
        fn kind(&self) -> &'static str {
            "Num"
        }
    }

    impl WireCodec for Num {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
            u64::decode(r).map(Num)
        }
    }

    type Hook = Box<dyn FnMut(&mut Ctx<Num>, NodeId, u64) -> bool + Send>;

    /// A scripted protocol: `on_init` sends `init`, each request sends the
    /// next of `bursts`, and each delivery goes to `hook`.  Requests are
    /// granted once the node is `ready` — from the start, or since `hook`
    /// returned true.
    struct Script {
        init: Vec<(NodeId, u64)>,
        bursts: VecDeque<Vec<(NodeId, u64)>>,
        hook: Hook,
        ready: bool,
        state: ProcState,
    }

    impl Script {
        fn new(
            init: Vec<(NodeId, u64)>,
            ready: bool,
            hook: impl FnMut(&mut Ctx<Num>, NodeId, u64) -> bool + Send + 'static,
        ) -> Self {
            Script {
                init,
                bursts: VecDeque::new(),
                hook: Box::new(hook),
                ready,
                state: ProcState::Idle,
            }
        }

        fn try_grant(&mut self, ctx: &mut Ctx<Num>) {
            if self.ready && self.state == ProcState::WaitCS {
                self.state = ProcState::InCS;
                ctx.grant();
            }
        }
    }

    impl Allocator for Script {
        type Msg = Num;
        fn on_init(&mut self, ctx: &mut Ctx<Num>) {
            for &(to, k) in &self.init {
                ctx.send(to, Num(k));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<Num>, from: NodeId, msg: Num) {
            self.ready |= (self.hook)(ctx, from, msg.0);
            self.try_grant(ctx);
        }
        fn request(&mut self, ctx: &mut Ctx<Num>, _resources: ResourceSet) {
            for (to, k) in self.bursts.pop_front().unwrap_or_default() {
                ctx.send(to, Num(k));
            }
            self.state = ProcState::WaitCS;
            self.try_grant(ctx);
        }
        fn release(&mut self, _ctx: &mut Ctx<Num>) {
            self.state = ProcState::Idle;
        }
        fn state(&self) -> ProcState {
            self.state
        }
        fn name(&self) -> &'static str {
            "script"
        }
    }

    type Log = Arc<Mutex<Vec<(NodeId, u64)>>>;

    /// A script that sends `init`, logs every delivery and is ready once
    /// `want` arrived.
    fn recorder(init: Vec<(NodeId, u64)>, want: usize, log: &Log) -> Script {
        let log = Arc::clone(log);
        Script::new(init, false, move |_, from, k| {
            let mut l = lock(&log);
            l.push((from, k));
            l.len() >= want
        })
    }

    fn burst(to: NodeId, ks: std::ops::Range<u64>) -> Vec<(NodeId, u64)> {
        ks.map(|k| (to, k)).collect()
    }

    fn counters(slot: &Mutex<PortStats>) -> NetCounters {
        lock(slot).net.clone()
    }

    /// Run `proto` as node `me` on a thread of its own: active for
    /// `rounds` rounds of `think` and an empty critical section, passive
    /// when `rounds` is 0.  Its reactor publishes into `slot`.
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        me: NodeId,
        proto: Script,
        rounds: usize,
        think: Time,
        listener: TcpListener,
        dir: &PeerDirectory,
        remaining: &Arc<AtomicUsize>,
        mesh: MeshConfig,
        slot: &Arc<Mutex<PortStats>>,
    ) -> JoinHandle<()> {
        let dir = dir.clone();
        let ctrl = PortCtrl::Cluster(Arc::clone(remaining));
        let mesh = MeshConfig { counters_slot: Some(Arc::clone(slot)), ..mesh };
        std::thread::spawn(move || {
            let n = dir.len();
            let workload = FixedWorkload { think, cs: Time::ZERO, m: 1, size: 1 };
            let cfg = NodeCfg { rounds, seed: 1, is_active: rounds > 0 };
            // One monitor per node: the scripts' critical sections are
            // independent of each other.
            let node = Node::new(me, n, proto, workload, Arc::new(RunShared::new(n, 1)), cfg);
            run_reactor(node, listener, &dir, ctrl, mesh).unwrap();
        })
    }

    /// Join every node thread, failing instead of hanging past `limit`.
    fn join_all(handles: Vec<JoinHandle<()>>, limit: Duration) {
        let deadline = Instant::now() + limit;
        while !handles.iter().all(JoinHandle::is_finished) {
            assert!(Instant::now() < deadline, "nodes still running after {limit:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        for h in handles {
            h.join().expect("node thread panicked");
        }
    }

    fn pair_dir() -> (TcpListener, TcpListener, PeerDirectory) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let dir = PeerDirectory::new(vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()]);
        (l0, l1, dir)
    }

    const THINK: Time = Time::from_millis(20);

    #[test]
    fn two_node_reactor_mesh_moves_messages() {
        let (l0, l1, dir) = pair_dir();
        let remaining = Arc::new(AtomicUsize::new(2));
        let (got0, got1) = (Log::default(), Log::default());
        let (s0, s1) = (Arc::default(), Arc::default());
        let p0 = recorder(vec![(1, 0xDEAD_BEEF)], 1, &got0);
        let p1 = recorder(vec![(0, 7)], 1, &got1);
        let t0 = spawn(0, p0, 1, THINK, l0, &dir, &remaining, MeshConfig::default(), &s0);
        let t1 = spawn(1, p1, 1, THINK, l1, &dir, &remaining, MeshConfig::default(), &s1);
        join_all(vec![t0, t1], Duration::from_secs(20));
        assert_eq!(*lock(&got0), [(1, 7)]);
        assert_eq!(*lock(&got1), [(0, 0xDEAD_BEEF)]);
    }

    #[test]
    fn reactor_drop_shim_loses_exactly_the_planned_frames() {
        // The deterministic per-link filter yields the same verdicts as
        // on the simulated substrates.
        let plan = FaultPlan::new(0xC0FFEE).drop_rate(0.3).dup_rate(0.1);
        const FRAMES: u64 = 200;
        let mut end: LinkEnd<u64> = LinkEnd::new(1, 2);
        end.install_faults(&plan);
        let expected = (0..FRAMES)
            .filter(|&k| !matches!(end.receive(0, Packet::Plain(k)), Recv::Drop(_)))
            .count() as u64;
        assert!(expected > 0 && expected < FRAMES, "degenerate plan");

        let (l0, l1, dir) = pair_dir();
        let shim = MeshConfig { faults: Some(plan), ..MeshConfig::default() };
        // Node 0 is the only active node: its one round ends the run, and
        // its reactor flushes the parked frames before the shutdown.
        let remaining = Arc::new(AtomicUsize::new(1));
        let got = Log::default();
        let (s0, s1) = (Arc::default(), Arc::default());
        let p0 = Script::new(burst(1, 0..FRAMES), true, |_, _, _| false);
        let t0 = spawn(0, p0, 1, THINK, l0, &dir, &remaining, shim.clone(), &s0);
        let p1 = recorder(Vec::new(), usize::MAX, &got);
        let t1 = spawn(1, p1, 0, THINK, l1, &dir, &remaining, shim, &s1);
        join_all(vec![t0, t1], Duration::from_secs(20));
        let got = lock(&got);
        assert!(got.iter().all(|&(from, _)| from == 0));
        assert_eq!(got.len() as u64, expected, "shim lost the wrong frames");
        // FIFO survives the shim: payloads arrive in send order.
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn reliable_reactor_recovers_drops_and_batches_acks() {
        // The session contract — exactly-once, in-order delivery under a
        // lossy+duplicating shim — must survive coalesced acking, and the
        // receiver must *not* send one standalone ack per data frame.
        const FRAMES: u64 = 200;
        let plan = FaultPlan::new(0xC0FFEE).drop_rate(0.3).dup_rate(0.1);
        let shim = MeshConfig {
            faults: Some(plan),
            reliability: Some(Reliability::with_rto(Time::from_millis(5))),
            ..MeshConfig::default()
        };
        let (l0, l1, dir) = pair_dir();
        let remaining = Arc::new(AtomicUsize::new(2));
        let (got0, got1) = (Log::default(), Log::default());
        let (s0, s1) = (Arc::default(), Arc::<Mutex<PortStats>>::default());
        // The reactor retransmits on its own timers; node 0 just waits for
        // the peer's reliable confirmation.
        let p0 = recorder(burst(1, 0..FRAMES), 1, &got0);
        let at_full = Arc::new(Mutex::new(None));
        let p1 = {
            let (got1, s1, at_full) = (Arc::clone(&got1), Arc::clone(&s1), Arc::clone(&at_full));
            Script::new(Vec::new(), false, move |ctx, from, k| {
                let mut got = lock(&got1);
                got.push((from, k));
                if got.len() as u64 == FRAMES {
                    *lock(&at_full) = Some(counters(&s1));
                    ctx.send(0, Num(u64::MAX));
                }
                got.len() as u64 >= FRAMES
            })
        };
        let t0 = spawn(0, p0, 1, THINK, l0, &dir, &remaining, shim.clone(), &s0);
        let t1 = spawn(1, p1, 1, THINK, l1, &dir, &remaining, shim, &s1);
        join_all(vec![t0, t1], Duration::from_secs(20));
        assert_eq!(*lock(&got0), [(1, u64::MAX)]);
        // Exactly once, in order — the session contract survives the
        // batched acking.
        assert_eq!(*lock(&got1), burst(0, 0..FRAMES));
        let c1 = lock(&at_full).take().expect("all frames arrived");
        // Ack batching: the receiver decoded ≥ FRAMES data frames (plus
        // duplicates and retransmissions) yet sent far fewer standalone
        // acks — a burst of arrivals owes one cumulative ack, and the
        // confirmation frame piggybacks instead of acking separately.
        assert!(
            c1.ack_frames < FRAMES / 2,
            "acks not batched: {} standalone acks for {FRAMES} frames",
            c1.ack_frames
        );
        assert!(c1.ack_frames > 0, "one-way traffic must owe standalone acks");
    }

    #[test]
    fn reactor_coalesces_frames_into_fewer_writes() {
        // A burst of sends — queued while the mesh is still forming or
        // between reactor iterations — must share write syscalls:
        // strictly fewer `write(2)`s than frames.
        const BURST: u64 = 100;
        let (l0, l1, dir) = pair_dir();
        let remaining = Arc::new(AtomicUsize::new(2));
        let got1 = Log::default();
        let (s0, s1) = (Arc::<Mutex<PortStats>>::default(), Arc::default());
        let at_confirm = Arc::new(Mutex::new(None));
        let p0 = {
            let (s0, at_confirm) = (Arc::clone(&s0), Arc::clone(&at_confirm));
            Script::new(burst(1, 0..BURST), false, move |_, from, k| {
                assert_eq!((from, k), (1, 1), "expected confirmation");
                *lock(&at_confirm) = Some(counters(&s0));
                true
            })
        };
        let p1 = {
            let got1 = Arc::clone(&got1);
            Script::new(Vec::new(), false, move |ctx, from, k| {
                let mut got = lock(&got1);
                got.push((from, k));
                if got.len() as u64 == BURST {
                    ctx.send(0, Num(1));
                }
                got.len() as u64 >= BURST
            })
        };
        let t0 = spawn(0, p0, 1, THINK, l0, &dir, &remaining, MeshConfig::default(), &s0);
        let t1 = spawn(1, p1, 1, THINK, l1, &dir, &remaining, MeshConfig::default(), &s1);
        join_all(vec![t0, t1], Duration::from_secs(20));
        assert_eq!(*lock(&got1), burst(0, 0..BURST));
        let c0 = lock(&at_confirm).take().expect("confirmation arrived");
        assert_eq!(c0.frames_out, BURST);
        assert!(
            c0.write_calls < BURST,
            "no coalescing: {} writes for {BURST} frames",
            c0.write_calls
        );
    }

    /// Re-bind a just-released address (the test advertises it before the
    /// listener exists to force connect retries on the other side).
    fn bind_retry(addr: std::net::SocketAddr) -> TcpListener {
        for _ in 0..50 {
            match TcpListener::bind(addr) {
                Ok(l) => return l,
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        panic!("could not re-bind {addr}");
    }

    #[test]
    fn reactor_rto_holds_while_link_forms() {
        // Regression: a frame queued while the peer's listener is not
        // even up must NOT trip the RTO.  fire_timers used to run
        // `on_rto` for unconnected peers, queueing a duplicate of the
        // whole unacked window per expiry — nonzero retransmit counters
        // on a link that never lost a byte (and, symmetrically, frames
        // session-stamped while parked used to fire the instant the
        // link came up).  RTO 250 ms << the 2 s the link spends forming,
        // but >> the loopback ack round-trip once it exists.
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a1 = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        // The listener for node 1 is now dropped: node 0's connects get
        // refused and retried while its frame sits parked.
        let dir = PeerDirectory::new(vec![l0.local_addr().unwrap(), a1]);
        let shim = MeshConfig {
            reliability: Some(Reliability::with_rto(Time::from_millis(250))),
            ..MeshConfig::default()
        };
        let remaining = Arc::new(AtomicUsize::new(2));
        let (got0, got1) = (Log::default(), Log::default());
        let (s0, s1) = (Arc::default(), Arc::default());
        let p0 = recorder(vec![(1, 42)], 1, &got0);
        let t0 = spawn(0, p0, 1, THINK, l0, &dir, &remaining, shim.clone(), &s0);
        // Long enough for several RTO expiries (250, +500, +1000 ms)
        // while the connection cannot form.
        std::thread::sleep(Duration::from_secs(2));
        let l1 = bind_retry(a1);
        let p1 = {
            let got1 = Arc::clone(&got1);
            Script::new(Vec::new(), false, move |ctx, from, k| {
                lock(&got1).push((from, k));
                ctx.send(0, Num(7));
                true
            })
        };
        let t1 = spawn(1, p1, 1, THINK, l1, &dir, &remaining, shim, &s1);
        join_all(vec![t0, t1], Duration::from_secs(20));
        assert_eq!(*lock(&got1), [(0, 42)], "expected the parked frame");
        assert_eq!(*lock(&got0), [(1, 7)], "expected confirmation");
        let c0 = counters(&s0);
        assert_eq!(
            (c0.rto_fires, c0.retransmit_frames),
            (0, 0),
            "perfect link, peer merely slow to start: nothing may retransmit"
        );
    }

    #[test]
    fn reactor_asymmetric_flood_perfect_link_no_retransmits() {
        // Sustained one-way traffic with reliability on: every ack back
        // is a standalone TAG_RACK (no reverse data to piggyback on).
        // On a perfect link nothing may retransmit — the bounded
        // per-pass read drain guarantees the receiver's owed-ack queue
        // runs every reactor iteration even while inbound is saturated.
        const FRAMES: u64 = 20_000;
        const BURST: u64 = 500;
        let shim = MeshConfig {
            reliability: Some(Reliability::with_rto(Time::from_millis(200))),
            ..MeshConfig::default()
        };
        let (l0, l1, dir) = pair_dir();
        let remaining = Arc::new(AtomicUsize::new(2));
        let (got0, got1) = (Log::default(), Log::default());
        let (s0, s1) = (Arc::default(), Arc::<Mutex<PortStats>>::default());
        // Open-loop pacing: one burst per 1 ms round keeps the in-flight
        // window modest, so a retransmit could only come from deferred
        // acks, never from frames aging in our own parked backlog.
        let mut p0 = recorder(Vec::new(), 1, &got0);
        p0.ready = true;
        p0.bursts = (0..FRAMES / BURST).map(|b| burst(1, b * BURST..(b + 1) * BURST)).collect();
        let at_full = Arc::new(Mutex::new(None));
        let p1 = {
            let (got1, s1, at_full) = (Arc::clone(&got1), Arc::clone(&s1), Arc::clone(&at_full));
            Script::new(Vec::new(), false, move |ctx, from, k| {
                let mut got = lock(&got1);
                got.push((from, k));
                if got.len() as u64 == FRAMES {
                    *lock(&at_full) = Some(counters(&s1));
                    ctx.send(0, Num(u64::MAX));
                }
                got.len() as u64 >= FRAMES
            })
        };
        let rounds = (FRAMES / BURST) as usize;
        let t0 = spawn(0, p0, rounds, Time::from_millis(1), l0, &dir, &remaining, shim.clone(), &s0);
        let t1 = spawn(1, p1, 1, THINK, l1, &dir, &remaining, shim, &s1);
        join_all(vec![t0, t1], Duration::from_secs(20));
        assert_eq!(*lock(&got1), burst(0, 0..FRAMES));
        assert_eq!(*lock(&got0), [(1, u64::MAX)], "expected confirmation");
        let c1 = lock(&at_full).take().expect("all frames arrived");
        assert!(c1.ack_frames > 0, "one-way traffic must owe standalone acks");
        let c0 = counters(&s0);
        assert_eq!(
            c0.retransmit_frames, 0,
            "perfect link but {} RTO fires — acks deferred past the timer",
            c0.rto_fires
        );
    }

    #[test]
    fn reactor_last_finisher_shutdown_reaches_peer() {
        let (l0, l1, dir) = pair_dir();
        let remaining = Arc::new(AtomicUsize::new(1));
        let got1 = Log::default();
        let (s0, s1) = (Arc::default(), Arc::default());
        let p0 = Script::new(Vec::new(), true, |_, _, _| false);
        let t0 = spawn(0, p0, 1, THINK, l0, &dir, &remaining, MeshConfig::default(), &s0);
        let p1 = recorder(Vec::new(), usize::MAX, &got1);
        let t1 = spawn(1, p1, 0, THINK, l1, &dir, &remaining, MeshConfig::default(), &s1);
        join_all(vec![t0, t1], Duration::from_secs(20));
        // Node 0 finished last and broadcast the shutdown ...
        assert_eq!(counters(&s0).by_kind.get("Shutdown"), 1);
        // ... which is the one frame node 1 saw before it stopped.
        assert_eq!(counters(&s1).frames_in, 1);
        assert!(lock(&got1).is_empty());
    }
}

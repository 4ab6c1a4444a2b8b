//! The real-network backend: blocking `std::net` sockets, UDP for the
//! best-effort class and TCP for the reliable class.
//!
//! Best-effort datagrams reuse the exact wire codec from
//! [`rog_net::wire`] — `ROG\x02` marker, seq + class + attempt header,
//! CRC32, `\x03GOR` trailer — so a corrupted datagram is detected and
//! dropped, duplicates are absorbed by a per-peer bounded
//! [`rog_net::SeqWindow`], and sequence gaps feed the same
//! [`LossEwma`] estimator the sim channel uses for ATP's goodput
//! planning. Sequence numbers are allocated per peer and only on the
//! best-effort lane (the reliable lane's TCP stream supplies its own
//! ordering), so gap detection sees exactly the datagrams addressed to
//! this endpoint and nothing else.
//!
//! Reliable messages ride TCP as `u32` length-prefixed wire frames:
//! TCP's ack/retransmit machinery provides the delivery guarantee, and
//! the frame CRC stays as an end-to-end integrity check.
//!
//! The vendored dependency set has no async runtime; sockets are
//! driven by short blocking polls ([`SocketTransport::poll`] toggles
//! non-blocking mode for its read bursts).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs, UdpSocket};
use std::time::{Duration, Instant};

use rog_net::stats::LossEwma;
use rog_net::wire::{decode_frame, encode_frame, FrameClass, FrameHeader};
use rog_net::SeqWindow;

use crate::{Delivery, LinkQuality, PeerId, Transport, TransportError, MAX_DATAGRAM_PAYLOAD};

/// Largest length-prefixed TCP frame accepted (a paper-scale final
/// model is tens of MB of f32s; 256 MB bounds a hostile prefix).
const MAX_TCP_FRAME: usize = 256 << 20;

/// How many datagrams past a sequence hole may arrive before the hole
/// is written off as a permanent loss. Bounds per-peer dedup memory
/// (see [`SeqWindow::bounded`]) while tolerating any realistic
/// reordering depth on a datagram lane.
const SEQ_WINDOW_SPAN: u64 = 4096;

/// Byte-accounting snapshot in the sim channel's categories, so a live
/// run can fill the same `ByteAccount` the sim engines report.
///
/// UDP tells us what arrived, not what vanished in flight, so `lost`
/// is an estimate: sequence-gap count × the mean accepted datagram
/// size on that lane. `corrupt` counts CRC-dropped bytes actually
/// received; `wasted` counts deduplicated duplicates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SocketByteCounters {
    /// Payload bytes accepted and delivered upward.
    pub useful: f64,
    /// Payload bytes of duplicated datagrams absorbed by dedup.
    pub wasted: f64,
    /// Estimated bytes of datagrams that never arrived (gap count ×
    /// mean accepted size).
    pub lost: f64,
    /// Bytes of datagrams dropped by the CRC check.
    pub corrupt: f64,
}

#[derive(Debug)]
struct Peer {
    udp: Option<SocketAddr>,
    tcp: Option<TcpStream>,
    /// Buffered partial TCP frame.
    rbuf: Vec<u8>,
    /// Next outbound best-effort sequence number toward this peer.
    /// Per-peer and per-lane: reliable TCP frames never consume one,
    /// so the receiver's gap detection sees a dense sequence.
    next_seq_out: u32,
    window: SeqWindow,
    highest_seq: Option<u64>,
    loss: LossEwma,
    /// Accepted best-effort payload bytes. Kept separate from
    /// `tcp_bytes_in` so the mean-datagram-size loss estimate and the
    /// best-effort goodput never mix in multi-MB reliable frames.
    udp_bytes_in: u64,
    /// Payload bytes delivered over the reliable TCP lane.
    tcp_bytes_in: u64,
    datagrams_in: u64,
    gap_datagrams: u64,
    dup_bytes: u64,
    opened: Instant,
}

impl Peer {
    fn new() -> Self {
        Self {
            udp: None,
            tcp: None,
            rbuf: Vec::new(),
            next_seq_out: 0,
            window: SeqWindow::bounded(SEQ_WINDOW_SPAN),
            highest_seq: None,
            loss: LossEwma::new(LossEwma::DEFAULT_ALPHA),
            udp_bytes_in: 0,
            tcp_bytes_in: 0,
            datagrams_in: 0,
            gap_datagrams: 0,
            dup_bytes: 0,
            opened: Instant::now(),
        }
    }
}

/// [`Transport`] over real UDP/TCP sockets.
#[derive(Debug)]
pub struct SocketTransport {
    udp: UdpSocket,
    peers: BTreeMap<PeerId, Peer>,
    by_addr: HashMap<SocketAddr, PeerId>,
    inbox: VecDeque<Delivery>,
    crc_drop_bytes: u64,
    /// Recent wire-hygiene drops `(peer, "crc" | "dup" | "proto")` for
    /// the caller's journal; bounded, drained via
    /// [`SocketTransport::take_wire_drops`].
    drop_log: Vec<(PeerId, &'static str)>,
    scratch: Vec<u8>,
}

/// Upper bound on buffered [`SocketTransport::take_wire_drops`]
/// entries between drains (a flooded lane must not grow memory).
const MAX_DROP_LOG: usize = 4096;

impl SocketTransport {
    /// Binds the best-effort UDP socket (`"127.0.0.1:0"` for an
    /// ephemeral localhost port).
    pub fn bind<A: ToSocketAddrs>(udp_addr: A) -> std::io::Result<Self> {
        let udp = UdpSocket::bind(udp_addr)?;
        Ok(Self {
            udp,
            peers: BTreeMap::new(),
            by_addr: HashMap::new(),
            inbox: VecDeque::new(),
            crc_drop_bytes: 0,
            drop_log: Vec::new(),
            scratch: vec![0u8; 65_536],
        })
    }

    /// The local UDP address (communicated to peers in the handshake).
    pub fn local_udp_addr(&self) -> std::io::Result<SocketAddr> {
        self.udp.local_addr()
    }

    /// Registers `peer` with its lanes. Either lane may be absent and
    /// filled in by a later call. The TCP stream gets `TCP_NODELAY` —
    /// gate probes are latency-critical.
    pub fn register_peer(
        &mut self,
        peer: PeerId,
        udp: Option<SocketAddr>,
        tcp: Option<TcpStream>,
    ) -> Result<(), TransportError> {
        if let Some(ref t) = tcp {
            t.set_nodelay(true)?;
        }
        let entry = self.peers.entry(peer).or_insert_with(Peer::new);
        if let Some(addr) = udp {
            if let Some(old) = entry.udp.take() {
                self.by_addr.remove(&old);
            }
            entry.udp = Some(addr);
            self.by_addr.insert(addr, peer);
        }
        if tcp.is_some() {
            entry.tcp = tcp;
        }
        Ok(())
    }

    /// True while the peer's reliable lane is open.
    #[cfg(test)]
    pub fn tcp_connected(&self, peer: PeerId) -> bool {
        self.peers.get(&peer).is_some_and(|p| p.tcp.is_some())
    }

    /// Byte accounting across all peers (see [`SocketByteCounters`]).
    pub fn byte_counters(&self) -> SocketByteCounters {
        let mut c = SocketByteCounters {
            corrupt: self.crc_drop_bytes as f64,
            ..SocketByteCounters::default()
        };
        for p in self.peers.values() {
            c.useful += (p.udp_bytes_in + p.tcp_bytes_in) as f64;
            c.wasted += p.dup_bytes as f64;
            // The mean datagram size is a best-effort-lane statistic:
            // a multi-MB reliable TCP frame must not inflate it.
            let mean = if p.datagrams_in > 0 {
                p.udp_bytes_in as f64 / p.datagrams_in as f64
            } else {
                0.0
            };
            c.lost += p.gap_datagrams as f64 * mean;
        }
        c
    }

    /// Drains the buffered wire-hygiene drop log: one `(peer, kind)`
    /// entry per dropped datagram or quarantined stream, `kind` ∈
    /// {`"crc"`, `"dup"`, `"proto"`}.
    pub fn take_wire_drops(&mut self) -> Vec<(PeerId, &'static str)> {
        std::mem::take(&mut self.drop_log)
    }

    fn log_drop(&mut self, peer: PeerId, kind: &'static str) {
        if self.drop_log.len() < MAX_DROP_LOG {
            self.drop_log.push((peer, kind));
        }
    }

    fn handle_datagram(&mut self, n: usize, from: SocketAddr) {
        let Some(&peer_id) = self.by_addr.get(&from) else {
            // Unknown sender: drop. Membership is handshake-driven; a
            // stray datagram cannot inject state.
            return;
        };
        let buf = &self.scratch[..n];
        let frame = match decode_frame(buf) {
            Ok(f) => f,
            Err(_) => {
                self.crc_drop_bytes += n as u64;
                self.log_drop(peer_id, "crc");
                if let Some(p) = self.peers.get_mut(&peer_id) {
                    // A damaged arrival is a bad delivery observation.
                    p.loss.observe(1, 1);
                }
                return;
            }
        };
        let p = self.peers.get_mut(&peer_id).expect("peer exists");
        let seq = u64::from(frame.header.seq);
        if !p.window.accept(seq) {
            p.dup_bytes += frame.payload.len() as u64;
            self.log_drop(peer_id, "dup");
            return;
        }
        // Sequence gaps are datagrams that (so far) never arrived:
        // feed them to the loss EWMA exactly as the sim channel feeds
        // per-flow delivery reports. Late reordered arrivals were
        // already counted lost; that pessimism decays with the EWMA.
        match p.highest_seq {
            Some(h) if seq > h => {
                let gap = (seq - h - 1) as usize;
                p.gap_datagrams += gap as u64;
                p.loss.observe(gap, gap + 1);
                p.highest_seq = Some(seq);
            }
            Some(_) => {
                // Reordered arrival inside the window: a good delivery.
                p.loss.observe(0, 1);
            }
            None => {
                p.loss.observe(0, 1);
                p.highest_seq = Some(seq);
            }
        }
        p.udp_bytes_in += frame.payload.len() as u64;
        p.datagrams_in += 1;
        self.inbox.push_back(Delivery {
            from: peer_id,
            class: frame.header.class,
            iter: frame.header.iter,
            payload: frame.payload,
        });
    }

    /// Drains every complete length-prefixed frame buffered for `peer`.
    ///
    /// Infallible by design: a stream that errors, closes, or sends a
    /// corrupt length prefix quarantines *that peer's* reliable lane
    /// (the stream is dropped, later sends report
    /// [`TransportError::NotConnected`]) — one bad worker must never
    /// take down the whole cluster's poll loop.
    fn drain_tcp(&mut self, peer_id: PeerId) {
        let Some(p) = self.peers.get_mut(&peer_id) else {
            return;
        };
        let Some(stream) = p.tcp.as_mut() else {
            return;
        };
        if stream.set_nonblocking(true).is_err() {
            p.tcp = None;
            return;
        }
        let mut tmp = [0u8; 65_536];
        let mut closed = false;
        loop {
            match stream.read(&mut tmp) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => p.rbuf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    closed = true;
                    let _ = e;
                    break;
                }
            }
        }
        if let Some(stream) = p.tcp.as_mut() {
            let _ = stream.set_nonblocking(false);
        }
        if closed {
            p.tcp = None;
        }
        // Extract complete frames.
        let mut off = 0usize;
        while p.rbuf.len() - off >= 4 {
            let len =
                u32::from_le_bytes(p.rbuf[off..off + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_TCP_FRAME {
                // Corrupt or hostile prefix: the stream is unusable
                // from here on; quarantine it and keep the run alive.
                p.tcp = None;
                p.rbuf.clear();
                self.log_drop(peer_id, "proto");
                return;
            }
            if p.rbuf.len() - off - 4 < len {
                break;
            }
            let frame_bytes = &p.rbuf[off + 4..off + 4 + len];
            match decode_frame(frame_bytes) {
                Ok(frame) => {
                    p.tcp_bytes_in += frame.payload.len() as u64;
                    self.inbox.push_back(Delivery {
                        from: peer_id,
                        class: frame.header.class,
                        iter: frame.header.iter,
                        payload: frame.payload,
                    });
                }
                Err(_) => {
                    self.crc_drop_bytes += len as u64;
                }
            }
            off += 4 + len;
        }
        if off > 0 {
            p.rbuf.drain(..off);
        }
    }
}

impl Transport for SocketTransport {
    fn send(
        &mut self,
        to: PeerId,
        class: FrameClass,
        iter: u64,
        payload: &[u8],
    ) -> Result<(), TransportError> {
        let p = self
            .peers
            .get_mut(&to)
            .ok_or(TransportError::UnknownPeer(to))?;
        match class {
            FrameClass::BestEffort => {
                // Validate before allocating a sequence number: a
                // rejected send must not leave a phantom gap for the
                // receiver to count as loss.
                if payload.len() > MAX_DATAGRAM_PAYLOAD {
                    return Err(TransportError::Oversize {
                        len: payload.len(),
                        max: MAX_DATAGRAM_PAYLOAD,
                    });
                }
                let addr = p.udp.ok_or(TransportError::NotConnected(to))?;
                let seq = p.next_seq_out;
                p.next_seq_out = p.next_seq_out.wrapping_add(1);
                let header = FrameHeader {
                    seq,
                    class,
                    attempt: 1,
                    iter,
                };
                let frame = encode_frame(&header, payload);
                self.udp.send_to(&frame, addr)?;
            }
            FrameClass::Reliable => {
                // TCP already guarantees ordered exactly-once bytes;
                // the wire seq is unused on this lane (and must not
                // consume a best-effort number — the receiver's UDP
                // gap detection would read it as loss).
                let header = FrameHeader {
                    seq: 0,
                    class,
                    attempt: 1,
                    iter,
                };
                let frame = encode_frame(&header, payload);
                let stream = p.tcp.as_mut().ok_or(TransportError::NotConnected(to))?;
                let len = frame.len() as u32;
                let res = stream
                    .write_all(&len.to_le_bytes())
                    .and_then(|()| stream.write_all(&frame));
                if let Err(e) = res {
                    p.tcp = None;
                    return Err(e.into());
                }
            }
        }
        Ok(())
    }

    fn poll(&mut self, budget: f64) -> Result<Vec<Delivery>, TransportError> {
        let deadline = Instant::now() + Duration::from_secs_f64(budget.clamp(0.0, 3600.0));
        let peer_ids: Vec<PeerId> = self.peers.keys().copied().collect();
        loop {
            // Best-effort lane: block briefly so idle polls don't spin.
            let remaining = deadline.saturating_duration_since(Instant::now());
            let wait = remaining.min(Duration::from_millis(2));
            self.udp
                .set_read_timeout(Some(wait.max(Duration::from_micros(500))))?;
            match self.udp.recv_from(&mut self.scratch) {
                Ok((n, from)) => self.handle_datagram(n, from),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
            // Reliable lanes. A broken stream quarantines that peer
            // inside `drain_tcp`; only the shared UDP socket erring
            // (above) fails the poll.
            for &id in &peer_ids {
                self.drain_tcp(id);
            }
            if Instant::now() >= deadline || !self.inbox.is_empty() {
                break;
            }
        }
        Ok(self.inbox.drain(..).collect())
    }

    fn link_quality(&self, peer: PeerId) -> LinkQuality {
        match self.peers.get(&peer) {
            Some(p) => {
                let secs = p.opened.elapsed().as_secs_f64().max(1e-3);
                // Goodput tracks the best-effort lane only: it is the
                // budgeting signal for row pushes, and the reliable
                // lane's throughput is governed by TCP itself. Mixing
                // in a burst of multi-MB model transfers would make
                // the planner overestimate datagram capacity.
                LinkQuality {
                    loss_rate: p.loss.rate(),
                    goodput_bps: p.udp_bytes_in as f64 / secs,
                }
            }
            None => LinkQuality {
                loss_rate: 0.0,
                goodput_bps: 0.0,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A connected endpoint pair on localhost: a(0)↔b(0).
    fn pair() -> (SocketTransport, SocketTransport) {
        let mut a = SocketTransport::bind("127.0.0.1:0").unwrap();
        let mut b = SocketTransport::bind("127.0.0.1:0").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let t_b = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (t_a, _) = listener.accept().unwrap();
        a.register_peer(0, Some(b.local_udp_addr().unwrap()), Some(t_a))
            .unwrap();
        b.register_peer(0, Some(a.local_udp_addr().unwrap()), Some(t_b))
            .unwrap();
        (a, b)
    }

    fn poll_until(t: &mut SocketTransport, want: usize) -> Vec<Delivery> {
        let mut got = Vec::new();
        for _ in 0..200 {
            got.extend(t.poll(0.02).unwrap());
            if got.len() >= want {
                break;
            }
        }
        got
    }

    #[test]
    fn udp_best_effort_delivers_on_loopback() {
        let (mut a, mut b) = pair();
        a.send(0, FrameClass::BestEffort, 4, b"row-payload")
            .unwrap();
        let got = poll_until(&mut b, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"row-payload");
        assert_eq!(got[0].class, FrameClass::BestEffort);
        assert_eq!(got[0].iter, 4);
        assert_eq!(got[0].from, 0);
    }

    #[test]
    fn tcp_reliable_delivers_large_payloads() {
        let (mut a, mut b) = pair();
        // Far larger than any datagram: must stream over TCP.
        let big = vec![0xABu8; 1 << 20];
        a.send(0, FrameClass::Reliable, 9, &big).unwrap();
        let got = poll_until(&mut b, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload.len(), big.len());
        assert_eq!(got[0].class, FrameClass::Reliable);
    }

    #[test]
    fn oversize_datagram_is_rejected() {
        let (mut a, _b) = pair();
        let err = a
            .send(
                0,
                FrameClass::BestEffort,
                0,
                &vec![0u8; MAX_DATAGRAM_PAYLOAD + 1],
            )
            .unwrap_err();
        assert!(matches!(err, TransportError::Oversize { .. }));
    }

    #[test]
    fn duplicate_datagrams_are_deduped() {
        let (a, mut b) = pair();
        // Inject the same encoded frame twice from a's UDP address is
        // not possible from outside; emulate a duplicating network by
        // sending the frame twice through a raw socket bound to a's
        // port... instead, craft the duplicate at the frame layer: two
        // sends with a forced identical seq via a fresh transport
        // whose counter we reset by rebuilding it.
        let header = FrameHeader {
            seq: 7,
            class: FrameClass::BestEffort,
            attempt: 1,
            iter: 3,
        };
        let frame = encode_frame(&header, b"dup");
        let raw = &a.udp;
        let to = b.local_udp_addr().unwrap();
        raw.send_to(&frame, to).unwrap();
        raw.send_to(&frame, to).unwrap();
        let got = poll_until(&mut b, 2);
        assert_eq!(got.len(), 1, "second copy must be absorbed by dedup");
        assert!(b.byte_counters().wasted > 0.0);
    }

    #[test]
    fn corrupt_datagrams_are_dropped_and_counted() {
        let (a, mut b) = pair();
        let header = FrameHeader {
            seq: 0,
            class: FrameClass::BestEffort,
            attempt: 1,
            iter: 0,
        };
        let mut frame = encode_frame(&header, b"payload");
        let mid = frame.len() / 2;
        frame[mid] ^= 0xFF;
        a.udp.send_to(&frame, b.local_udp_addr().unwrap()).unwrap();
        let got = poll_until(&mut b, 1);
        assert!(got.is_empty(), "corrupt frame must not be delivered");
        assert_eq!(b.take_wire_drops(), [(0, "crc")]);
        assert!(b.byte_counters().corrupt > 0.0);
        assert!(b.link_quality(0).loss_rate > 0.0);
    }

    #[test]
    fn sequence_gaps_feed_the_loss_ewma() {
        let (a, mut b) = pair();
        let to = b.local_udp_addr().unwrap();
        // Send seq 0 then skip ahead to seq 10: nine datagrams "lost".
        for seq in [0u32, 10] {
            let frame = encode_frame(
                &FrameHeader {
                    seq,
                    class: FrameClass::BestEffort,
                    attempt: 1,
                    iter: 0,
                },
                b"x",
            );
            a.udp.send_to(&frame, to).unwrap();
        }
        let got = poll_until(&mut b, 2);
        assert_eq!(got.len(), 2);
        // The first (clean) datagram seeds the EWMA at 0.0, the gap
        // observation blends in at alpha=0.2: 0.2 * 9/10 = 0.18.
        assert!(
            b.link_quality(0).loss_rate > 0.15,
            "gap must register as loss, got {}",
            b.link_quality(0).loss_rate
        );
        assert!(b.byte_counters().lost > 0.0);
    }

    #[test]
    fn reliable_sends_do_not_create_phantom_udp_gaps() {
        let (mut a, mut b) = pair();
        // Interleave reliable control traffic with best-effort rows —
        // the shape of every live iteration (trace events and the mandatory push
        // prefix on TCP between row datagrams). None of the TCP sends may burn a UDP seq.
        for i in 0..3u64 {
            a.send(0, FrameClass::Reliable, i, b"control").unwrap();
            a.send(0, FrameClass::BestEffort, i, b"row").unwrap();
        }
        let got = poll_until(&mut b, 6);
        assert_eq!(got.len(), 6);
        assert_eq!(
            b.link_quality(0).loss_rate,
            0.0,
            "reliable frames must not register as best-effort loss"
        );
        assert_eq!(b.byte_counters().lost, 0.0);
    }

    #[test]
    fn seqs_are_allocated_per_peer() {
        // One sender, two receivers: frames sent to one peer must not
        // look like losses to the other.
        let mut s = SocketTransport::bind("127.0.0.1:0").unwrap();
        let mut b = SocketTransport::bind("127.0.0.1:0").unwrap();
        let mut c = SocketTransport::bind("127.0.0.1:0").unwrap();
        let s_addr = s.local_udp_addr().unwrap();
        s.register_peer(0, Some(b.local_udp_addr().unwrap()), None)
            .unwrap();
        s.register_peer(1, Some(c.local_udp_addr().unwrap()), None)
            .unwrap();
        b.register_peer(0, Some(s_addr), None).unwrap();
        c.register_peer(0, Some(s_addr), None).unwrap();
        for i in 0..4u64 {
            s.send(0, FrameClass::BestEffort, i, b"to-b").unwrap();
            s.send(1, FrameClass::BestEffort, i, b"to-c").unwrap();
        }
        assert_eq!(poll_until(&mut b, 4).len(), 4);
        assert_eq!(poll_until(&mut c, 4).len(), 4);
        for t in [&b, &c] {
            assert_eq!(t.link_quality(0).loss_rate, 0.0);
            assert_eq!(t.byte_counters().lost, 0.0);
        }
    }

    #[test]
    fn oversize_send_does_not_burn_a_seq() {
        let (mut a, mut b) = pair();
        a.send(0, FrameClass::BestEffort, 0, b"first").unwrap();
        let err = a
            .send(
                0,
                FrameClass::BestEffort,
                0,
                &vec![0u8; MAX_DATAGRAM_PAYLOAD + 1],
            )
            .unwrap_err();
        assert!(matches!(err, TransportError::Oversize { .. }));
        a.send(0, FrameClass::BestEffort, 0, b"second").unwrap();
        let got = poll_until(&mut b, 2);
        assert_eq!(got.len(), 2);
        assert_eq!(
            b.link_quality(0).loss_rate,
            0.0,
            "a rejected send must not leave a gap the receiver counts as loss"
        );
        assert_eq!(b.byte_counters().lost, 0.0);
    }

    #[test]
    fn tcp_bytes_do_not_skew_the_datagram_loss_estimate() {
        let (mut a, mut b) = pair();
        // A multi-MB reliable frame lands first...
        let big = vec![0x5Au8; 2 << 20];
        a.send(0, FrameClass::Reliable, 0, &big).unwrap();
        let got = poll_until(&mut b, 1);
        assert_eq!(got.len(), 1);
        // ...then tiny datagrams with a real gap of 9.
        let to = b.local_udp_addr().unwrap();
        for seq in [0u32, 10] {
            let frame = encode_frame(
                &FrameHeader {
                    seq,
                    class: FrameClass::BestEffort,
                    attempt: 1,
                    iter: 0,
                },
                b"x",
            );
            a.udp.send_to(&frame, to).unwrap();
        }
        let got = poll_until(&mut b, 2);
        assert_eq!(got.len(), 2);
        let c = b.byte_counters();
        // 9 lost datagrams × 1-byte mean payload: the estimate must be
        // bytes, not megabytes.
        assert!(
            c.lost > 0.0 && c.lost < 1_000.0,
            "lost estimate skewed by the TCP lane: {}",
            c.lost
        );
        assert!(
            c.useful >= big.len() as f64,
            "reliable payload still counts as useful"
        );
    }

    #[test]
    fn corrupt_tcp_length_prefix_quarantines_the_peer() {
        let mut b = SocketTransport::bind("127.0.0.1:0").unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (t_b, _) = listener.accept().unwrap();
        b.register_peer(0, None, Some(t_b)).unwrap();
        use std::io::Write as _;
        raw.write_all(&[0xFF; 8]).unwrap();
        raw.flush().unwrap();
        // The poll itself must survive; only the stream is condemned.
        for _ in 0..10 {
            assert!(b.poll(0.01).unwrap().is_empty());
            if !b.tcp_connected(0) {
                break;
            }
        }
        assert!(!b.tcp_connected(0), "hostile stream must be quarantined");
        assert!(
            b.take_wire_drops()
                .iter()
                .any(|&(p, k)| p == 0 && k == "proto"),
            "quarantine must be journaled"
        );
    }

    #[test]
    fn unknown_peer_and_disconnected_lane_error_clearly() {
        let mut t = SocketTransport::bind("127.0.0.1:0").unwrap();
        assert!(matches!(
            t.send(3, FrameClass::BestEffort, 0, b"x"),
            Err(TransportError::UnknownPeer(3))
        ));
        t.register_peer(3, None, None).unwrap();
        assert!(matches!(
            t.send(3, FrameClass::Reliable, 0, b"x"),
            Err(TransportError::NotConnected(3))
        ));
    }
}

//! Live transport plane: real sockets under the ROG row protocol.
//!
//! ROG's traffic is two-class by design (paper Sec. III): best-effort
//! gradient rows that are allowed to age toward the staleness bound,
//! and reliable, acked resync / model transfers that must arrive. The
//! [`Transport`] trait captures exactly that split — a datagram-class
//! send for rows and a stream-class send for reliable messages, plus a
//! link-level delivery estimate in the units the ATP planner consumes.
//! It is the seam of the *live* plane only: the simulated engines model
//! the same two classes on the virtual clock by driving
//! [`rog_net::Channel`] directly (the reliable class is the engines'
//! per-worker retransmit slot) and never go through this crate.
//!
//! [`SocketTransport`] is the one implementation: blocking `std::net`
//! sockets, UDP for the best-effort class (reusing the seq+CRC32
//! framing and [`rog_net::SeqWindow`] dedup from [`rog_net::wire`]) and
//! TCP for the reliable class. The vendored dependency set has no async
//! runtime, so it is driven by short blocking polls from one thread.
//!
//! [`proto`] defines the small length-prefixed control protocol the
//! live `rogctl serve`/`join` cluster speaks on top of the transport
//! (join/welcome handshake, staleness-gate probes, row pushes/pulls,
//! checkpoints, trace events, final-model handoff).
//!
//! # Determinism boundary
//!
//! Real I/O — wall-clock pacing, kernel buffers and datagram loss —
//! is non-deterministic by nature; live runs are reconciled against
//! sim runs statistically (composition within tolerance), never
//! byte-compared.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub use rog_net::wire::FrameClass;

pub mod proto;
mod socket;

pub use socket::{SocketByteCounters, SocketTransport};

/// Identifies the remote end of a lane: the index a peer was
/// registered under (a server numbers its workers `0..n`, a worker
/// numbers the server `0`).
pub type PeerId = usize;

/// Largest best-effort payload a single datagram may carry. Safely
/// under the 65,507-byte UDP maximum once the 32-byte wire framing is
/// added; row batches larger than this are split by the caller (see
/// [`proto::chunk_rows`]).
pub const MAX_DATAGRAM_PAYLOAD: usize = 60_000;

/// Link-level quality estimate for one peer, in the same units the
/// ATP planner consumes from the sim channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQuality {
    /// EWMA of the observed loss+corruption rate in `[0, 1]`
    /// (`0.0` before any observation — an unobserved link is assumed
    /// clean, matching [`rog_net::Channel::estimated_loss_rate`]).
    pub loss_rate: f64,
    /// Loss-discounted receive-throughput estimate in bytes/s.
    pub goodput_bps: f64,
}

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TransportError {
    /// An OS-level socket error (message carries the `io::Error` text).
    Io(String),
    /// The peer id has not been registered.
    UnknownPeer(PeerId),
    /// The peer is registered but its lane for this class is not
    /// connected (no UDP address / TCP stream yet, or already closed).
    NotConnected(PeerId),
    /// A best-effort payload exceeds [`MAX_DATAGRAM_PAYLOAD`].
    Oversize {
        /// Offending payload length.
        len: usize,
        /// The limit.
        max: usize,
    },
    /// A control-protocol message failed to decode.
    Proto(String),
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "socket error: {e}"),
            TransportError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            TransportError::NotConnected(p) => write!(f, "peer {p} not connected"),
            TransportError::Oversize { len, max } => {
                write!(f, "payload of {len} bytes exceeds datagram limit {max}")
            }
            TransportError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e.to_string())
    }
}

/// One message delivered to the local endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The peer the message arrived from.
    pub from: PeerId,
    /// Delivery class it traveled under.
    pub class: FrameClass,
    /// Training iteration stamped in the frame header.
    pub iter: u64,
    /// Verbatim payload.
    pub payload: Vec<u8>,
}

/// The two-class message transport the live cluster runs on.
///
/// `send` with [`FrameClass::BestEffort`] is datagram semantics: the
/// message may be lost, duplicated or reordered, and damage is
/// detected (CRC32) and dropped, never retransmitted — RSP's
/// staleness gate absorbs the gap. `send` with
/// [`FrameClass::Reliable`] is stream semantics: delivered exactly
/// once, in order, retransmitted until acked (TCP).
pub trait Transport {
    /// Queues one message to `to` under `class`. Best-effort sends
    /// return once the datagram is handed to the lane; reliable sends
    /// return once the payload is accepted for guaranteed delivery.
    fn send(
        &mut self,
        to: PeerId,
        class: FrameClass,
        iter: u64,
        payload: &[u8],
    ) -> Result<(), TransportError>;

    /// Drives the transport for up to `budget` wall seconds and returns
    /// every message delivered in that window (possibly none).
    fn poll(&mut self, budget: f64) -> Result<Vec<Delivery>, TransportError>;

    /// Current link-quality estimate toward `peer` (loss EWMA fed by
    /// link-level delivery reports, plus a goodput estimate).
    fn link_quality(&self, peer: PeerId) -> LinkQuality;
}

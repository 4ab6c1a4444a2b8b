//! Wireless robotic-IoT channel model.
//!
//! Sec. II-B of the paper characterizes robotic IoT networks: devices
//! moving at 5–40 cm/s behind obstacles see *frequent, sharp, random*
//! bandwidth fluctuation — a ≥20 % swing about every 0.4 s and a ≥40 %
//! swing about every 1.2 s, with outdoor links additionally fading to
//! nearly 0 Mbit/s. Those statistics, not any specific radio, are what
//! cause the straggler effect ROG attacks; this crate reproduces them.
//!
//! Pieces:
//!
//! * [`Trace`] — a piecewise-constant time series (0.1 s steps, like the
//!   paper's iperf recording), used both for total channel capacity in
//!   bit/s and for per-link quality factors in `[0, 1]`.
//! * [`ChannelProfile`] — synthetic trace generators calibrated to the
//!   paper's indoor/outdoor measurements (Fig. 3), eager or as a
//!   [`TraceStream`] that generates each sample when first read, plus
//!   replay of externally recorded traces (the artifact's `tc` replay
//!   path).
//! * [`stats`] — the fluctuation statistics used to validate calibration
//!   and to regenerate Fig. 3's summary numbers.
//! * [`Channel`] — a shared-airtime channel (802.11 DCF approximation:
//!   `rate_i = capacity × link_i / n_active`) carrying [`Flow`]s composed
//!   of framed chunks (rows), with optional deadlines. Deadline expiry
//!   models ATP's `socket.settimeout` speculative transmission: the flow
//!   is cut, whole chunks delivered so far count, and the partial chunk is
//!   discarded.
//! * [`wire`] — framing constants (start/end markers, per-row headers)
//!   charged to every transmission, reproducing the management overhead
//!   the paper discusses in Sec. III-A — plus the concrete CRC32-
//!   checksummed, sequence-numbered frame codec used on lossy links.
//! * [`loss`] — a seeded, deterministic packet-loss model
//!   (Gilbert–Elliott burst loss + i.i.d. loss / corruption /
//!   duplication / reordering) applied per chunk inside
//!   [`Channel::advance_until`]; finished flows yield a
//!   [`DeliveryReport`] of per-chunk fates.
//! * [`reliability`] — the two delivery classes built on top: reliable
//!   (ack + backoff retransmit + dedup, for control and model-resync
//!   traffic) and best-effort (detect-and-drop, for gradient rows that
//!   RSP's staleness gate can absorb).
//!
//! # Example
//!
//! ```
//! use rog_net::{Channel, ChannelProfile, FlowSpec};
//!
//! let profile = ChannelProfile::outdoor();
//! let mut channel = Channel::new(profile.generate(42, 60.0), vec![
//!     profile.generate_link(43, 60.0),
//! ]);
//! let flow = channel.start_flow(0.0, FlowSpec::new(0, vec![50_000; 10]).with_deadline(0.5));
//! let events = channel.advance_until(2.0);
//! assert!(!events.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The vendored proptest shim's strategy-tuple expansion is deeply
// recursive; the wire-decoder fuzz properties push past the default 128.
#![recursion_limit = "256"]

mod channel;
pub mod io;
pub mod loss;
mod profile;
pub mod reliability;
pub mod stats;
mod trace;
pub mod wire;

pub use channel::{
    shard_link, Channel, DeliveryReport, Flow, FlowEvent, FlowId, FlowOutcome, FlowSpec, LinkId,
    SharingMode, TraceSource,
};
pub use loss::{ChunkFate, GeParams, LossConfig, LossModel};
pub use profile::{ChannelProfile, DistanceProfile, FadeProfile, TraceStream};
pub use reliability::{ReliableProgress, ReliableTransfer, SeqWindow};
pub use trace::Trace;

//! Shared wireless channel carrying chunked flows.
//!
//! All devices in the paper's testbed hang off one 802.11ac hotspot, so
//! every push and pull contends for the same airtime (Sec. II-D: "the
//! devices typically share the same wireless channel, incurring traffic
//! volume proportional to the number of devices"). We approximate DCF
//! fairness: each active flow gets an equal share of airtime, and during
//! its share transmits at `capacity(t) × link_factor(t)` where the link
//! factor models that device's own occlusion/distance fading.
//!
//! Flows are sequences of *chunks* (gradient rows, with framing). A flow
//! may carry a deadline — ATP's speculative-transmission timeout. When the
//! deadline fires the flow is cut: chunks fully delivered by then count,
//! the partial chunk is discarded (its bytes are wasted airtime), exactly
//! like the `socket.settimeout` + unique-marker framing of Sec. V.

use std::cell::RefCell;
use std::collections::BTreeMap;

use rog_sim::Time;

use crate::loss::{ChunkFate, LossModel};
use crate::stats::LossEwma;
use crate::trace;
use crate::{Trace, TraceStream};

/// Index of a device's link (assigned by the cluster builder).
pub type LinkId = usize;

/// Canonical link id of the `(worker, shard)` pair under a sharded
/// parameter plane: links are laid out worker-major, so worker `w`
/// owns the dense block `w * n_shards .. (w + 1) * n_shards` and
/// shard 0 keeps the link id an unsharded cluster would assign
/// (`shard_link(w, 1, 0) == w`). Every pair gets its own bandwidth
/// trace and loss streams; airtime contention still couples all links
/// through the shared [`Channel`] capacity.
pub fn shard_link(worker: usize, n_shards: usize, shard: usize) -> LinkId {
    debug_assert!(shard < n_shards.max(1));
    worker * n_shards.max(1) + shard
}

/// How concurrent flows share the channel.
///
/// 802.11 DCF gives every station an equal chance to *transmit a frame*.
/// Interpreted per unit time that is **airtime fairness**: each active
/// flow gets `1/n` of the airtime and moves at its own PHY rate during
/// its share. But because every frame carries the same payload, equal
/// frame chances actually equalize *throughput*, so one slow (distant)
/// station drags everyone down to its pace — the classic 802.11
/// *rate anomaly*. Both interpretations are available; the default is
/// airtime fairness, the anomaly mode is used by the MAC ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SharingMode {
    /// Equal airtime; per-flow rate `capacity × link_i / n`.
    #[default]
    AirtimeFair,
    /// Equal throughput (802.11 rate anomaly): every flow moves at the
    /// harmonic-mean rate `1 / Σ_j 1/(capacity × link_j)`.
    ThroughputFair,
}

/// Opaque handle of a flow in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u64);

/// Description of a transfer to start.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Which device's link carries the flow.
    pub link: LinkId,
    /// Byte size of each chunk, in transmission order (framing included).
    /// The channel keeps this buffer for the flow's running totals, so
    /// one spare slot of capacity spares it an allocation.
    pub chunks: Vec<u64>,
    /// Absolute virtual time at which to cut the flow, if any.
    pub deadline: Option<Time>,
}

impl FlowSpec {
    /// Creates a flow of `chunks` bytes each over `link`, no deadline.
    pub fn new(link: LinkId, chunks: Vec<u64>) -> Self {
        Self {
            link,
            chunks,
            deadline: None,
        }
    }

    /// Sets an absolute-time deadline (speculative-transmission timeout).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Why a flow left the channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowOutcome {
    /// Every chunk was delivered.
    Completed,
    /// The deadline fired mid-flow; `chunks_done` whole chunks were
    /// delivered and the partially transmitted chunk (if any) was
    /// discarded.
    DeadlineReached {
        /// Number of complete chunks delivered.
        chunks_done: usize,
        /// Useful bytes delivered (sum of the complete chunks).
        bytes_done: u64,
    },
    /// The sender tore the flow down via [`Channel::cancel_flow`]
    /// (link blackout, peer crash). Nothing was acknowledged, so
    /// *every* transmitted byte — complete chunks included — counts as
    /// wasted airtime; a retry must retransmit from the start.
    Cancelled {
        /// Bytes that had been transmitted and are now discarded.
        bytes_wasted: u64,
    },
}

/// A flow event produced by [`Channel::advance_until`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEvent {
    /// Which flow.
    pub id: FlowId,
    /// Time at which the outcome occurred.
    pub at: Time,
    /// What happened.
    pub outcome: FlowOutcome,
}

/// Per-flow account of what the loss model did to each delivered
/// chunk, produced when a flow finishes (completion or deadline cut)
/// on a channel with a loss model installed.
///
/// Fetched once via [`Channel::take_report`]; `fates[i]` is the fate
/// of the `i`-th *complete* chunk in transmission order. Cancelled
/// flows produce no report — nothing was acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryReport {
    /// The link the flow ran on.
    pub link: LinkId,
    /// Fate of each complete chunk, in transmission order.
    pub fates: Vec<ChunkFate>,
    /// Bytes of chunks that never arrived.
    pub lost_bytes: u64,
    /// Bytes of chunks that arrived but failed their CRC check.
    pub corrupt_bytes: u64,
}

impl DeliveryReport {
    /// Number of chunks that were lost or corrupt.
    pub fn bad_chunks(&self) -> usize {
        self.fates.iter().filter(|f| !f.intact()).count()
    }

    /// Number of chunks the loss model dropped in flight.
    pub fn lost_chunks(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, ChunkFate::Lost))
            .count()
    }

    /// Number of chunks that arrived but failed their CRC check.
    pub fn corrupt_chunks(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, ChunkFate::Corrupt))
            .count()
    }
}

/// An in-flight transfer.
#[derive(Debug, Clone)]
pub struct Flow {
    id: FlowId,
    link: LinkId,
    /// Cumulative chunk byte boundaries; `prefix[i]` = bytes of the first
    /// `i` chunks. `prefix[len]` is the flow total.
    prefix: Vec<u64>,
    /// `prefix[len]`, the flow total.
    total: f64,
    bytes_done: f64,
    deadline: Option<Time>,
    /// The link's fade factor, read in grid cell `cell` of its source:
    /// the source holds that value until the cell changes.
    factor: f64,
    cell: usize,
    /// The link source's grid step when it is not the capacity's; `None`
    /// on the capacity's grid (or with no source), whose cell and
    /// breakpoint a step computes once for every such flow.
    own_dt: Option<Time>,
    /// Fates drawn so far, one per completed chunk (empty when the
    /// channel has no loss model).
    fates: Vec<ChunkFate>,
}

impl Flow {
    fn remaining(&self) -> f64 {
        self.total - self.bytes_done
    }

    /// Number of whole chunks covered by `bytes_done`.
    fn chunks_done(&self) -> usize {
        // prefix is sorted; find the last boundary <= bytes_done (+tol).
        // `bytes_done` never decreases, so the chunks that already drew
        // a fate are known complete and the scan resumes after them.
        let done = self.bytes_done + 0.25;
        let known = self.fates.len();
        known
            + self.prefix[known + 1..]
                .iter()
                .take_while(|&&b| b as f64 <= done)
                .count()
    }

    /// Whether the flow leaves the channel at time `now`: fully
    /// transmitted, or cut by its deadline.
    fn finished(&self, now: Time) -> bool {
        self.remaining() <= BYTE_TOL || self.deadline.is_some_and(|d| now >= d - EPS)
    }
}

/// Where a channel reads its capacity or one link's factor: a replayed
/// [`Trace`], or a [`TraceStream`] stepped to each time the channel
/// reads. Both read the same sample at the same time.
// Nearly every source of a run is generated: boxing the stream would
// cost an allocation per link and a pointer chase per read.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// Samples held in memory (recorded, or generated eagerly).
    Replayed(Trace),
    /// Samples generated as the channel's clock reaches them.
    Generated(TraceStream),
}

impl TraceSource {
    fn value_at(&mut self, t: Time) -> f64 {
        match self {
            Self::Replayed(trace) => trace.value_at(t),
            Self::Generated(stream) => stream.value_at(t),
        }
    }

    fn dt(&self) -> Time {
        match self {
            Self::Replayed(trace) => trace.dt(),
            Self::Generated(stream) => stream.dt(),
        }
    }
}

/// The capacity and per-link sources of a channel.
#[derive(Debug, Clone)]
struct Sources {
    capacity: TraceSource,
    links: Vec<TraceSource>,
}

impl Sources {
    /// `link`'s fade factor at `t`; `1.0` for a link with no source.
    fn link_factor(&mut self, link: LinkId, t: Time) -> f64 {
        self.links.get_mut(link).map_or(1.0, |s| s.value_at(t))
    }

    /// `link`'s un-shared PHY rate at `t` in bit/s.
    fn phy_rate(&mut self, link: LinkId, t: Time) -> f64 {
        self.capacity.value_at(t) * self.link_factor(link, t)
    }
}

/// The shared wireless channel.
///
/// See the crate docs for the model. All methods take/return absolute
/// virtual time; time only moves forward via [`Channel::advance_until`].
#[derive(Debug, Clone)]
pub struct Channel {
    /// Reading a generated source steps it, and the `&self` rate
    /// estimators read too, hence the cell. Every read is at `now`.
    sources: RefCell<Sources>,
    /// Live flows in `FlowId` order: ids are handed out monotonically,
    /// so appending keeps the vector sorted.
    flows: Vec<Flow>,
    /// Per-step rate and finish time of `flows[k]`, kept between steps
    /// so [`Channel::advance_until`] allocates nothing in the steady
    /// state.
    rates: Vec<f64>,
    fins: Vec<Time>,
    now: Time,
    next_id: u64,
    useful_bytes: f64,
    wasted_bytes: f64,
    sharing: SharingMode,
    loss: Option<LossModel>,
    reports: BTreeMap<FlowId, DeliveryReport>,
    lost_bytes: f64,
    corrupt_bytes: f64,
    #[cfg(test)]
    duplicated_bytes: f64,
    /// Link-source reads of the flows' factors; only the read-count
    /// test looks.
    #[cfg(test)]
    link_reads: u64,
    offered_bytes: f64,
    loss_est: BTreeMap<LinkId, LossEwma>,
}

const EPS: Time = 1e-9;
/// Byte-resolution tolerance for completion detection.
const BYTE_TOL: f64 = 0.25;

// A run is built on one thread and may be driven on another
// (`rog_bench::run_outcomes`); the source cell must not cost `Send`.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Channel>();
};

impl Channel {
    /// Creates a channel with a total-capacity trace (bit/s) and one
    /// quality-factor trace per device link.
    pub fn new(capacity: Trace, links: Vec<Trace>) -> Self {
        Self::from_sources(
            TraceSource::Replayed(capacity),
            links.into_iter().map(TraceSource::Replayed).collect(),
        )
    }

    /// [`Channel::new`] over sources that may be generated streams.
    pub fn from_sources(capacity: TraceSource, links: Vec<TraceSource>) -> Self {
        Self {
            sources: RefCell::new(Sources { capacity, links }),
            flows: Vec::new(),
            rates: Vec::new(),
            fins: Vec::new(),
            now: 0.0,
            next_id: 0,
            useful_bytes: 0.0,
            wasted_bytes: 0.0,
            sharing: SharingMode::default(),
            loss: None,
            reports: BTreeMap::new(),
            lost_bytes: 0.0,
            corrupt_bytes: 0.0,
            #[cfg(test)]
            duplicated_bytes: 0.0,
            #[cfg(test)]
            link_reads: 0,
            offered_bytes: 0.0,
            loss_est: BTreeMap::new(),
        }
    }

    /// Selects the MAC sharing model (see [`SharingMode`]).
    #[must_use]
    pub fn with_sharing(mut self, sharing: SharingMode) -> Self {
        self.sharing = sharing;
        self
    }

    /// Installs a packet-loss model (see [`LossModel`]). Builder form
    /// of [`Channel::set_loss_model`].
    #[must_use]
    pub fn with_loss(mut self, model: LossModel) -> Self {
        self.set_loss_model(Some(model));
        self
    }

    /// Installs or removes the packet-loss model. With `None` (the
    /// default) every chunk is delivered intact and the channel
    /// behaves byte-identically to a pre-loss-model build.
    pub fn set_loss_model(&mut self, model: Option<LossModel>) {
        self.loss = model;
    }

    /// Whether a loss model is installed (delivery reports are only
    /// produced when one is).
    pub fn loss_enabled(&self) -> bool {
        self.loss.is_some()
    }

    /// The active MAC sharing model.
    pub fn sharing(&self) -> SharingMode {
        self.sharing
    }

    /// Current channel time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of flows in flight.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Useful payload bytes delivered so far (complete chunks only).
    pub fn useful_bytes(&self) -> f64 {
        self.useful_bytes
    }

    /// Bytes spent on chunks that were cut by a deadline and discarded.
    pub fn wasted_bytes(&self) -> f64 {
        self.wasted_bytes
    }

    /// Bytes of chunks the loss model dropped in flight.
    pub fn lost_bytes(&self) -> f64 {
        self.lost_bytes
    }

    /// Bytes of chunks that arrived but failed their CRC check.
    pub fn corrupt_bytes(&self) -> f64 {
        self.corrupt_bytes
    }

    /// Bytes delivered more than once (receiver-side dedup absorbs
    /// them; informational, not part of the conservation identity).
    /// Only the conservation tests read it.
    #[cfg(test)]
    pub fn duplicated_bytes(&self) -> f64 {
        self.duplicated_bytes
    }

    /// Total bytes of airtime consumed by flows that have terminated
    /// (completed, deadline-cut, or cancelled). Every offered byte is
    /// accounted exactly once as useful, wasted, lost, or corrupt —
    /// see [`Channel::byte_conservation_error`].
    pub fn offered_bytes(&self) -> f64 {
        self.offered_bytes
    }

    /// Absolute error of the byte-conservation identity
    /// `useful + wasted + lost + corrupt == offered`.
    ///
    /// Nonzero only by floating-point rounding and the sub-byte
    /// completion tolerance; the run-level invariant watchdog asserts
    /// it stays below ~1 byte per terminated flow.
    pub fn byte_conservation_error(&self) -> f64 {
        let accounted =
            self.useful_bytes + self.wasted_bytes + self.lost_bytes + self.corrupt_bytes;
        (accounted - self.offered_bytes).abs()
    }

    /// Fetches (and consumes) the delivery report of a finished flow.
    ///
    /// `None` when the channel has no loss model, when the flow was
    /// cancelled, or when the report was already taken — callers can
    /// treat `None` as "everything transmitted arrived intact".
    pub fn take_report(&mut self, id: FlowId) -> Option<DeliveryReport> {
        self.reports.remove(&id)
    }

    /// EWMA estimate of the chunk loss+corruption rate on `link`,
    /// updated from delivery reports ([`LossEwma`]); `0.0` for a link
    /// with no observations yet.
    pub fn estimated_loss_rate(&self, link: LinkId) -> f64 {
        self.loss_est.get(&link).map_or(0.0, |e| e.rate())
    }

    /// Loss-discounted throughput estimate for ATP's MTA computation:
    /// [`Channel::estimated_rate`] scaled by the link's estimated
    /// delivery probability. Identical to `estimated_rate` on a clean
    /// (or never-observed) link, so loss-free planning is unchanged.
    pub fn estimated_goodput_rate(&self, link: LinkId) -> f64 {
        self.estimated_rate(link) * (1.0 - self.estimated_loss_rate(link))
    }

    /// Instantaneous un-shared link bandwidth in bit/s (capacity times
    /// the link's fade factor) — what a passive monitor like `iw` would
    /// report on that device (paper Sec. VI-B).
    pub fn link_rate_bps(&self, link: LinkId) -> f64 {
        self.sources.borrow_mut().phy_rate(link, self.now)
    }

    /// Instantaneous rate (bytes/s) a flow on `link` would get right now
    /// if it had to share with the current active flows plus itself.
    ///
    /// The estimate is purely model-based — trace capacity × the link's
    /// fade factor, split over `active_flows() + 1` — and does **not**
    /// depend on bytes previously observed on the link. In particular
    /// it is well defined for a link that has never carried a flow:
    ///
    /// * a link whose fade trace is currently `0.0` (deep fade or
    ///   blackout) estimates `0.0` bytes/s, never a division by zero —
    ///   callers planning a transfer must treat this as "do not send";
    /// * a `link` index with no registered trace falls back to a fade
    ///   factor of `1.0` (an ideal link), mirroring
    ///   [`Channel::link_rate_bps`].
    pub fn estimated_rate(&self, link: LinkId) -> f64 {
        let n = (self.flows.len() + 1) as f64;
        self.link_rate_bps(link) / 8.0 / n
    }

    /// Starts a flow at time `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` precedes channel time, or if other flows are in
    /// flight and `start` is ahead of channel time (the caller must first
    /// [`Channel::advance_until`] `start` and handle any events).
    pub fn start_flow(&mut self, start: Time, spec: FlowSpec) -> FlowId {
        assert!(
            start >= self.now - EPS,
            "flow starts in the past: {start} < {}",
            self.now
        );
        if start > self.now + EPS {
            assert!(
                self.flows.is_empty(),
                "advance the channel to the start time before starting a flow"
            );
            self.now = start;
        }
        if let Some(d) = spec.deadline {
            assert!(d >= self.now - EPS, "deadline is already in the past");
        }
        // The running totals take over the chunk list's buffer.
        let n_chunks = spec.chunks.len();
        let mut prefix = spec.chunks;
        let mut acc = 0u64;
        for c in &mut prefix {
            acc += std::mem::replace(c, acc);
        }
        prefix.push(acc);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let sources = self.sources.get_mut();
        let cap_dt = sources.capacity.dt();
        let own_dt = sources.links.get(spec.link).map(TraceSource::dt);
        let own_dt = own_dt.filter(|dt| dt.to_bits() != cap_dt.to_bits());
        #[cfg(test)]
        {
            self.link_reads += 1;
        }
        self.flows.push(Flow {
            id,
            link: spec.link,
            prefix,
            total: acc as f64,
            bytes_done: 0.0,
            deadline: spec.deadline,
            factor: sources.link_factor(spec.link, self.now),
            cell: trace::cell(own_dt.unwrap_or(cap_dt), self.now),
            own_dt,
            // One fate per chunk at most: sized here so that drawing
            // them never allocates inside `advance_until`.
            fates: Vec::with_capacity(if self.loss.is_some() { n_chunks } else { 0 }),
        });
        id
    }

    fn flow_index(&self, id: FlowId) -> Option<usize> {
        self.flows.binary_search_by_key(&id, |f| f.id).ok()
    }

    /// Tears down an in-flight flow at the current channel time (the
    /// primitive behind link-blackout and crash faults).
    ///
    /// Unlike a deadline cut, a cancellation delivers *nothing*: the
    /// receiver never acknowledges, so even complete chunks already on
    /// the air are discarded and charged to [`Channel::wasted_bytes`].
    /// The freed airtime is re-shared among the remaining flows from
    /// this instant on. Returns the terminal [`FlowEvent`]
    /// (outcome [`FlowOutcome::Cancelled`]), or `None` if the flow is
    /// unknown or already finished — cancelling twice is harmless.
    pub fn cancel_flow(&mut self, id: FlowId) -> Option<FlowEvent> {
        let f = self.flows.remove(self.flow_index(id)?);
        self.wasted_bytes += f.bytes_done;
        self.offered_bytes += f.bytes_done;
        Some(FlowEvent {
            id,
            at: self.now,
            outcome: FlowOutcome::Cancelled {
                bytes_wasted: f.bytes_done.round() as u64,
            },
        })
    }

    /// Splits the first `chunks_done` chunks of a finished flow into
    /// useful / lost / corrupt bytes according to their fates, updates
    /// the link's loss estimator, and files a [`DeliveryReport`].
    ///
    /// With no loss model installed this reduces to one addition of
    /// `prefix[chunks_done]` to `useful_bytes` — the exact arithmetic
    /// of the pre-loss-model channel, so loss-free runs stay
    /// byte-identical. The same holds when a model is installed but
    /// every fate is `Delivered`, because the per-class byte sums are
    /// integers accumulated in `u64` and added to each counter once.
    fn settle_chunks(&mut self, f: &Flow, chunks_done: usize) {
        if self.loss.is_none() {
            self.useful_bytes += f.prefix[chunks_done] as f64;
            return;
        }
        debug_assert_eq!(f.fates.len(), chunks_done, "one fate per complete chunk");
        let (mut useful, mut lost, mut corrupt) = (0u64, 0u64, 0u64);
        for i in 0..chunks_done {
            let size = f.prefix[i + 1] - f.prefix[i];
            match f.fates[i] {
                ChunkFate::Delivered | ChunkFate::Reordered | ChunkFate::Duplicated => {
                    useful += size
                }
                ChunkFate::Lost => lost += size,
                ChunkFate::Corrupt => corrupt += size,
            }
        }
        self.useful_bytes += useful as f64;
        self.lost_bytes += lost as f64;
        self.corrupt_bytes += corrupt as f64;
        #[cfg(test)]
        {
            let dup = f.fates[..chunks_done].iter().zip(f.prefix.windows(2));
            let dup = dup.filter(|(fate, _)| **fate == ChunkFate::Duplicated);
            self.duplicated_bytes += dup.map(|(_, w)| w[1] - w[0]).sum::<u64>() as f64;
        }
        let report = DeliveryReport {
            link: f.link,
            fates: f.fates[..chunks_done].to_vec(),
            lost_bytes: lost,
            corrupt_bytes: corrupt,
        };
        self.loss_est
            .entry(f.link)
            .or_insert_with(|| LossEwma::new(LossEwma::DEFAULT_ALPHA))
            .observe(report.bad_chunks(), chunks_done);
        self.reports.insert(f.id, report);
    }

    /// Advances the channel toward `t`, stopping at the first instant at
    /// which one or more flow events (completion / deadline) occur.
    ///
    /// Returns all events at that instant; if none occur before `t`, the
    /// channel ends at `t` with an empty vector. Progress applied is
    /// exact: piecewise-constant integration over capacity and link
    /// breakpoints, with airtime re-shared whenever the active set
    /// changes.
    pub fn advance_until(&mut self, t: Time) -> Vec<FlowEvent> {
        let mut events = Vec::new();
        let mut guard = 0u64;
        while self.now < t - EPS {
            guard += 1;
            assert!(
                guard < 50_000_000,
                "channel integration stuck at t={} (target {t}, {} flows)",
                self.now,
                self.flows.len()
            );
            if self.flows.is_empty() {
                self.now = t;
                return events;
            }
            let now = self.now;
            // Segment of constant rates: bounded by trace breakpoints.
            // The same pass leaves each flow's un-shared PHY rate
            // (`capacity × link factor`) in `rates`, re-reading a link
            // only in a grid cell the flow has not read yet.
            let sources = self.sources.get_mut();
            let cap_dt = sources.capacity.dt();
            let cap_cell = trace::cell(cap_dt, now);
            let mut seg_end = t.min(trace::next_breakpoint(cap_dt, now));
            let cap = sources.capacity.value_at(now);
            self.rates.clear();
            for f in &mut self.flows {
                let cell = match f.own_dt {
                    None => cap_cell,
                    Some(dt) => {
                        seg_end = seg_end.min(trace::next_breakpoint(dt, now));
                        trace::cell(dt, now)
                    }
                };
                if cell != f.cell {
                    f.cell = cell;
                    f.factor = sources.link_factor(f.link, now);
                    #[cfg(test)]
                    {
                        self.link_reads += 1;
                    }
                }
                self.rates.push(cap * f.factor);
            }
            // Constant per-flow rates in this segment, exact per-flow
            // finish times, and the earliest event inside the segment.
            let n = self.flows.len() as f64;
            let common = match self.sharing {
                SharingMode::AirtimeFair => None,
                SharingMode::ThroughputFair => {
                    // Rate anomaly: equal per-flow throughput set by the
                    // harmonic mean of the stations' PHY rates.
                    let inv_sum: f64 = self.rates.iter().map(|phy| 1.0 / phy.max(1e-3)).sum();
                    Some(1.0 / inv_sum / 8.0)
                }
            };
            let mut t_event = f64::INFINITY;
            self.fins.clear();
            for (f, rate) in self.flows.iter().zip(&mut self.rates) {
                *rate = common.unwrap_or(*rate / 8.0 / n);
                let fin = if *rate > 0.0 {
                    now + f.remaining().max(0.0) / *rate
                } else {
                    f64::INFINITY
                };
                self.fins.push(fin);
                t_event = t_event.min(fin);
                if let Some(d) = f.deadline {
                    t_event = t_event.min(d.max(now));
                }
            }
            let step_to = seg_end.min(t_event);
            let dt = (step_to - now).max(0.0);
            self.now = step_to;
            let mut any_finished = false;
            for ((f, &rate), &fin) in self.flows.iter_mut().zip(&self.rates).zip(&self.fins) {
                f.bytes_done = if fin <= step_to + EPS {
                    // Snap to exact completion: floating-point increments
                    // can otherwise fall below the ulp of `bytes_done`
                    // and stall the integration forever.
                    f.total
                } else {
                    (f.bytes_done + rate * dt).min(f.total)
                };
                // Draw loss fates for chunks the fluid model just
                // completed, in FlowId order (deterministic: single
                // integration thread, id-ordered flows).
                if let Some(model) = self.loss.as_mut() {
                    let done = f.chunks_done();
                    while f.fates.len() < done {
                        f.fates.push(model.chunk_fate(f.link, step_to));
                    }
                }
                any_finished |= f.finished(step_to);
            }
            if any_finished {
                // Settle the events at this instant, in FlowId order.
                let mut flows = std::mem::take(&mut self.flows);
                flows.retain(|f| {
                    if !f.finished(step_to) {
                        return true;
                    }
                    let outcome = if f.remaining() <= BYTE_TOL {
                        let chunks_done = f.prefix.len() - 1;
                        self.settle_chunks(f, chunks_done);
                        self.offered_bytes += f.total;
                        FlowOutcome::Completed
                    } else {
                        let chunks_done = f.chunks_done();
                        let bytes_done = f.prefix[chunks_done];
                        self.settle_chunks(f, chunks_done);
                        self.wasted_bytes += f.bytes_done - bytes_done as f64;
                        self.offered_bytes += f.bytes_done;
                        FlowOutcome::DeadlineReached {
                            chunks_done,
                            bytes_done,
                        }
                    };
                    events.push(FlowEvent {
                        id: f.id,
                        at: step_to,
                        outcome,
                    });
                    false
                });
                self.flows = flows;
                return events;
            }
        }
        self.now = self.now.max(t);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{GeParams, LossConfig};
    use crate::trace::next_breakpoint;
    use crate::ChannelProfile;
    use proptest::prelude::*;
    use rog_tensor::rng::DetRng;

    /// The map-based integrator that [`Channel::advance_until`]
    /// replaced, kept as its differential oracle: the old body over a
    /// `BTreeMap` of the flows, with per-step maps of rates and finish
    /// times and a chunk count that rescans from chunk 0.
    impl Channel {
        fn advance_until_reference(&mut self, t: Time) -> Vec<FlowEvent> {
            let mut flows: BTreeMap<FlowId, Flow> = std::mem::take(&mut self.flows)
                .into_iter()
                .map(|f| (f.id, f))
                .collect();
            let events = self.reference_steps(&mut flows, t);
            self.flows = flows.into_values().collect();
            events
        }

        fn reference_steps(
            &mut self,
            flows: &mut BTreeMap<FlowId, Flow>,
            t: Time,
        ) -> Vec<FlowEvent> {
            let mut events = Vec::new();
            let mut guard = 0u64;
            while self.now < t - EPS {
                guard += 1;
                assert!(
                    guard < 50_000_000,
                    "channel integration stuck at t={} (target {t}, {} flows)",
                    self.now,
                    flows.len()
                );
                if flows.is_empty() {
                    self.now = t;
                    return events;
                }
                // Segment of constant rates: bounded by trace breakpoints.
                let src = self.sources.get_mut();
                let mut seg_end = t.min(next_breakpoint(src.capacity.dt(), self.now));
                for f in flows.values() {
                    if let Some(link) = src.links.get(f.link) {
                        seg_end = seg_end.min(next_breakpoint(link.dt(), self.now));
                    }
                }
                // Constant per-flow rates in this segment.
                let n = flows.len() as f64;
                let cap = src.capacity.value_at(self.now);
                let now = self.now;
                let rates: BTreeMap<FlowId, f64> = match self.sharing {
                    SharingMode::AirtimeFair => flows
                        .iter()
                        .map(|(&id, f)| (id, cap * src.link_factor(f.link, now) / 8.0 / n))
                        .collect(),
                    SharingMode::ThroughputFair => {
                        // Rate anomaly: equal per-flow throughput set by the
                        // harmonic mean of the stations' PHY rates.
                        let inv_sum: f64 = flows
                            .values()
                            .map(|f| 1.0 / (cap * src.link_factor(f.link, now)).max(1e-3))
                            .sum();
                        let common = 1.0 / inv_sum / 8.0;
                        flows.keys().map(|&id| (id, common)).collect()
                    }
                };
                // Exact per-flow finish times, and the earliest event inside
                // the segment.
                let fins: BTreeMap<FlowId, Time> = flows
                    .iter()
                    .map(|(&id, f)| {
                        let rate = rates[&id];
                        let fin = if rate > 0.0 {
                            self.now + f.remaining().max(0.0) / rate
                        } else {
                            f64::INFINITY
                        };
                        (id, fin)
                    })
                    .collect();
                let mut t_event = f64::INFINITY;
                for (&id, f) in flows.iter() {
                    t_event = t_event.min(fins[&id]);
                    if let Some(d) = f.deadline {
                        t_event = t_event.min(d.max(self.now));
                    }
                }
                let step_to = seg_end.min(t_event);
                let dt = (step_to - self.now).max(0.0);
                for (id, f) in flows.iter_mut() {
                    if fins[id] <= step_to + EPS {
                        // Snap to exact completion: floating-point increments
                        // can otherwise fall below the ulp of `bytes_done`
                        // and stall the integration forever.
                        f.bytes_done = f.total;
                    } else {
                        f.bytes_done = (f.bytes_done + rates[id] * dt).min(f.total);
                    }
                }
                self.now = step_to;
                // Draw loss fates for chunks the fluid model just
                // completed, in FlowId order (deterministic: single
                // integration thread, ordered map).
                if let Some(model) = self.loss.as_mut() {
                    for f in flows.values_mut() {
                        let done = f.chunks_done_reference();
                        while f.fates.len() < done {
                            f.fates.push(model.chunk_fate(f.link, step_to));
                        }
                    }
                }
                // Collect events at this instant.
                let done_ids: Vec<FlowId> = flows
                    .iter()
                    .filter(|(_, f)| {
                        f.remaining() <= BYTE_TOL || f.deadline.is_some_and(|d| self.now >= d - EPS)
                    })
                    .map(|(&id, _)| id)
                    .collect();
                for id in done_ids {
                    let f = flows.remove(&id).expect("flow exists");
                    let outcome = if f.remaining() <= BYTE_TOL {
                        let chunks_done = f.prefix.len() - 1;
                        self.settle_chunks(&f, chunks_done);
                        self.offered_bytes += f.total;
                        FlowOutcome::Completed
                    } else {
                        let chunks_done = f.chunks_done_reference();
                        let bytes_done = f.prefix[chunks_done];
                        self.settle_chunks(&f, chunks_done);
                        self.wasted_bytes += f.bytes_done - bytes_done as f64;
                        self.offered_bytes += f.bytes_done;
                        FlowOutcome::DeadlineReached {
                            chunks_done,
                            bytes_done,
                        }
                    };
                    events.push(FlowEvent {
                        id,
                        at: self.now,
                        outcome,
                    });
                }
                if !events.is_empty() {
                    return events;
                }
            }
            self.now = self.now.max(t);
            events
        }
    }

    impl Flow {
        fn chunks_done_reference(&self) -> usize {
            let done = self.bytes_done + 0.25;
            self.prefix[1..]
                .iter()
                .take_while(|&&b| b as f64 <= done)
                .count()
        }
    }

    fn flat_channel(bps: f64, n_links: usize) -> Channel {
        Channel::new(
            Trace::constant(bps),
            (0..n_links).map(|_| Trace::constant(1.0)).collect(),
        )
    }

    #[test]
    fn single_flow_takes_bytes_over_bandwidth() {
        // 80 Mbit/s = 10 MB/s; 5 MB should take 0.5 s.
        let mut ch = flat_channel(80e6, 1);
        let id = ch.start_flow(0.0, FlowSpec::new(0, vec![5_000_000]));
        let evs = ch.advance_until(10.0);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].id, id);
        assert_eq!(evs[0].outcome, FlowOutcome::Completed);
        assert!((evs[0].at - 0.5).abs() < 1e-3, "at {}", evs[0].at);
    }

    #[test]
    fn two_flows_share_airtime() {
        let mut ch = flat_channel(80e6, 2);
        ch.start_flow(0.0, FlowSpec::new(0, vec![5_000_000]));
        ch.start_flow(0.0, FlowSpec::new(1, vec![5_000_000]));
        let evs = ch.advance_until(10.0);
        // Both halve the rate: each finishes at ~1.0 s, simultaneously.
        assert_eq!(evs.len(), 2);
        assert!((evs[0].at - 1.0).abs() < 1e-3, "at {}", evs[0].at);
    }

    #[test]
    fn remaining_flow_speeds_up_after_completion() {
        let mut ch = flat_channel(80e6, 2);
        ch.start_flow(0.0, FlowSpec::new(0, vec![2_500_000]));
        let big = ch.start_flow(0.0, FlowSpec::new(1, vec![7_500_000]));
        let evs = ch.advance_until(10.0);
        assert_eq!(evs.len(), 1);
        assert!(
            (evs[0].at - 0.5).abs() < 1e-3,
            "small done at {}",
            evs[0].at
        );
        let evs = ch.advance_until(10.0);
        assert_eq!(evs[0].id, big);
        // Big flow: 2.5MB done in first 0.5s (shared), 5MB left at full
        // 10MB/s → total 1.0s.
        assert!((evs[0].at - 1.0).abs() < 1e-3, "big done at {}", evs[0].at);
    }

    #[test]
    fn deadline_cuts_flow_and_discards_partial_chunk() {
        let mut ch = flat_channel(80e6, 1); // 10 MB/s
                                            // 10 chunks of 1 MB; deadline at 0.55 s → 5.5 MB transferred,
                                            // 5 complete chunks, half a chunk wasted.
        let id = ch.start_flow(
            0.0,
            FlowSpec::new(0, vec![1_000_000; 10]).with_deadline(0.55),
        );
        let evs = ch.advance_until(10.0);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].id, id);
        match evs[0].outcome {
            FlowOutcome::DeadlineReached {
                chunks_done,
                bytes_done,
            } => {
                assert_eq!(chunks_done, 5);
                assert_eq!(bytes_done, 5_000_000);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!((evs[0].at - 0.55).abs() < 1e-9);
        assert!(ch.wasted_bytes() > 400_000.0 && ch.wasted_bytes() < 600_000.0);
    }

    #[test]
    fn deadline_after_completion_is_moot() {
        let mut ch = flat_channel(80e6, 1);
        ch.start_flow(0.0, FlowSpec::new(0, vec![1_000_000]).with_deadline(5.0));
        let evs = ch.advance_until(10.0);
        assert_eq!(evs[0].outcome, FlowOutcome::Completed);
        assert!(evs[0].at < 0.2);
    }

    #[test]
    fn link_factor_scales_rate() {
        let mut ch = Channel::new(
            Trace::constant(80e6),
            vec![Trace::constant(0.5)], // device sees half capacity
        );
        ch.start_flow(0.0, FlowSpec::new(0, vec![5_000_000]));
        let evs = ch.advance_until(10.0);
        assert!((evs[0].at - 1.0).abs() < 1e-3);
    }

    #[test]
    fn varying_capacity_is_integrated_exactly() {
        // 0-1s: 80 Mb/s (10 MB/s), 1-2s: 8 Mb/s (1 MB/s), repeating.
        let cap = Trace::from_samples(1.0, vec![80e6, 8e6]);
        let mut ch = Channel::new(cap, vec![Trace::constant(1.0)]);
        // 11 MB: 10 MB in first second, 1 MB in the next → done at 2.0 s.
        ch.start_flow(0.0, FlowSpec::new(0, vec![11_000_000]));
        let evs = ch.advance_until(10.0);
        assert!((evs[0].at - 2.0).abs() < 1e-3, "at {}", evs[0].at);
    }

    #[test]
    fn empty_flow_completes_immediately() {
        let mut ch = flat_channel(80e6, 1);
        ch.start_flow(0.0, FlowSpec::new(0, vec![]));
        let evs = ch.advance_until(1.0);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].outcome, FlowOutcome::Completed);
        assert!(evs[0].at < 1e-6);
    }

    #[test]
    fn advance_with_no_flows_just_moves_time() {
        let mut ch = flat_channel(80e6, 1);
        assert!(ch.advance_until(3.0).is_empty());
        assert_eq!(ch.now(), 3.0);
    }

    #[test]
    fn events_do_not_pass_queue_horizon() {
        let mut ch = flat_channel(80e6, 1);
        ch.start_flow(0.0, FlowSpec::new(0, vec![5_000_000]));
        // Horizon at 0.2 s, completion would be at 0.5 s.
        let evs = ch.advance_until(0.2);
        assert!(evs.is_empty());
        assert_eq!(ch.now(), 0.2);
        let evs = ch.advance_until(1.0);
        assert!((evs[0].at - 0.5).abs() < 1e-3);
    }

    #[test]
    fn zero_deadline_flow_delivers_nothing() {
        let mut ch = flat_channel(80e6, 1);
        let id = ch.start_flow(0.0, FlowSpec::new(0, vec![1_000_000; 3]).with_deadline(0.0));
        let evs = ch.advance_until(1.0);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].id, id);
        assert_eq!(
            evs[0].outcome,
            FlowOutcome::DeadlineReached {
                chunks_done: 0,
                bytes_done: 0
            }
        );
    }

    #[test]
    fn rate_anomaly_drags_fast_stations_down() {
        // Two stations, one at 10% link quality. Airtime-fair: the fast
        // one finishes quickly. Throughput-fair (rate anomaly): both
        // move at the harmonic rate, so the fast one is dragged down.
        let cap = Trace::constant(80e6);
        let links = vec![Trace::constant(1.0), Trace::constant(0.1)];
        let mut fair = Channel::new(cap.clone(), links.clone());
        fair.start_flow(0.0, FlowSpec::new(0, vec![2_000_000]));
        fair.start_flow(0.0, FlowSpec::new(1, vec![2_000_000]));
        let fast_fair = fair.advance_until(100.0)[0].at;

        let mut anomaly = Channel::new(cap, links).with_sharing(SharingMode::ThroughputFair);
        anomaly.start_flow(0.0, FlowSpec::new(0, vec![2_000_000]));
        anomaly.start_flow(0.0, FlowSpec::new(1, vec![2_000_000]));
        let evs = anomaly.advance_until(100.0);
        // Under the anomaly both finish together, far later than the
        // fast station would alone.
        assert_eq!(evs.len(), 2);
        let fast_anomaly = evs[0].at;
        assert!(
            fast_anomaly > 3.0 * fast_fair,
            "anomaly should slow the fast station: {fast_fair} vs {fast_anomaly}"
        );
        // Harmonic rate check: 1/(1/10 + 1/1) MB/s = 0.909 MB/s →
        // 2 MB in ~2.2 s.
        assert!((fast_anomaly - 2.2).abs() < 0.1, "at {fast_anomaly}");
    }

    #[test]
    #[should_panic(expected = "starts in the past")]
    fn starting_in_the_past_panics() {
        let mut ch = flat_channel(80e6, 1);
        ch.advance_until(5.0);
        ch.start_flow(1.0, FlowSpec::new(0, vec![10]));
    }

    #[test]
    fn cancel_mid_transmission_wastes_all_transferred_bytes() {
        // 10 MB/s, two 1 MB chunks; cancel at 0.15 s → 1.5 MB on the
        // air, one chunk complete — but cancellation discards even that.
        let mut ch = flat_channel(80e6, 1);
        let id = ch.start_flow(0.0, FlowSpec::new(0, vec![1_000_000, 1_000_000]));
        assert!(ch.advance_until(0.15).is_empty());
        let ev = ch.cancel_flow(id).expect("in flight");
        assert_eq!(ev.id, id);
        assert_eq!(ev.at, 0.15);
        match ev.outcome {
            FlowOutcome::Cancelled { bytes_wasted } => {
                assert!(
                    (bytes_wasted as f64 - 1_500_000.0).abs() < 1_000.0,
                    "wasted {bytes_wasted}"
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(ch.useful_bytes(), 0.0, "nothing was acknowledged");
        assert!((ch.wasted_bytes() - 1_500_000.0).abs() < 1_000.0);
        assert_eq!(ch.active_flows(), 0);
        // A later advance produces no stale event for the cancelled flow.
        assert!(ch.advance_until(10.0).is_empty());
    }

    #[test]
    fn cancel_frees_airtime_for_survivors() {
        let mut ch = flat_channel(80e6, 2); // 10 MB/s total
        let doomed = ch.start_flow(0.0, FlowSpec::new(0, vec![5_000_000]));
        ch.start_flow(0.0, FlowSpec::new(1, vec![5_000_000]));
        assert!(ch.advance_until(0.5).is_empty()); // each at 2.5 MB
        ch.cancel_flow(doomed).expect("in flight");
        let evs = ch.advance_until(10.0);
        // Survivor: 2.5 MB left at full 10 MB/s → done at 0.75 s.
        assert_eq!(evs.len(), 1);
        assert!((evs[0].at - 0.75).abs() < 1e-3, "at {}", evs[0].at);
        assert_eq!(evs[0].outcome, FlowOutcome::Completed);
        // Accounting splits: survivor useful, cancelled wasted.
        assert!((ch.useful_bytes() - 5_000_000.0).abs() < 1.0);
        assert!((ch.wasted_bytes() - 2_500_000.0).abs() < 1_000.0);
    }

    #[test]
    fn cancel_unknown_or_finished_flow_is_a_no_op() {
        let mut ch = flat_channel(80e6, 1);
        let id = ch.start_flow(0.0, FlowSpec::new(0, vec![1_000]));
        let evs = ch.advance_until(1.0);
        assert_eq!(evs[0].outcome, FlowOutcome::Completed);
        assert_eq!(ch.cancel_flow(id), None, "already completed");
        let (useful, wasted) = (ch.useful_bytes(), ch.wasted_bytes());
        assert_eq!(ch.cancel_flow(id), None, "double cancel");
        assert_eq!(ch.useful_bytes(), useful);
        assert_eq!(ch.wasted_bytes(), wasted);
    }

    #[test]
    fn cancel_before_any_progress_wastes_nothing() {
        let mut ch = flat_channel(80e6, 1);
        let id = ch.start_flow(0.0, FlowSpec::new(0, vec![1_000_000]));
        let ev = ch.cancel_flow(id).expect("in flight");
        assert_eq!(ev.outcome, FlowOutcome::Cancelled { bytes_wasted: 0 });
        assert_eq!(ch.wasted_bytes(), 0.0);
    }

    #[test]
    fn off_loss_model_is_byte_identical_to_no_model() {
        use crate::loss::{LossConfig, LossModel};
        let run = |with_model: bool| {
            let mut ch = flat_channel(80e6, 2);
            if with_model {
                ch.set_loss_model(Some(LossModel::build(&LossConfig::off(), 2, 100.0)));
            }
            ch.start_flow(0.0, FlowSpec::new(0, vec![1_000_000; 5]));
            ch.start_flow(0.0, FlowSpec::new(1, vec![700_000; 3]).with_deadline(0.33));
            let mut evs = Vec::new();
            loop {
                let batch = ch.advance_until(100.0);
                if batch.is_empty() {
                    break;
                }
                evs.extend(batch);
            }
            (evs, ch.useful_bytes(), ch.wasted_bytes())
        };
        let (evs_a, useful_a, wasted_a) = run(false);
        let (evs_b, useful_b, wasted_b) = run(true);
        assert_eq!(evs_a, evs_b);
        assert_eq!(useful_a.to_bits(), useful_b.to_bits());
        assert_eq!(wasted_a.to_bits(), wasted_b.to_bits());
    }

    #[test]
    fn lossy_flow_reports_fates_and_accounts_bytes() {
        use crate::loss::{ChunkFate, LossConfig, LossModel};
        let mut ch =
            flat_channel(80e6, 1).with_loss(LossModel::build(&LossConfig::iid(42, 0.4), 1, 100.0));
        assert!(ch.loss_enabled());
        let id = ch.start_flow(0.0, FlowSpec::new(0, vec![100_000; 50]));
        let evs = ch.advance_until(100.0);
        assert_eq!(evs.len(), 1);
        // The fluid completion is unchanged: loss costs airtime on the
        // receiver side (drops), not transmission time.
        assert_eq!(evs[0].outcome, FlowOutcome::Completed);
        let rep = ch.take_report(id).expect("report for finished flow");
        assert_eq!(rep.fates.len(), 50);
        assert_eq!(rep.link, 0);
        let lost = rep.fates.iter().filter(|f| **f == ChunkFate::Lost).count();
        assert!(lost > 5, "expect some losses at 40%: {lost}");
        assert!(rep.bad_chunks() > 0);
        assert_eq!(rep.lost_bytes, lost as u64 * 100_000);
        assert_eq!(ch.lost_bytes(), rep.lost_bytes as f64);
        assert_eq!(
            ch.useful_bytes() + ch.lost_bytes() + ch.corrupt_bytes(),
            5_000_000.0
        );
        assert!(ch.byte_conservation_error() < 1.0);
        // Taking twice yields nothing.
        assert!(ch.take_report(id).is_none());
        // EWMA estimator saw the round.
        let est = ch.estimated_loss_rate(0);
        assert!((est - lost as f64 / 50.0).abs() < 1e-12);
        assert!(ch.estimated_goodput_rate(0) < ch.estimated_rate(0));
        assert_eq!(ch.estimated_loss_rate(9), 0.0, "unobserved link clean");
    }

    #[test]
    fn deadline_cut_with_loss_conserves_bytes() {
        use crate::loss::{LossConfig, LossModel};
        let mut ch =
            flat_channel(80e6, 1).with_loss(LossModel::build(&LossConfig::iid(7, 0.3), 1, 100.0));
        // 10 MB/s, deadline at 0.55 s → ~5.5 MB offered.
        let id = ch.start_flow(
            0.0,
            FlowSpec::new(0, vec![1_000_000; 10]).with_deadline(0.55),
        );
        let evs = ch.advance_until(100.0);
        assert!(matches!(
            evs[0].outcome,
            FlowOutcome::DeadlineReached { chunks_done: 5, .. }
        ));
        let rep = ch.take_report(id).expect("report");
        assert_eq!(rep.fates.len(), 5, "only complete chunks get fates");
        assert!(ch.byte_conservation_error() < 1.0);
        assert!((ch.offered_bytes() - 5_500_000.0).abs() < 1_000.0);
    }

    #[test]
    fn cancelled_flow_produces_no_report_but_conserves_bytes() {
        use crate::loss::{LossConfig, LossModel};
        let mut ch =
            flat_channel(80e6, 1).with_loss(LossModel::build(&LossConfig::iid(3, 0.5), 1, 100.0));
        let id = ch.start_flow(0.0, FlowSpec::new(0, vec![1_000_000; 4]));
        assert!(ch.advance_until(0.15).is_empty());
        ch.cancel_flow(id).expect("in flight");
        assert!(ch.take_report(id).is_none());
        assert!(ch.byte_conservation_error() < 1.0);
        assert!((ch.offered_bytes() - 1_500_000.0).abs() < 1_000.0);
    }

    #[test]
    fn lossy_runs_are_deterministic() {
        use crate::loss::{LossConfig, LossModel};
        let cfg = LossConfig {
            seed: 11,
            iid_loss: 0.15,
            corrupt: 0.05,
            duplicate: 0.05,
            reorder: 0.05,
            ge: Some(crate::loss::GeParams::bursty(0.1)),
        };
        let run = || {
            let mut ch = flat_channel(80e6, 2).with_loss(LossModel::build(&cfg, 2, 100.0));
            let a = ch.start_flow(0.0, FlowSpec::new(0, vec![200_000; 20]));
            let b = ch.start_flow(0.0, FlowSpec::new(1, vec![300_000; 10]));
            while !ch.advance_until(100.0).is_empty() {}
            (
                ch.take_report(a),
                ch.take_report(b),
                ch.useful_bytes().to_bits(),
                ch.lost_bytes().to_bits(),
                ch.corrupt_bytes().to_bits(),
                ch.duplicated_bytes().to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn estimated_rate_on_untouched_links_is_model_based() {
        // Three links; none has ever carried a flow.
        let mut ch = Channel::new(
            Trace::constant(80e6), // 10 MB/s
            vec![
                Trace::constant(1.0),
                Trace::constant(0.0), // blacked-out link
                Trace::constant(0.5),
            ],
        );
        // Idle channel: sole prospective flow gets the full share.
        assert!((ch.estimated_rate(0) - 10e6).abs() < 1.0);
        // Zero fade factor → zero rate, not NaN/∞.
        assert_eq!(ch.estimated_rate(1), 0.0);
        assert!(ch.estimated_rate(1).is_finite());
        // Out-of-range link index falls back to factor 1.0.
        assert!((ch.estimated_rate(99) - 10e6).abs() < 1.0);
        // An active flow halves the prospective share.
        ch.start_flow(0.0, FlowSpec::new(0, vec![50_000_000]));
        assert!((ch.estimated_rate(2) - 2.5e6).abs() < 1.0);
        assert_eq!(ch.estimated_rate(1), 0.0);
    }

    /// Every observable of a channel, floats as bit patterns.
    fn observables(ch: &Channel) -> (u64, usize, [u64; 6]) {
        (
            ch.now().to_bits(),
            ch.active_flows(),
            [
                ch.useful_bytes(),
                ch.wasted_bytes(),
                ch.lost_bytes(),
                ch.corrupt_bytes(),
                ch.duplicated_bytes(),
                ch.offered_bytes(),
            ]
            .map(f64::to_bits),
        )
    }

    proptest! {
        /// Differential test of the integrator: the same random
        /// start / cancel / advance schedule drives `advance_until` and
        /// the map-based reference, and everything either can report
        /// must agree bit for bit after every call.
        #[test]
        fn advance_until_matches_the_map_based_reference(
            seed in 0u64..u64::MAX,
            n_links in 1usize..=64,
            lossy in proptest::bool::ANY,
            throughput_fair in proptest::bool::ANY,
        ) {
            let mut rng = DetRng::new(seed);
            let grid = [0.05, 0.1, 0.3, 1.0];
            let cap_dt = grid[rng.index(grid.len())];
            let capacity = Trace::from_samples(
                cap_dt,
                (0..1 + rng.index(8)).map(|_| rng.uniform_range(4e6, 80e6)).collect(),
            );
            let links: Vec<Trace> = (0..n_links)
                .map(|l| {
                    let mut samples: Vec<f64> =
                        (0..1 + rng.index(6)).map(|_| rng.uniform()).collect();
                    // Link 0 always fades to zero somewhere; others sometimes.
                    if l == 0 || rng.chance(0.1) {
                        let k = rng.index(samples.len());
                        samples[k] = 0.0;
                    }
                    // Half the links on the capacity's grid, the rest
                    // on any grid.
                    let dt = if rng.chance(0.5) { cap_dt } else { grid[rng.index(grid.len())] };
                    Trace::from_samples(dt, samples)
                })
                .collect();
            let mut new = Channel::new(capacity, links).with_sharing(if throughput_fair {
                SharingMode::ThroughputFair
            } else {
                SharingMode::AirtimeFair
            });
            if lossy {
                let cfg = LossConfig {
                    seed,
                    iid_loss: 0.15,
                    corrupt: 0.05,
                    duplicate: 0.05,
                    reorder: 0.05,
                    ge: Some(GeParams::bursty(0.1)),
                };
                new.set_loss_model(Some(LossModel::build(&cfg, n_links, 30.0)));
            }
            let mut old = new.clone();
            same_schedule(&mut rng, &mut new, &mut old, n_links, Channel::advance_until_reference)?;
        }

        /// Generated sources against the eager traces they stand for:
        /// one random schedule drives a channel over streams (a few
        /// links replayed, as a mixed store can be) and one over
        /// `generate` / `generate_link` traces of the same seeds. The
        /// periods are short, so every source wraps several times.
        #[test]
        fn generated_sources_match_eager_traces(
            seed in 0u64..u64::MAX,
            n_links in 1usize..=16,
            lossy in proptest::bool::ANY,
        ) {
            let mut rng = DetRng::new(seed);
            let p = &[
                ChannelProfile::indoor(),
                ChannelProfile::outdoor(),
                ChannelProfile::stable(60e6),
            ][rng.index(3)];
            let period = [0.05, 0.7, 2.0][rng.index(3)];
            let seeds: Vec<u64> = (0..=n_links).map(|_| rng.next_u64()).collect();
            let mut lazy = Channel::from_sources(
                TraceSource::Generated(p.capacity_stream(seeds[0], period)),
                seeds[1..]
                    .iter()
                    .map(|&s| if rng.chance(0.2) {
                        TraceSource::Replayed(p.generate_link(s, period))
                    } else {
                        TraceSource::Generated(p.link_stream(s, period))
                    })
                    .collect(),
            );
            let mut eager = Channel::new(
                p.generate(seeds[0], period),
                seeds[1..].iter().map(|&s| p.generate_link(s, period)).collect(),
            );
            if lossy {
                let cfg = LossConfig {
                    ge: Some(GeParams::bursty(0.1)),
                    ..LossConfig::iid(seed, 0.1)
                };
                lazy.set_loss_model(Some(LossModel::build(&cfg, n_links, 30.0)));
                eager.set_loss_model(Some(LossModel::build(&cfg, n_links, 30.0)));
            }
            same_schedule(&mut rng, &mut lazy, &mut eager, n_links, Channel::advance_until)?;
            // Then well past three periods, draining every event.
            let end = lazy.now() + 3.0 * period + 0.1;
            while lazy.now() < end {
                let got = lazy.advance_until(end);
                prop_assert_eq!(&got, &eager.advance_until(end));
                for e in &got {
                    prop_assert_eq!(lazy.take_report(e.id), eager.take_report(e.id));
                }
                prop_assert_eq!(estimates(&lazy, n_links), estimates(&eager, n_links));
            }
            prop_assert_eq!(observables(&lazy), observables(&eager));
        }
    }

    /// Every link's (and one past the last's) rate estimates, as bits.
    fn estimates(ch: &Channel, n_links: usize) -> Vec<[u64; 2]> {
        (0..=n_links)
            .map(|l| {
                [
                    ch.estimated_rate(l).to_bits(),
                    ch.link_rate_bps(l).to_bits(),
                ]
            })
            .collect()
    }

    /// Drives `a` with `advance_until` and `b` with `advance_b` through
    /// one random start / cancel / advance schedule; everything either
    /// can report, rate estimates included, must agree bit for bit
    /// after every call. Besides random times, the schedule advances to
    /// a hair before a cell edge of the capacity's or a link's grid
    /// (where `next_breakpoint`'s guard skips a breakpoint while the
    /// sample is still the cell's), starts a flow on a live flow's link
    /// after such an advance (a cell later whenever it crosses an edge),
    /// and cancels a flow mid-cell.
    fn same_schedule(
        rng: &mut DetRng,
        a: &mut Channel,
        b: &mut Channel,
        n_links: usize,
        advance_b: fn(&mut Channel, Time) -> Vec<FlowEvent>,
    ) -> Result<(), TestCaseError> {
        let mut ids: Vec<FlowId> = Vec::new();
        for _ in 0..60 {
            match rng.index(7) {
                0 | 1 => {
                    // One link index past the traces: factor 1.0.
                    let link = rng.index(n_links + 1);
                    start_both(rng, a, b, link, &mut ids)?;
                }
                2 if !ids.is_empty() => {
                    // Live and long-finished ids alike.
                    let id = ids[rng.index(ids.len())];
                    prop_assert_eq!(a.cancel_flow(id), b.cancel_flow(id));
                }
                3 => {
                    let link = rng.index(n_links + 1);
                    let t = cell_edge(rng, a, link);
                    advance_both(a, b, advance_b, t)?;
                }
                4 if !a.flows.is_empty() => {
                    let link = a.flows[rng.index(a.flows.len())].link;
                    let t = cell_edge(rng, a, link);
                    advance_both(a, b, advance_b, t)?;
                    start_both(rng, a, b, link, &mut ids)?;
                }
                5 if !a.flows.is_empty() => {
                    let live = a.flows[rng.index(a.flows.len())].id;
                    let dt = grid_of(a, rng.index(n_links + 1));
                    let t = (trace::cell(dt, a.now()) as f64 + 1.5) * dt;
                    advance_both(a, b, advance_b, t)?;
                    prop_assert_eq!(a.cancel_flow(live), b.cancel_flow(live));
                }
                _ => {
                    let t = a.now() + rng.uniform_range(0.0, 0.3);
                    advance_both(a, b, advance_b, t)?;
                }
            }
            prop_assert_eq!(observables(a), observables(b));
            prop_assert_eq!(estimates(a, n_links), estimates(b, n_links));
        }
        Ok(())
    }

    /// Starts the same random flow on `link` in both channels.
    fn start_both(
        rng: &mut DetRng,
        a: &mut Channel,
        b: &mut Channel,
        link: LinkId,
        ids: &mut Vec<FlowId>,
    ) -> Result<(), TestCaseError> {
        let chunks: Vec<u64> = (0..rng.index(12))
            .map(|_| rng.index(40_000) as u64)
            .collect();
        let mut spec = FlowSpec::new(link, chunks);
        if rng.chance(0.5) {
            spec = spec.with_deadline(a.now() + rng.uniform_range(0.0, 0.5));
        }
        let id = a.start_flow(a.now(), spec.clone());
        prop_assert_eq!(b.start_flow(b.now(), spec), id);
        ids.push(id);
        Ok(())
    }

    /// Advances both channels to `t`; the events and their reports must
    /// agree bit for bit.
    fn advance_both(
        a: &mut Channel,
        b: &mut Channel,
        advance_b: fn(&mut Channel, Time) -> Vec<FlowEvent>,
        t: Time,
    ) -> Result<(), TestCaseError> {
        let got = a.advance_until(t);
        let want = advance_b(b, t);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(
                (g.id, g.at.to_bits(), g.outcome),
                (w.id, w.at.to_bits(), w.outcome)
            );
            prop_assert_eq!(a.take_report(g.id), b.take_report(w.id));
        }
        Ok(())
    }

    /// The grid step of `link`'s source, or the capacity's for a link
    /// with none.
    fn grid_of(ch: &Channel, link: LinkId) -> Time {
        let src = ch.sources.borrow();
        src.links.get(link).unwrap_or(&src.capacity).dt()
    }

    /// `k·dt − δ` on `link`'s grid (see [`grid_of`]) for one of the next
    /// two edges `k` and `δ ∈ {0, 5e-13, 2e-12, 1e-9}`: exactly on an
    /// edge, inside and just outside `next_breakpoint`'s 1e-12 guard,
    /// and just before `advance_until`'s 1e-9 tolerance.
    fn cell_edge(rng: &mut DetRng, ch: &Channel, link: LinkId) -> Time {
        let dt = grid_of(ch, link);
        let k = trace::cell(dt, ch.now()) + 1 + rng.index(2);
        k as f64 * dt - [0.0, 5e-13, 2e-12, 1e-9][rng.index(4)]
    }

    #[test]
    fn a_flow_reads_its_link_once_per_grid_cell() {
        // A 1/8 s grid and 1/64 s steps, so every edge is exact: eight
        // steps per cell. Each flow is far too large to finish.
        let dt = 0.125;
        let samples = |l: usize| (0..10).map(|k| 0.5 + ((l + k) % 5) as f64 * 0.1).collect();
        let mut ch = Channel::new(
            Trace::from_samples(dt, vec![8e6; 10]),
            (0..64)
                .map(|l| Trace::from_samples(dt, samples(l)))
                .collect(),
        );
        let spec = |l: usize| FlowSpec::new(l, vec![1 << 40]);
        for l in 0..32 {
            ch.start_flow(0.0, spec(l));
        }
        for k in 1..=40 {
            assert!(ch.advance_until(k as f64 / 64.0).is_empty());
        }
        // Half-way, in cell 5: 32 more flows, on links of their own.
        for l in 32..64 {
            ch.start_flow(ch.now(), spec(l));
        }
        for k in 41..=80 {
            assert!(ch.advance_until(k as f64 / 64.0).is_empty());
        }
        // Cells 0..10 for the first half, 5..10 for the second; read
        // each step, it would be 32 · 80 + 32 · 40 (+ 64 starts).
        assert_eq!(ch.link_reads, 32 * 10 + 32 * 5);
        assert_eq!(ch.active_flows(), 64);
    }
}

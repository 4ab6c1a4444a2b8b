//! Live multi-process training over real sockets: the driver behind
//! `rogctl serve` / `rogctl join`.
//!
//! One process runs [`serve`] (the ROG parameter server), `N` processes
//! run [`join`] (one worker each). The cluster speaks the
//! [`rog_transport::proto`] control protocol over a
//! [`SocketTransport`]: gradient rows ride best-effort UDP datagrams
//! (CRC-checked, seq-deduped, loss absorbed by the RSP gate), while
//! membership, the RSP-mandatory prefix of each push, checkpoints and
//! the final-model handoff ride reliable TCP.
//!
//! # One row cycle
//!
//! Nothing about the cycle is decided here: `serve` hosts a
//! [`ServerRole`] and every `join` one [`WorkerRole`] — the decisions
//! the simulated row engine drives, in the same order. This module is
//! handshake, pacing, socket polling, (de)serialisation and telemetry.
//! A worker pushes its mandatory prefix reliably and the bulk
//! best-effort, then asks for the pull; the request waits *on the
//! server* until `min(V)` admits it. The wire has no acks, so each
//! push and pull leg is reported to its role's `Leg` as one round
//! without fates, which counts every row sent as landed (a dropped
//! best-effort row loses its gradient mass, where the sim keeps it),
//! and neither direction is paced to the MTA-time budget.
//!
//! # Virtual clock
//!
//! The sim engines run on a virtual clock; a live run maps it to wall
//! time through `speedup` (virtual seconds per wall second). Workers
//! pace each iteration by sleeping `compute_secs / speedup` wall
//! seconds, so a paper-scale `duration_secs = 3600` run finishes in an
//! hour at `speedup = 1` or a minute at `speedup = 60`. All protocol
//! timestamps are virtual (wall elapsed since `Start` × speedup).
//!
//! # Reconciliation
//!
//! Both sides keep the run record the sim engines keep (`RunRecord`).
//! A worker records its own transitions ([`TraceEv`]) and streams each
//! one its record took; the server records what arrives through the
//! same `relay`, which refuses a time the worker's timeline cannot take
//! (not finite, or before its open span) as a `wire_drop`. A worker's
//! `state` and `close` lines are therefore identical in both journals,
//! the server's `RunMetrics::composition` and its journal agree
//! bitwise, and both are comparable (within pacing tolerance) to a sim
//! run of the same config — see `tests/transport_reconciliation.rs`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

use rog_core::{
    mta::Mta, Gate, PushFloor, PushReport, RogWorkerConfig, Round, RowBatch, RowId, ServerRole,
    ShardMap, ShardedServer, WorkerRole,
};
use rog_obs::{obs, EventKind, Journal};
use rog_sim::DeviceState;
use rog_tensor::Matrix;
use rog_transport::proto::{chunk_rows, Msg, Row, TraceEv};
use rog_transport::{
    Delivery, FrameClass, SocketByteCounters, SocketTransport, Transport, TransportError,
    MAX_DATAGRAM_PAYLOAD,
};

use crate::cluster::{Cluster, WorkerDraws};
use crate::config::{ExperimentConfig, Strategy};
use crate::engine::common::relative_model_divergence;
use crate::metrics::{ByteAccount, RunRecord};
use crate::run::{FleetStats, RunOutcome};

/// How a live [`serve`] run is launched.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// TCP listen address for worker joins (e.g. `"127.0.0.1:7117"`).
    pub listen: String,
    /// Virtual seconds per wall second (both sides must agree; the
    /// server's value is authoritative and shipped in `Welcome`).
    pub speedup: f64,
    /// Wall-clock seconds to wait for all workers to join.
    pub join_timeout_secs: f64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:7117".to_owned(),
            speedup: 60.0,
            join_timeout_secs: 120.0,
        }
    }
}

/// How a live [`join`] run is launched.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinOptions {
    /// The server's TCP address.
    pub connect: String,
    /// Upper bound on rows pushed per iteration (split evenly over the
    /// shard legs), bounding datagram traffic. It cuts the best-effort
    /// tail only: each leg's `max(MTA, mandatory)` floor always goes.
    /// `usize::MAX` pushes the full plan.
    pub push_cap: usize,
}

impl Default for JoinOptions {
    fn default() -> Self {
        Self {
            connect: "127.0.0.1:7117".to_owned(),
            push_cap: 512,
        }
    }
}

/// Checks a config is runnable on the socket transport, returning a
/// clear error naming the first sim-only knob found.
///
/// Loss injection, fault plans and recorded channel traces live inside
/// the deterministic sim channel; carried over they would silently mean
/// nothing. The row cycle itself is shared with the sim (shards
/// included); the rest of what is rejected is what the *wire* cannot
/// carry yet — compressed rows, a threshold broadcast — and the sim
/// engine's own scheduling (aggregator tier, pipelining).
pub fn check_socket_compatible(cfg: &ExperimentConfig) -> Result<(), String> {
    const CHANNEL: &str = "it only exists inside the simulated channel, and the socket \
                           transport rides a real network that supplies its own loss";
    let strategy = format!("strategy {}", cfg.strategy.name());
    let codec = format!("--codec {}", cfg.codec.name());
    let rejected: [(bool, &str, &str); 10] = [
        (
            !matches!(cfg.strategy, Strategy::Rog { .. }),
            &strategy,
            "the socket path runs fixed-bound ROG — the baselines run in the model engine, \
             and the wire has no threshold broadcast for roga's moving bound",
        ),
        (
            cfg.codec != rog_compress::CodecChoice::OneBit,
            &codec,
            "the wire still frames dense f32 rows, so a codec would change no byte a socket carries",
        ),
        (
            cfg.n_aggregators > 0,
            "--aggregators",
            "workers connect to the server directly",
        ),
        (
            cfg.pipeline,
            "--pipeline",
            "a live worker computes and communicates in turn",
        ),
        (
            cfg.auto_threshold,
            "--auto-threshold",
            "the wire has no threshold broadcast: workers keep the bound from Welcome",
        ),
        (cfg.loss.is_some(), "--loss (packet-loss injection)", CHANNEL),
        (cfg.fault_plan.is_some(), "--fault-plan (fault injection)", CHANNEL),
        (cfg.fault_seed.is_some(), "--fault-seed (seeded churn)", CHANNEL),
        (cfg.capacity_trace.is_some(), "capacity trace replay", CHANNEL),
        (cfg.link_traces.is_some(), "link trace replay", CHANNEL),
    ];
    match rejected.iter().find(|r| r.0) {
        Some((_, what, why)) => Err(format!(
            "{what} is sim-only: {why} (drop it or run the sim backend)"
        )),
        None => Ok(()),
    }
}

/// Which class each control message travels under (a push's mandatory
/// prefix overrides this to reliable).
fn class_of(msg: &Msg) -> FrameClass {
    match msg {
        Msg::PushRows { .. }
        | Msg::PullReq { .. }
        | Msg::PullRows { .. }
        | Msg::PullDone { .. } => FrameClass::BestEffort,
        _ => FrameClass::Reliable,
    }
}

fn send_msg(
    t: &mut SocketTransport,
    peer: usize,
    iter: u64,
    msg: &Msg,
) -> Result<(), TransportError> {
    t.send(peer, class_of(msg), iter, &msg.encode())
}

/// Writes one reliable frame straight onto a handshake stream (before
/// the stream is handed to the transport).
fn write_handshake(stream: &mut TcpStream, msg: &Msg) -> Result<(), String> {
    let frame = rog_net::wire::encode_frame(
        &rog_net::wire::FrameHeader {
            seq: 0,
            class: FrameClass::Reliable,
            attempt: 1,
            iter: 0,
        },
        &msg.encode(),
    );
    let len = frame.len() as u32;
    stream
        .write_all(&len.to_le_bytes())
        .and_then(|()| stream.write_all(&frame))
        .map_err(|e| format!("handshake write failed: {e}"))
}

/// Reads one length-prefixed frame straight off a handshake stream.
fn read_handshake(stream: &mut TcpStream, timeout: Duration) -> Result<Msg, String> {
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    let mut len_buf = [0u8; 4];
    stream
        .read_exact(&mut len_buf)
        .map_err(|e| format!("handshake read failed: {e}"))?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > 1 << 20 {
        return Err(format!("handshake frame of {len} bytes is not plausible"));
    }
    let mut buf = vec![0u8; len];
    stream
        .read_exact(&mut buf)
        .map_err(|e| format!("handshake read failed: {e}"))?;
    let frame =
        rog_net::wire::decode_frame(&buf).map_err(|e| format!("bad handshake frame: {e}"))?;
    Msg::decode(&frame.payload).map_err(|e| format!("bad handshake message: {e}"))
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolves to nothing"))
}

/// Runs the join handshake on one accepted connection, returning the
/// worker's resolved UDP address and the stream on success.
///
/// A failure here condemns only this connection — the caller rejects
/// it and keeps listening. Port scanners, health checks, and workers
/// launched with mismatched flags must not abort the whole cluster.
fn admit_worker(
    stream: &mut TcpStream,
    peer_addr: SocketAddr,
    expect_name: &str,
    welcome: &Msg,
) -> Result<SocketAddr, String> {
    stream.set_nonblocking(false).map_err(|e| e.to_string())?;
    let msg = read_handshake(stream, Duration::from_secs(10))?;
    let Msg::Join { cfg_name, udp } = msg else {
        return Err(format!("{peer_addr} opened with {msg:?}, expected Join"));
    };
    if cfg_name != expect_name {
        // Best effort: tell the worker why before dropping it.
        let _ = write_handshake(stream, &Msg::Bye { worker: u32::MAX });
        return Err(format!(
            "config mismatch: server runs \"{expect_name}\", worker {peer_addr} runs \
             \"{cfg_name}\" — every process must be launched with identical flags"
        ));
    }
    let mut worker_udp = resolve(&udp)?;
    if worker_udp.ip().is_unspecified() {
        worker_udp.set_ip(peer_addr.ip());
    }
    write_handshake(stream, welcome)?;
    Ok(worker_udp)
}

/// A batch's rows as the wire carries them.
fn wire_rows(batch: &RowBatch) -> impl Iterator<Item = Row> + '_ {
    batch.iter().map(|(id, v)| (id.0 as u32, v.to_vec()))
}

impl From<SocketByteCounters> for ByteAccount {
    fn from(c: SocketByteCounters) -> Self {
        Self {
            useful: c.useful,
            wasted: c.wasted,
            lost: c.lost,
            corrupt: c.corrupt,
        }
    }
}

/// Records worker `w`'s protocol event `ev` at virtual time `t`: the one
/// `TraceEv` → [`RunRecord`] mapping, shared by the worker that emits the
/// event and the server that receives it. Returns whether the record
/// took it; a worker streams only what its own record took. A `t` the
/// worker's timeline cannot take (not finite, or before its open span)
/// is refused and journaled at `now` as a `wire_drop` of kind `"trace"`,
/// so a peer's telemetry cannot trip the timeline's monotonicity check.
fn relay(
    record: &mut RunRecord,
    journal: &mut Journal,
    w: usize,
    t: f64,
    ev: &TraceEv,
    now: f64,
) -> bool {
    if !record.admits(w, t) {
        let (w, kind) = (w as u32, "trace");
        obs!(journal, now, EventKind::WireDrop { w, kind });
        return false;
    }
    match *ev {
        TraceEv::State(s) => DeviceState::ALL
            .get(s as usize)
            .is_some_and(|&state| record.set_state(w, t, state, journal)),
        TraceEv::IterBegin(iter) => {
            record.iter_begin(w, iter, t, journal);
            true
        }
        TraceEv::IterEnd(iter) => {
            record.iter_end(w, iter, t, journal);
            true
        }
        TraceEv::Close => record.close(w, t, journal),
    }
}

/// Refuses a `Welcome` this worker cannot run under: another cluster
/// size, a slot outside it, or a clock it cannot pace by.
fn check_welcome(
    cfg: &ExperimentConfig,
    worker: u32,
    n_workers: u32,
    speedup: f64,
    duration: f64,
) -> Result<(), String> {
    if n_workers as usize != cfg.n_workers {
        return Err(format!(
            "server expects {n_workers} workers, local config says {} — launch both \
             sides with identical flags",
            cfg.n_workers
        ));
    }
    if worker >= n_workers {
        return Err(format!("server assigned worker {worker} of {n_workers}"));
    }
    if !(speedup.is_finite() && speedup > 0.0 && duration.is_finite() && duration > 0.0) {
        return Err(format!(
            "server sent speedup {speedup} and duration {duration}: both must be finite \
             and positive"
        ));
    }
    Ok(())
}

/// Per-worker bookkeeping on the server.
struct Member {
    final_params: Option<Vec<f32>>,
    said_bye: bool,
    /// Iteration of the push being received, when its first message
    /// arrived, and per shard the rows and payload bytes received.
    push_iter: u64,
    push_started: f64,
    received: Vec<(usize, u64)>,
    /// Iteration of the last pull request acted on, and per shard the
    /// iteration of the last pull served.
    pull_iter: u64,
    served: Vec<u64>,
}

impl Member {
    fn new(n_shards: usize) -> Self {
        Self {
            final_params: None,
            said_bye: false,
            push_iter: 0,
            push_started: 0.0,
            received: vec![(0, 0); n_shards],
            pull_iter: 0,
            served: vec![0; n_shards],
        }
    }

    /// Starts counting the push of a new iteration.
    fn open_push(&mut self, iter: u64, now: f64) {
        if iter > self.push_iter {
            self.push_iter = iter;
            self.push_started = now;
            self.received.fill((0, 0));
        }
    }
}

/// The server's socket-facing half: routes decoded messages into the
/// [`ServerRole`] and its verdicts back onto the wire.
struct Plane {
    role: ServerRole,
    transport: SocketTransport,
    journal: Journal,
    members: Vec<Member>,
    /// Row widths in global order: what a pushed row must look like.
    widths: Vec<usize>,
}

impl Plane {
    /// A batch of pushed rows arrived from `w`. The reliable batch is
    /// the cycle's `opener` and carries exactly the mandatory prefix.
    fn on_push_rows(&mut self, w: usize, iter: u64, rows: Vec<Row>, opener: bool, now: f64) {
        self.members[w].open_push(iter, now);
        let map = self.role.server().map();
        let mut legs = vec![RowBatch::default(); map.n_shards()];
        // A row that is not one of the model's is hostile or torn.
        for (id, v) in &rows {
            let id = RowId(*id as usize);
            if self.widths.get(id.0) == Some(&v.len()) {
                legs[map.shard_of(id)]
                    .push_row(id, v.len())
                    .copy_from_slice(v);
            }
        }
        let mut advanced = false;
        for (s, leg) in legs.iter_mut().enumerate() {
            let plane = self.role.server();
            let bytes: u64 = leg.ids().iter().map(|&id| plane.payload_bytes(id)).sum();
            if opener {
                let bound = self.role.bound(w);
                let floor = PushFloor::new(plane.map().shard_rows(s), leg.len(), bound);
                self.role
                    .push_start((w, s), iter, floor, leg.ids(), now, &mut self.journal);
            }
            if iter == self.members[w].push_iter {
                let got = &mut self.members[w].received[s];
                *got = (got.0 + leg.len(), got.1 + bytes);
            }
            advanced |= self.role.ingest((w, s), iter, leg);
        }
        if advanced {
            self.release(now);
        }
    }

    /// `w` ended its push of `iter` and asks for the pull. A repeat of
    /// the request being handled only re-sends the receipts it may have
    /// missed.
    fn on_pull_req(&mut self, w: usize, iter: u64, now: f64) {
        if iter <= self.members[w].pull_iter {
            for s in 0..self.members[w].served.len() {
                if self.members[w].served[s] == iter {
                    self.send_done(w, iter, s, 0);
                }
            }
            return;
        }
        let m = &mut self.members[w];
        m.pull_iter = iter;
        m.open_push(iter, now);
        let secs = (now - m.push_started).max(1e-6);
        for s in 0..m.served.len() {
            let (rows, bytes) = self.members[w].received[s];
            let sent = PushReport { rows, bytes, secs };
            self.role
                .push_end((w, s), iter, sent, now, &mut self.journal);
            if self.role.enter_gate((w, s), iter, now, &mut self.journal) == Gate::Granted {
                self.serve_pull(w, s, now);
            }
        }
    }

    /// Release scan (after `min(V)` advanced or a member left).
    fn release(&mut self, now: f64) {
        let mut scan = Vec::new();
        self.role.take_parked(&mut scan);
        for ((w, s), n) in scan {
            if self.role.retry((w, s), n, true) == Gate::Granted {
                self.serve_pull(w, s, now);
            }
        }
    }

    /// Sends `w` the granted pull of shard `s`.
    fn serve_pull(&mut self, w: usize, s: usize, now: f64) {
        let (leg, iter) = ((w, s), self.members[w].pull_iter);
        self.role.grant(leg, now, &mut self.journal);
        let bytes = self.role.pull_sizes(leg, Round::Speculative).sum();
        let all = self.role.pull_leg(leg).plan().len();
        let journal = &mut self.journal;
        self.role.pull_start(leg, bytes, now, journal);
        self.role.pull_round(leg, Round::Speculative, all, None);
        let mut fresh = RowBatch::default();
        self.role.settle_pull(leg, now, journal, &mut fresh);
        let sent = fresh.len() as u32;
        for rows in chunk_rows(wire_rows(&fresh).collect(), MAX_DATAGRAM_PAYLOAD) {
            let _ = send_msg(&mut self.transport, w, iter, &Msg::PullRows { rows });
        }
        self.send_done(w, iter, s, sent);
        self.members[w].served[s] = iter;
    }

    fn send_done(&mut self, w: usize, iter: u64, s: usize, sent: u32) {
        let shard = s as u32;
        let done = Msg::PullDone { iter, shard, sent };
        let _ = send_msg(&mut self.transport, w, iter, &done);
    }
}

/// Runs the live parameter server: accepts `cfg.n_workers` joins,
/// coordinates the run, and assembles the cluster-wide
/// [`RunOutcome`] from streamed worker telemetry.
///
/// Blocks until the run completes (roughly `duration_secs / speedup`
/// wall seconds after the last worker joins) or errors.
pub fn serve(cfg: &ExperimentConfig, opts: &ServeOptions) -> Result<RunOutcome, String> {
    check_socket_compatible(cfg)?;
    if !(opts.speedup.is_finite() && opts.speedup > 0.0) {
        return Err(format!("speedup must be positive, got {}", opts.speedup));
    }
    let Strategy::Rog { threshold } = cfg.strategy else {
        unreachable!("checked above");
    };
    let n = cfg.n_workers;
    let n_shards = cfg.effective_shards();
    let cluster = Cluster::build(cfg);
    let widths = cluster.init_model.row_widths();
    let role = ServerRole::new(
        ShardedServer::new(
            cluster.init_model.params(),
            n,
            threshold,
            cfg.importance(),
            ShardMap::contiguous(widths.len(), n_shards),
        ),
        None,
    );

    let listen_addr = resolve(&opts.listen)?;
    let listener = TcpListener::bind(listen_addr)
        .map_err(|e| format!("cannot listen on {listen_addr}: {e}"))?;
    let transport = SocketTransport::bind(SocketAddr::new(listen_addr.ip(), 0))
        .map_err(|e| format!("cannot bind UDP: {e}"))?;
    let server_udp = transport
        .local_udp_addr()
        .map_err(|e| e.to_string())?
        .to_string();

    let mut journal = Journal::new(cfg.trace);
    let mut record = RunRecord::open(cfg, &cluster, 0..n, &mut journal);

    // Membership: admit n workers, in accept order. The listener is
    // non-blocking so the join timeout is a hard deadline even when no
    // connection ever arrives. A connection that fails the handshake
    // (stray client, torn stream, mismatched config) is rejected and
    // its slot stays open; only the deadline aborts the run.
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let join_deadline = Instant::now() + Duration::from_secs_f64(opts.join_timeout_secs);
    let expect_name = cfg.name();
    let mut plane = Plane {
        role,
        transport,
        journal,
        members: Vec::with_capacity(n),
        widths,
    };
    while plane.members.len() < n {
        let w = plane.members.len();
        let (mut stream, peer_addr) = loop {
            match listener.accept() {
                Ok(conn) => break conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() > join_deadline {
                        return Err(format!("only {w} of {n} workers joined before the timeout"));
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
        };
        let welcome = Msg::Welcome {
            worker: w as u32,
            n_workers: n as u32,
            threshold,
            speedup: opts.speedup,
            duration: cfg.duration_secs,
            udp: server_udp.clone(),
        };
        let worker_udp = match admit_worker(&mut stream, peer_addr, &expect_name, &welcome) {
            Ok(addr) => addr,
            Err(reason) => {
                eprintln!("rejecting connection from {peer_addr}: {reason}");
                continue;
            }
        };
        if let Err(e) = plane
            .transport
            .register_peer(w, Some(worker_udp), Some(stream))
        {
            eprintln!("rejecting connection from {peer_addr}: {e}");
            continue;
        }
        obs!(plane.journal, 0.0, EventKind::PeerUp { w: w as u32 });
        plane.members.push(Member::new(n_shards));
    }

    for w in 0..n {
        send_msg(&mut plane.transport, w, 0, &Msg::Start).map_err(|e| e.to_string())?;
    }

    let mut stats = FleetStats::default();
    let epoch = Instant::now();
    let duration = cfg.duration_secs;
    let vnow = |epoch: Instant| (epoch.elapsed().as_secs_f64() * opts.speedup).min(duration);
    let mut done_sent = false;
    // After Done, wait at most this long for final models and byes.
    let mut grace_deadline: Option<Instant> = None;

    loop {
        let now = vnow(epoch);
        if !done_sent && now >= duration {
            for w in 0..n {
                let _ = send_msg(&mut plane.transport, w, 0, &Msg::Done);
            }
            done_sent = true;
            grace_deadline = Some(Instant::now() + Duration::from_secs(30));
        }
        if done_sent {
            let all_in = plane
                .members
                .iter()
                .all(|m| m.final_params.is_some() && m.said_bye);
            let expired = grace_deadline.is_some_and(|d| Instant::now() > d);
            if all_in || expired {
                break;
            }
        }

        let deliveries = plane.transport.poll(0.05).map_err(|e| e.to_string())?;
        for Delivery {
            from,
            class,
            payload,
            ..
        } in deliveries
        {
            stats.sim_events += 1;
            let msg = match Msg::decode(&payload) {
                Ok(m) => m,
                Err(_) => continue, // hostile or torn datagram: drop
            };
            match msg {
                Msg::PushRows { worker, iter, rows } if worker as usize == from => {
                    let opener = class == FrameClass::Reliable;
                    plane.on_push_rows(from, iter, rows, opener, vnow(epoch));
                }
                Msg::PullReq { worker, iter } if worker as usize == from => {
                    plane.on_pull_req(from, iter, vnow(epoch));
                }
                Msg::Checkpoint {
                    worker,
                    iter,
                    time,
                    metric,
                } if worker as usize == from => {
                    record.record_eval(iter, time, metric);
                }
                Msg::Trace { worker, t, ev } if worker as usize == from => {
                    relay(&mut record, &mut plane.journal, from, t, &ev, vnow(epoch));
                }
                Msg::FinalModel { worker, params, .. } if worker as usize == from => {
                    plane.members[from].final_params = Some(params);
                }
                Msg::Bye { worker } if worker as usize == from => {
                    let now = vnow(epoch);
                    plane.members[from].said_bye = true;
                    obs!(plane.journal, now, EventKind::PeerDown { w: worker });
                    // The departed worker's rows stop gating the rest.
                    plane.role.deactivate(from);
                    plane.release(now);
                }
                // Server-bound only; anything else is a protocol error
                // from a confused peer — ignore rather than crash the run.
                _ => {}
            }
        }
        for (peer, kind) in plane.transport.take_wire_drops() {
            obs!(
                plane.journal,
                vnow(epoch),
                EventKind::WireDrop {
                    w: peer as u32,
                    kind,
                }
            );
        }
    }

    let Plane {
        role,
        transport,
        mut journal,
        mut members,
        widths,
    } = plane;
    stats.peak_version_bytes = role.peak_version_bytes() as u64;
    stats.nonfinite_dropped = role.nonfinite_dropped();

    // A flat parameter vector is a one-matrix model; a peer's vector
    // of the wrong length is not a model of this run and is left out.
    let n_params = widths.iter().sum();
    let finals: Vec<[Matrix; 1]> = members
        .iter_mut()
        .filter_map(|m| Some([Matrix::from_vec(1, n_params, m.final_params.take()?).ok()?]))
        .collect();
    let divergence = relative_model_divergence(&finals);
    let bytes = transport.byte_counters().into();
    // A timeline a worker never closed itself (crash, timeout) closes
    // at the budget.
    let metrics = record.finish(duration, bytes, divergence, &mut journal);
    Ok(RunOutcome {
        metrics,
        journal: cfg.trace.then_some(journal),
        stats,
    })
}

/// Worker-side state for one live run.
struct LiveWorker {
    w: usize,
    transport: SocketTransport,
    pending: Vec<Msg>,
    speedup: f64,
    duration: f64,
    epoch: Instant,
    done: bool,
    record: RunRecord,
    journal: Journal,
}

impl LiveWorker {
    fn now(&self) -> f64 {
        (self.epoch.elapsed().as_secs_f64() * self.speedup).min(self.duration)
    }

    fn send(&mut self, msg: &Msg, iter: u64) {
        let _ = send_msg(&mut self.transport, 0, iter, msg);
    }

    /// Records `ev` now and streams it, with that same `t`, to the server
    /// when the record took it.
    fn emit(&mut self, ev: TraceEv) {
        let (worker, t) = (self.w as u32, self.now());
        if relay(&mut self.record, &mut self.journal, self.w, t, &ev, t) {
            self.send(&Msg::Trace { worker, t, ev }, 0);
        }
    }

    /// Polls briefly, stashing messages and latching `Done`.
    fn pump(&mut self, budget: f64) {
        if let Ok(batch) = self.transport.poll(budget) {
            for d in batch {
                if let Ok(m) = Msg::decode(&d.payload) {
                    if matches!(m, Msg::Done) {
                        self.done = true;
                    } else {
                        self.pending.push(m);
                    }
                }
            }
        }
    }

    /// Marks the device state locally and streams it to the server.
    fn set_state(&mut self, state: DeviceState) {
        let idx = DeviceState::ALL
            .iter()
            .position(|&s| s == state)
            .expect("state in ALL") as u8;
        self.emit(TraceEv::State(idx));
    }
}

/// Runs one live worker: joins the server at `opts.connect`, trains
/// the configured workload for real (gradients, pushes, pulls), and
/// returns this worker's own [`RunOutcome`] perspective.
///
/// The worker index is assigned by the server at join time.
pub fn join(cfg: &ExperimentConfig, opts: &JoinOptions) -> Result<RunOutcome, String> {
    check_socket_compatible(cfg)?;
    let server_addr = resolve(&opts.connect)?;
    // Workers routinely launch before the server has bound its port, so
    // connection-refused is retried for a few seconds rather than fatal.
    let connect_deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match TcpStream::connect(server_addr) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() > connect_deadline {
                    return Err(format!("cannot connect to {server_addr}: {e}"));
                }
                thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let mut transport = SocketTransport::bind(SocketAddr::new(
        stream.local_addr().map_err(|e| e.to_string())?.ip(),
        0,
    ))
    .map_err(|e| format!("cannot bind UDP: {e}"))?;
    let udp = transport
        .local_udp_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    write_handshake(
        &mut stream,
        &Msg::Join {
            cfg_name: cfg.name(),
            udp,
        },
    )?;
    let welcome = read_handshake(&mut stream, Duration::from_secs(120))?;
    let Msg::Welcome {
        worker,
        n_workers,
        threshold,
        speedup,
        duration,
        udp: server_udp,
    } = welcome
    else {
        return Err(format!("server replied {welcome:?}, expected Welcome"));
    };
    check_welcome(cfg, worker, n_workers, speedup, duration)?;
    let w = worker as usize;
    let mut server_udp = resolve(&server_udp)?;
    if server_udp.ip().is_unspecified() {
        server_udp.set_ip(server_addr.ip());
    }
    transport
        .register_peer(0, Some(server_udp), Some(stream))
        .map_err(|e| e.to_string())?;

    // Local replica: same deterministic cluster build as the server.
    let cluster = Cluster::build(cfg);
    let mut model = cluster.init_model.clone();
    let mut wcfg = RogWorkerConfig::new(threshold, cluster.lr);
    let bound = Mta::new(threshold);
    wcfg.importance = cfg.importance();
    let n_shards = cfg.effective_shards();
    let map = ShardMap::contiguous(model.row_widths().len(), n_shards);
    let mut role = WorkerRole::new(model.params(), wcfg, n_shards);
    let leg_cap = opts.push_cap.div_ceil(n_shards);
    let mut sent = RowBatch::default();
    let mut draws = WorkerDraws::new(cfg, &cluster, w);
    let mut grads = model.zero_grads();

    let mut journal = Journal::new(cfg.trace);
    let record = RunRecord::open(cfg, &cluster, w..w + 1, &mut journal);

    // Wait for Start.
    let mut lw = LiveWorker {
        w,
        transport,
        pending: Vec::new(),
        speedup,
        duration,
        epoch: Instant::now(),
        done: false,
        record,
        journal,
    };
    let start_deadline = Instant::now() + Duration::from_secs(180);
    'wait: loop {
        if Instant::now() > start_deadline {
            return Err("server never sent Start".into());
        }
        if let Ok(batch) = lw.transport.poll(0.1) {
            for d in batch {
                if matches!(Msg::decode(&d.payload), Ok(Msg::Start)) {
                    break 'wait;
                }
            }
        }
    }
    lw.epoch = Instant::now();

    let mut iter: u64 = 0;

    while !lw.done && lw.now() < lw.duration {
        iter += 1;

        // Compute: real gradients, paced to the virtual clock.
        lw.set_state(DeviceState::Compute);
        lw.emit(TraceEv::IterBegin(iter));
        let compute_start = Instant::now();
        let shard = &cluster.workload.shards()[w];
        let idxs = draws.next_batch(shard);
        crate::compute::run_job_into(&model, shard, idxs, &mut grads);
        let compute_secs = draws.compute_secs();
        // The paced budget covers the real gradient computation too:
        // sleep only the remainder, so the virtual compute span equals
        // `compute_secs` whether the real math was fast or slow.
        let sleep_end = compute_start + Duration::from_secs_f64(compute_secs / speedup);
        while Instant::now() < sleep_end {
            lw.pump(0.01);
        }

        // Push: each shard leg's ranked rows up to its admitted count;
        // the mandatory prefixes go first and reliably, the bulk as
        // best-effort datagrams.
        lw.set_state(DeviceState::Communicate);
        role.accumulate(&grads);
        role.plan(iter, &map, bound);
        let (mut mandatory, mut bulk) = (Vec::new(), Vec::new());
        for s in 0..n_shards {
            let floor = role.floor(s);
            role.push_round(s, Round::Speculative, floor.admit(Some(leg_cap)), None);
            role.commit_push(s, iter, &mut sent);
            let mut rows = wire_rows(&sent);
            mandatory.extend(rows.by_ref().take(floor.mandatory));
            bulk.extend(rows);
        }
        let worker = w as u32;
        let opener = Msg::PushRows {
            worker,
            iter,
            rows: mandatory,
        };
        let _ = lw
            .transport
            .send(0, FrameClass::Reliable, iter, &opener.encode());
        for rows in chunk_rows(bulk, MAX_DATAGRAM_PAYLOAD) {
            lw.send(&Msg::PushRows { worker, iter, rows }, iter);
        }

        // Pull: the request rides behind the rows and waits on the
        // server until every shard's gate admits it. Request and
        // receipts are datagrams, so an unanswered request is repeated.
        let mut asked: Option<Instant> = None;
        let mut cycle_done = false;
        while !cycle_done && !lw.done && lw.now() < lw.duration {
            if asked.is_none_or(|t| t.elapsed() > Duration::from_millis(250)) {
                lw.send(&Msg::PullReq { worker, iter }, iter);
                asked = Some(Instant::now());
            }
            lw.pump(0.05);
            let mut heard = false;
            for m in std::mem::take(&mut lw.pending) {
                match m {
                    Msg::PullRows { rows } => {
                        heard = true;
                        let rows = rows.iter().map(|(id, v)| (RowId(*id as usize), v));
                        role.apply(model.params_mut(), &rows.collect());
                    }
                    Msg::PullDone { iter: i, shard, .. }
                        if i == iter && (shard as usize) < n_shards =>
                    {
                        heard = true;
                        cycle_done |= role.finish_leg(shard as usize);
                    }
                    _ => {}
                }
            }
            // A poll round without an answer: parked at a gate.
            lw.set_state(if heard {
                DeviceState::Communicate
            } else {
                DeviceState::Stall
            });
        }
        if !cycle_done {
            iter -= 1;
            break;
        }

        lw.emit(TraceEv::IterEnd(iter));
        if draws.evaluates_at(iter) {
            let metric = cluster.workload.test_metric(&model);
            let t = lw.now();
            lw.record.record_eval(iter, t, metric);
            lw.send(
                &Msg::Checkpoint {
                    worker: w as u32,
                    iter,
                    time: t,
                    metric,
                },
                iter,
            );
        }
        lw.pump(0.0);
    }

    // Finish: close the timeline, hand the final model over, leave.
    lw.emit(TraceEv::Close);
    let flat: Vec<f32> = model
        .params()
        .iter()
        .flat_map(|m| m.as_slice().iter().copied())
        .collect();
    lw.send(
        &Msg::FinalModel {
            worker: w as u32,
            iters: iter,
            params: flat,
        },
        iter,
    );
    lw.send(&Msg::Bye { worker: w as u32 }, iter);
    // Let the reliable sends flush before dropping the stream.
    lw.pump(0.2);

    let bytes = lw.transport.byte_counters().into();
    let metrics = lw.record.finish(lw.duration, bytes, 0.0, &mut lw.journal);
    Ok(RunOutcome {
        metrics,
        journal: cfg.trace.then_some(lw.journal),
        stats: FleetStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Environment, ModelScale};
    use rog_fault::FaultPlan;
    use rog_net::LossConfig;

    fn rog_cfg() -> ExperimentConfig {
        ExperimentConfig {
            strategy: Strategy::Rog { threshold: 4 },
            model_scale: ModelScale::Small,
            environment: Environment::Stable,
            n_workers: 2,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn socket_compat_accepts_plain_and_sharded_rog() {
        assert_eq!(check_socket_compatible(&rog_cfg()), Ok(()));
        let sharded = ExperimentConfig {
            n_shards: 2,
            ..rog_cfg()
        };
        assert_eq!(check_socket_compatible(&sharded), Ok(()));
    }

    #[test]
    fn socket_compat_names_what_it_rejects_and_why() {
        let base = rog_cfg;
        let cases: [(ExperimentConfig, &[&str]); 8] = [
            (
                ExperimentConfig {
                    loss: Some(LossConfig::iid(1, 0.1)),
                    ..base()
                },
                &["--loss", "real network"],
            ),
            (
                ExperimentConfig {
                    fault_plan: Some(FaultPlan::default()),
                    ..base()
                },
                &["--fault-plan"],
            ),
            (
                ExperimentConfig {
                    fault_seed: Some(7),
                    ..base()
                },
                &["--fault-seed"],
            ),
            (
                ExperimentConfig {
                    n_aggregators: 1,
                    ..base()
                },
                &["--aggregators is sim-only"],
            ),
            (
                ExperimentConfig {
                    pipeline: true,
                    ..base()
                },
                &["--pipeline is sim-only"],
            ),
            (
                ExperimentConfig {
                    auto_threshold: true,
                    ..base()
                },
                &["--auto-threshold is sim-only", "threshold broadcast"],
            ),
            (
                ExperimentConfig {
                    codec: rog_compress::CodecChoice::Sparse,
                    ..base()
                },
                &["--codec sparse", "dense f32"],
            ),
            (
                ExperimentConfig {
                    strategy: Strategy::Bsp,
                    ..base()
                },
                &["BSP"],
            ),
        ];
        for (cfg, needles) in cases {
            let err = check_socket_compatible(&cfg).unwrap_err();
            for needle in needles {
                assert!(err.contains(needle), "{needle:?} not in: {err}");
            }
        }
    }

    /// The `state` and `close` lines of a journal, seq left out.
    fn transitions(journal: &Journal) -> Vec<(u64, EventKind)> {
        let frame = journal
            .events()
            .filter(|e| matches!(e.kind.name(), "state" | "close"));
        frame.map(|e| (e.t.to_bits(), e.kind.clone())).collect()
    }

    fn bits(c: crate::TimeComposition) -> [u64; 4] {
        [c.compute, c.communicate, c.stall, c.offline].map(f64::to_bits)
    }

    #[test]
    fn what_a_worker_record_forwards_relays_into_the_server_record_unchanged() {
        let cfg = rog_cfg();
        let cluster = Cluster::build(&cfg);
        let (mut wj, mut sj) = (Journal::new(true), Journal::new(true));
        let mut worker = RunRecord::open(&cfg, &cluster, 1..2, &mut wj);
        let mut server = RunRecord::open(&cfg, &cluster, 0..2, &mut sj);
        // A repeated state, a zero-length span, an iteration, a close and
        // what a closed device would still send.
        let script = [
            (0.0, TraceEv::State(0)),
            (0.0, TraceEv::IterBegin(1)),
            (0.7, TraceEv::State(0)),
            (1.3, TraceEv::State(1)),
            (1.3, TraceEv::State(2)),
            (2.1, TraceEv::State(1)),
            (2.9, TraceEv::IterEnd(1)),
            (3.3, TraceEv::Close),
            (3.5, TraceEv::State(0)),
            (3.6, TraceEv::Close),
        ];
        let mut forwarded = 0;
        for (t, ev) in &script {
            if relay(&mut worker, &mut wj, 1, *t, ev, *t) {
                forwarded += 1;
                assert!(relay(&mut server, &mut sj, 1, *t, ev, *t), "{ev:?} at {t}");
            }
        }
        assert_eq!(forwarded, 7);
        let ws = worker.finish(4.0, ByteAccount::default(), 0.0, &mut wj);
        let ss = server.finish(4.0, ByteAccount::default(), 0.0, &mut sj);
        assert_eq!(transitions(&wj), transitions(&sj));
        assert_eq!(transitions(&wj).len(), 5);
        assert_eq!(bits(ws.composition), bits(ss.composition));
    }

    #[test]
    fn a_trace_time_a_timeline_cannot_take_is_dropped_and_the_record_reconciles() {
        let cfg = rog_cfg();
        let cluster = Cluster::build(&cfg);
        let mut journal = Journal::new(true);
        let mut server = RunRecord::open(&cfg, &cluster, 0..2, &mut journal);
        let sent = [
            (1.0, TraceEv::State(0), true),
            (f64::NAN, TraceEv::State(1), false),
            (0.5, TraceEv::State(2), false),
            (f64::INFINITY, TraceEv::IterEnd(1), false),
            (f64::NAN, TraceEv::Close, false),
            (2.0, TraceEv::State(2), true),
            (2.5, TraceEv::IterEnd(1), true),
            // Past the run's end: the span closes where it opened.
            (1e9, TraceEv::State(1), true),
        ];
        for (t, ev, taken) in &sent {
            let got = relay(&mut server, &mut journal, 0, *t, ev, 3.0);
            assert_eq!(got, *taken, "{ev:?} at {t}");
        }
        let m = server.finish(cfg.duration_secs, ByteAccount::default(), 0.0, &mut journal);
        let (w, kind) = (0, "trace");
        let drops = journal
            .events()
            .filter(|e| e.kind == EventKind::WireDrop { w, kind });
        assert_eq!(drops.count(), 4);
        let summary = rog_obs::TraceSummary::from_jsonl(&journal.to_jsonl()).expect("parses");
        assert_eq!(m.reconcile(&summary), Vec::<String>::new());
        assert_eq!(summary.iters, 1);
    }

    #[test]
    fn a_welcome_the_worker_cannot_run_under_is_refused_with_a_reason() {
        let cfg = rog_cfg();
        assert_eq!(check_welcome(&cfg, 1, 2, 20.0, 60.0), Ok(()));
        for (speedup, duration) in [
            (f64::NAN, 60.0),
            (0.0, 60.0),
            (-1.0, 60.0),
            (f64::INFINITY, 60.0),
            (20.0, f64::NAN),
            (20.0, 0.0),
        ] {
            let err = check_welcome(&cfg, 1, 2, speedup, duration).unwrap_err();
            assert!(err.contains("finite and positive"), "{err}");
        }
        let err = check_welcome(&cfg, 2, 2, 20.0, 60.0).unwrap_err();
        assert!(err.contains("worker 2 of 2"), "{err}");
        let err = check_welcome(&cfg, 0, 3, 20.0, 60.0).unwrap_err();
        assert!(err.contains("identical flags"), "{err}");
    }

    #[test]
    fn message_class_split_matches_the_paper() {
        // Rows are best-effort; control and membership are reliable.
        assert_eq!(
            class_of(&Msg::PushRows {
                worker: 0,
                iter: 1,
                rows: vec![]
            }),
            FrameClass::BestEffort
        );
        assert_eq!(class_of(&Msg::Start), FrameClass::Reliable);
        assert_eq!(
            class_of(&Msg::FinalModel {
                worker: 0,
                iters: 0,
                params: vec![]
            }),
            FrameClass::Reliable
        );
    }
}

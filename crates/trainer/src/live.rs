//! Live multi-process training over real sockets: the driver behind
//! `rogctl serve` / `rogctl join`.
//!
//! One process runs [`serve`] (the ROG parameter server), `N` processes
//! run [`join`] (one worker each). The cluster speaks the
//! [`rog_transport::proto`] control protocol over a
//! [`SocketTransport`]: gradient rows ride best-effort UDP datagrams
//! (CRC-checked, seq-deduped, loss absorbed by the RSP gate), while
//! membership, gate probes, checkpoints and the final-model handoff
//! ride reliable TCP.
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
//! Workers stream their timeline transitions ([`TraceEv`]) to the
//! server, which rebuilds per-worker [`Timeline`]s and a journal with
//! the same dedup rule the sim engines use. The server's
//! `RunMetrics::composition` and its journal therefore agree bitwise
//! by construction, and both are comparable (within pacing tolerance)
//! to a sim run of the same config — see
//! `tests/transport_reconciliation.rs`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::{Duration, Instant};

use rog_core::{ImportanceMetric, RogServer, RogWorker, RogWorkerConfig, RowId};
use rog_models::Workload;
use rog_obs::{obs, EventKind, Journal};
use rog_sim::{DeviceState, Timeline};
use rog_tensor::rng::DetRng;
use rog_transport::proto::{chunk_rows, Msg, Row, TraceEv};
use rog_transport::{
    Delivery, FrameClass, SocketByteCounters, SocketTransport, Transport, TransportError,
    MAX_DATAGRAM_PAYLOAD,
};

use crate::cluster::{Cluster, DeviceKind};
use crate::config::{ExperimentConfig, Strategy};
use crate::engine::common::relative_model_divergence_flat;
use crate::metrics::{ByteAccount, MetricsCollector};
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
    /// Upper bound on rows pushed per iteration. `plan_push` orders
    /// mandatory / stalest rows first, so a prefix cap preserves the
    /// RSP bound while bounding datagram traffic. `usize::MAX` pushes
    /// the full plan.
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
/// the deterministic sim channel; a real network supplies its own
/// loss, so carrying them over would silently mean nothing. Shards,
/// aggregators, pipelining and the auto-threshold controller are
/// features of the simulated row engine the live protocol does not
/// implement; accepting them would run one plain server without them.
pub fn check_socket_compatible(cfg: &ExperimentConfig) -> Result<(), String> {
    if !matches!(cfg.strategy, Strategy::Rog { .. }) {
        return Err(format!(
            "the socket transport runs the ROG row engine only; strategy {} is sim-only \
             (drop --strategy or choose rog)",
            cfg.strategy.name()
        ));
    }
    if cfg.codec != rog_compress::CodecChoice::OneBit {
        return Err(format!(
            "--codec {} is sim-only for now; the live wire protocol frames one-bit rows \
             (drop --codec or run the sim backend)",
            cfg.codec.name()
        ));
    }
    let engine_only: [(&str, bool, &str); 4] = [
        (
            "--shards",
            cfg.n_shards > 1,
            "serve runs one unsharded parameter server",
        ),
        (
            "--aggregators",
            cfg.n_aggregators > 0,
            "workers connect to the server directly",
        ),
        (
            "--pipeline",
            cfg.pipeline,
            "a live worker computes and communicates in turn",
        ),
        (
            "--auto-threshold",
            cfg.auto_threshold,
            "the live gate uses the fixed --strategy rog:<threshold> bound",
        ),
    ];
    for (what, set, why) in engine_only {
        if set {
            return Err(format!(
                "{what} is sim-only, because {why} (drop {what} or run the sim backend)"
            ));
        }
    }
    let sim_only: [(&str, bool); 5] = [
        ("--loss (packet-loss injection)", cfg.loss.is_some()),
        ("--fault-plan (fault injection)", cfg.fault_plan.is_some()),
        ("--fault-seed (seeded churn)", cfg.fault_seed.is_some()),
        ("capacity trace replay", cfg.capacity_trace.is_some()),
        ("link trace replay", cfg.link_traces.is_some()),
    ];
    for (what, set) in sim_only {
        if set {
            return Err(format!(
                "{what} only exists inside the simulated channel; the socket transport \
                 rides a real network that supplies its own loss — remove it or run the \
                 sim backend"
            ));
        }
    }
    Ok(())
}

/// Which class each control message travels under.
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

fn to_row_ids(rows: &[Row]) -> Vec<(RowId, Vec<f32>)> {
    rows.iter()
        .map(|(id, v)| (RowId(*id as usize), v.clone()))
        .collect()
}

fn from_row_ids(rows: Vec<(RowId, Vec<f32>)>) -> Vec<Row> {
    rows.into_iter().map(|(id, v)| (id.0 as u32, v)).collect()
}

fn importance_for(cfg: &ExperimentConfig) -> ImportanceMetric {
    match cfg.importance_weights {
        Some((f1, f2)) => ImportanceMetric::new(rog_core::ImportanceWeights { f1, f2 }),
        None => ImportanceMetric::default(),
    }
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

/// Journals worker `w`'s protocol event `ev` at virtual time `t`: the
/// one `TraceEv` → `EventKind` mapping, shared by the worker that emits
/// the event and the server that receives it.
fn journal_trace(journal: &mut Journal, w: u32, t: f64, ev: &TraceEv) {
    let kind = match *ev {
        TraceEv::State(s) => match DeviceState::ALL.get(s as usize) {
            Some(state) => EventKind::State {
                w,
                state: state.name(),
            },
            None => return,
        },
        TraceEv::IterBegin(iter) => EventKind::IterBegin { w, iter },
        TraceEv::IterEnd(iter) => EventKind::IterEnd { w, iter },
        TraceEv::GateEnter { iter, min } => EventKind::GateEnter {
            w,
            iter,
            min,
            lead: iter.saturating_sub(min),
            row: -1,
        },
        TraceEv::GateExit { iter, waited } => EventKind::GateExit { w, iter, waited },
        TraceEv::PushEnd { iter, rows, bytes } => EventKind::PushEnd {
            w,
            iter,
            rows,
            bytes,
        },
        TraceEv::Close => EventKind::Close { w },
    };
    obs!(journal, t, kind);
}

/// Per-worker bookkeeping on the server.
struct Member {
    timeline: Timeline,
    closed: bool,
    iters: u64,
    final_params: Option<Vec<f32>>,
    said_bye: bool,
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
    let cluster = Cluster::build(cfg);
    let mut server = RogServer::new(
        cluster.init_model.params(),
        n,
        threshold,
        importance_for(cfg),
    );

    let listen_addr = resolve(&opts.listen)?;
    let listener = TcpListener::bind(listen_addr)
        .map_err(|e| format!("cannot listen on {listen_addr}: {e}"))?;
    let mut transport = SocketTransport::bind(SocketAddr::new(listen_addr.ip(), 0))
        .map_err(|e| format!("cannot bind UDP: {e}"))?;
    let server_udp = transport
        .local_udp_addr()
        .map_err(|e| e.to_string())?
        .to_string();

    let mut journal = Journal::new(cfg.trace);
    obs!(
        journal,
        0.0,
        EventKind::Meta {
            name: cfg.name(),
            seed: cfg.seed,
        }
    );

    // Membership: admit n workers, in accept order. The listener is
    // non-blocking so the join timeout is a hard deadline even when no
    // connection ever arrives. A connection that fails the handshake
    // (stray client, torn stream, mismatched config) is rejected and
    // its slot stays open; only the deadline aborts the run.
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let join_deadline = Instant::now() + Duration::from_secs_f64(opts.join_timeout_secs);
    let expect_name = cfg.name();
    let mut members: Vec<Member> = Vec::with_capacity(n);
    while members.len() < n {
        let w = members.len();
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
        if let Err(e) = transport.register_peer(w, Some(worker_udp), Some(stream)) {
            eprintln!("rejecting connection from {peer_addr}: {e}");
            continue;
        }
        obs!(journal, 0.0, EventKind::PeerUp { w: w as u32 });
        members.push(Member {
            timeline: Timeline::new(),
            closed: false,
            iters: 0,
            final_params: None,
            said_bye: false,
        });
    }

    for w in 0..n {
        send_msg(&mut transport, w, 0, &Msg::Start).map_err(|e| e.to_string())?;
    }

    let mut collector = MetricsCollector::new(
        cfg.name(),
        cluster.workload.metric_name().to_owned(),
        cluster.workload.metric_higher_better(),
        n,
    );
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
                let _ = send_msg(&mut transport, w, 0, &Msg::Done);
            }
            done_sent = true;
            grace_deadline = Some(Instant::now() + Duration::from_secs(30));
        }
        if done_sent {
            let all_in = members
                .iter()
                .all(|m| m.final_params.is_some() && m.said_bye);
            let expired = grace_deadline.is_some_and(|d| Instant::now() > d);
            if all_in || expired {
                break;
            }
        }

        let deliveries = transport.poll(0.05).map_err(|e| e.to_string())?;
        for Delivery { from, payload, .. } in deliveries {
            stats.sim_events += 1;
            let msg = match Msg::decode(&payload) {
                Ok(m) => m,
                Err(_) => continue, // hostile or torn datagram: drop
            };
            match msg {
                Msg::Sync { worker, iter } if worker as usize == from => {
                    let min = server.versions().global_min();
                    let _ = send_msg(&mut transport, from, iter, &Msg::MinVersion { min });
                }
                Msg::PushRows { worker, iter, rows } if worker as usize == from => {
                    server.on_push(from, iter, &to_row_ids(&rows));
                    stats.peak_version_bytes = stats
                        .peak_version_bytes
                        .max(server.versions().memory_bytes() as u64);
                }
                Msg::PullReq { worker, iter } => {
                    if worker as usize != from {
                        continue;
                    }
                    let plan = server.plan_pull(from);
                    let fresh = server.commit_pull(from, &plan);
                    let sent = fresh.len() as u32;
                    for batch in chunk_rows(from_row_ids(fresh), MAX_DATAGRAM_PAYLOAD) {
                        let _ =
                            send_msg(&mut transport, from, iter, &Msg::PullRows { rows: batch });
                    }
                    let min = server.versions().global_min();
                    let _ = send_msg(
                        &mut transport,
                        from,
                        iter,
                        &Msg::PullDone { iter, min, sent },
                    );
                }
                Msg::Checkpoint {
                    worker,
                    iter,
                    time,
                    metric,
                } if worker as usize == from => {
                    collector.record_eval(from, iter, time, metric);
                }
                Msg::Trace { worker, t, ev } => {
                    if worker as usize != from {
                        continue;
                    }
                    // Timeline transitions are journaled only when the
                    // timeline takes them (the sim engines' dedup rule).
                    let m = &mut members[from];
                    let taken = match ev {
                        TraceEv::State(s) => DeviceState::ALL
                            .get(s as usize)
                            .is_some_and(|&state| !m.closed && m.timeline.set_state(t, state)),
                        TraceEv::Close => {
                            let open = !m.closed && m.timeline.current_state().is_some();
                            if open {
                                m.timeline.close(t);
                            }
                            m.closed = true;
                            open
                        }
                        TraceEv::IterEnd(_) => {
                            collector.record_iteration(from);
                            true
                        }
                        _ => true,
                    };
                    if taken {
                        journal_trace(&mut journal, worker, t, &ev);
                    }
                }
                Msg::FinalModel {
                    worker,
                    iters,
                    params,
                } if worker as usize == from => {
                    members[from].iters = iters;
                    members[from].final_params = Some(params);
                }
                Msg::Bye { worker } if worker as usize == from => {
                    members[from].said_bye = true;
                    obs!(journal, vnow(epoch), EventKind::PeerDown { w: worker });
                }
                // Server-bound only; anything else is a protocol error
                // from a confused peer — ignore rather than crash the run.
                _ => {}
            }
        }
        for (peer, kind) in transport.take_wire_drops() {
            obs!(
                journal,
                vnow(epoch),
                EventKind::WireDrop {
                    w: peer as u32,
                    kind,
                }
            );
        }
    }

    // Close any timeline a worker never closed itself (crash, timeout).
    for (w, m) in members.iter_mut().enumerate() {
        if !m.closed && m.timeline.current_state().is_some() {
            let t_close = duration.max(m.timeline.end_time());
            m.timeline.close(t_close);
            obs!(journal, t_close, EventKind::Close { w: w as u32 });
        }
    }
    obs!(
        journal,
        duration,
        EventKind::RunEnd {
            iters: collector.total_iterations(),
            duration,
        }
    );

    let finals: Vec<&[f32]> = members
        .iter()
        .filter_map(|m| m.final_params.as_deref())
        .collect();
    let divergence = relative_model_divergence_flat(&finals);
    let timelines: Vec<Timeline> = members.iter().map(|m| m.timeline.clone()).collect();
    let robot_mask: Vec<bool> = cluster
        .devices
        .iter()
        .map(|d| d.kind == DeviceKind::Robot)
        .collect();
    let bytes = transport.byte_counters().into();
    let metrics = collector.finish(&timelines, &robot_mask, duration, bytes, divergence);
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
    timeline: Timeline,
    journal: Journal,
}

impl LiveWorker {
    fn now(&self) -> f64 {
        (self.epoch.elapsed().as_secs_f64() * self.speedup).min(self.duration)
    }

    fn send(&mut self, msg: &Msg, iter: u64) {
        let _ = send_msg(&mut self.transport, 0, iter, msg);
    }

    /// Journals `ev` at `t` and streams it, with that same `t`, to the
    /// server.
    fn emit_at(&mut self, t: f64, ev: TraceEv) {
        let worker = self.w as u32;
        journal_trace(&mut self.journal, worker, t, &ev);
        self.send(&Msg::Trace { worker, t, ev }, 0);
    }

    /// [`LiveWorker::emit_at`] the current virtual time, sampled once.
    fn emit(&mut self, ev: TraceEv) {
        self.emit_at(self.now(), ev);
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
        let t = self.now();
        if self.timeline.set_state(t, state) {
            let idx = DeviceState::ALL
                .iter()
                .position(|&s| s == state)
                .expect("state in ALL") as u8;
            self.emit_at(t, TraceEv::State(idx));
        }
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
    if n_workers as usize != cfg.n_workers {
        return Err(format!(
            "server expects {n_workers} workers, local config says {} — launch both \
             sides with identical flags",
            cfg.n_workers
        ));
    }
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
    if cfg.momentum > 0.0 {
        wcfg = wcfg.with_momentum(cfg.momentum);
    }
    wcfg.importance = importance_for(cfg);
    let mut rog = RogWorker::new(model.params(), wcfg);
    let mut batch_rng = DetRng::new(cfg.seed).fork(0x100 + w as u64);
    let mut jitter_rng = DetRng::new(cfg.seed).fork(0x200 + w as u64);

    let mut journal = Journal::new(cfg.trace);
    obs!(
        journal,
        0.0,
        EventKind::Meta {
            name: cfg.name(),
            seed: cfg.seed,
        }
    );

    // Wait for Start.
    let mut lw = LiveWorker {
        w,
        transport,
        pending: Vec::new(),
        speedup,
        duration,
        epoch: Instant::now(),
        done: false,
        timeline: Timeline::new(),
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

    let mut collector = MetricsCollector::new(
        cfg.name(),
        cluster.workload.metric_name().to_owned(),
        cluster.workload.metric_higher_better(),
        1,
    );
    let mut known_min: u64 = 0;
    let mut iter: u64 = 0;
    let base = cfg.base_compute_secs() * cfg.batch_scale;

    while !lw.done && lw.now() < lw.duration {
        iter += 1;

        // RSP gate: iteration `iter` may start iff it is within
        // `threshold` of the slowest row anywhere in the cluster.
        if iter > known_min + u64::from(threshold) {
            let t_enter = lw.now();
            lw.set_state(DeviceState::Stall);
            lw.emit(TraceEv::GateEnter {
                iter,
                min: known_min,
            });
            while !lw.done && iter > known_min + u64::from(threshold) && lw.now() < lw.duration {
                lw.send(
                    &Msg::Sync {
                        worker: w as u32,
                        iter,
                    },
                    iter,
                );
                lw.pump(0.05);
                for m in lw.pending.drain(..) {
                    if let Msg::MinVersion { min } = m {
                        known_min = known_min.max(min);
                    }
                }
            }
            let waited = lw.now() - t_enter;
            lw.emit(TraceEv::GateExit { iter, waited });
            if lw.done || lw.now() >= lw.duration {
                break;
            }
        }

        // Compute: real gradients, paced to the virtual clock.
        lw.set_state(DeviceState::Compute);
        lw.emit(TraceEv::IterBegin(iter));
        let compute_start = Instant::now();
        let shard = &cluster.workload.shards()[w];
        let batch = cluster.devices[w].batch;
        let idxs = shard.sample_batch(batch, &mut batch_rng);
        let (grads, _mean_abs) = crate::compute::run_job(&model, shard, &idxs);
        let jitter = jitter_rng.normal_with(0.0, 0.02 * base);
        let compute_secs = (base + cfg.codec_secs() + jitter).max(0.05);
        // The paced budget covers the real gradient computation too:
        // sleep only the remainder, so the virtual compute span equals
        // `compute_secs` whether the real math was fast or slow.
        let sleep_end = compute_start + Duration::from_secs_f64(compute_secs / speedup);
        while Instant::now() < sleep_end {
            lw.pump(0.01);
        }

        // Push: importance-ranked rows, best-effort datagrams.
        lw.set_state(DeviceState::Communicate);
        rog.accumulate(&grads);
        let mut plan = rog.plan_push(iter);
        plan.truncate(opts.push_cap);
        let rows = rog.commit_push(&plan, iter);
        let n_rows = rows.len() as u32;
        let payload_bytes: u64 = rows.iter().map(|(_, v)| 4 + 4 * v.len() as u64).sum();
        for batch in chunk_rows(from_row_ids(rows), MAX_DATAGRAM_PAYLOAD) {
            lw.send(
                &Msg::PushRows {
                    worker: w as u32,
                    iter,
                    rows: batch,
                },
                iter,
            );
        }
        lw.emit(TraceEv::PushEnd {
            iter,
            rows: n_rows,
            bytes: payload_bytes,
        });

        // Pull: fresh rows until PullDone (or a wall timeout — a lost
        // datagram must not stall the run; RSP absorbs the gap).
        lw.send(
            &Msg::PullReq {
                worker: w as u32,
                iter,
            },
            iter,
        );
        let pull_deadline = Instant::now() + Duration::from_secs(2);
        let mut pulled = false;
        while !pulled && Instant::now() < pull_deadline {
            lw.pump(0.05);
            for m in lw.pending.drain(..) {
                match m {
                    Msg::PullRows { rows } => {
                        rog.apply_pulled(model.params_mut(), &to_row_ids(&rows));
                    }
                    Msg::PullDone { min, .. } => {
                        known_min = known_min.max(min);
                        pulled = true;
                    }
                    Msg::MinVersion { min } => known_min = known_min.max(min),
                    _ => {}
                }
            }
        }

        lw.emit(TraceEv::IterEnd(iter));
        collector.record_iteration(0);
        if iter.is_multiple_of(cfg.eval_every) {
            let metric = cluster.workload.test_metric(&model);
            let t = lw.now();
            collector.record_eval(0, iter, t, metric);
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
    let t_close = lw.now().max(lw.timeline.end_time());
    if lw.timeline.current_state().is_some() {
        lw.timeline.close(t_close);
        lw.emit_at(t_close, TraceEv::Close);
    }
    obs!(
        lw.journal,
        lw.duration,
        EventKind::RunEnd {
            iters: iter,
            duration: lw.duration,
        }
    );
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
    let robot = cluster.devices[w].kind == DeviceKind::Robot;
    let metrics = collector.finish(&[lw.timeline.clone()], &[robot], lw.duration, bytes, 0.0);
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
    fn socket_compat_accepts_a_plain_rog_config() {
        assert_eq!(check_socket_compatible(&rog_cfg()), Ok(()));
    }

    #[test]
    fn socket_compat_rejects_loss_injection() {
        let cfg = ExperimentConfig {
            loss: Some(LossConfig::iid(1, 0.1)),
            ..rog_cfg()
        };
        let err = check_socket_compatible(&cfg).unwrap_err();
        assert!(err.contains("--loss"), "{err}");
        assert!(err.contains("real network"), "{err}");
    }

    #[test]
    fn socket_compat_rejects_fault_plans_and_seeds() {
        let cfg = ExperimentConfig {
            fault_plan: Some(FaultPlan::default()),
            ..rog_cfg()
        };
        assert!(check_socket_compatible(&cfg)
            .unwrap_err()
            .contains("--fault-plan"));
        let cfg = ExperimentConfig {
            fault_seed: Some(7),
            ..rog_cfg()
        };
        assert!(check_socket_compatible(&cfg)
            .unwrap_err()
            .contains("--fault-seed"));
    }

    #[test]
    fn socket_compat_rejects_shards() {
        let cfg = ExperimentConfig {
            n_shards: 2,
            ..rog_cfg()
        };
        let err = check_socket_compatible(&cfg).unwrap_err();
        assert!(err.contains("--shards is sim-only"), "{err}");
    }

    #[test]
    fn socket_compat_rejects_aggregators() {
        let cfg = ExperimentConfig {
            n_aggregators: 1,
            ..rog_cfg()
        };
        let err = check_socket_compatible(&cfg).unwrap_err();
        assert!(err.contains("--aggregators is sim-only"), "{err}");
    }

    #[test]
    fn socket_compat_rejects_pipeline() {
        let cfg = ExperimentConfig {
            pipeline: true,
            ..rog_cfg()
        };
        let err = check_socket_compatible(&cfg).unwrap_err();
        assert!(err.contains("--pipeline is sim-only"), "{err}");
    }

    #[test]
    fn socket_compat_rejects_auto_threshold() {
        let cfg = ExperimentConfig {
            auto_threshold: true,
            ..rog_cfg()
        };
        let err = check_socket_compatible(&cfg).unwrap_err();
        assert!(err.contains("--auto-threshold is sim-only"), "{err}");
    }

    #[test]
    fn socket_compat_rejects_non_onebit_codecs() {
        let cfg = ExperimentConfig {
            codec: rog_compress::CodecChoice::Sparse,
            ..rog_cfg()
        };
        let err = check_socket_compatible(&cfg).unwrap_err();
        assert!(err.contains("--codec sparse"), "{err}");
    }

    #[test]
    fn socket_compat_rejects_model_granularity_baselines() {
        let cfg = ExperimentConfig {
            strategy: Strategy::Bsp,
            ..rog_cfg()
        };
        let err = check_socket_compatible(&cfg).unwrap_err();
        assert!(err.contains("BSP"), "{err}");
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

//! The live-cluster control protocol `rogctl serve`/`join` speak on
//! top of a [`crate::Transport`].
//!
//! Hand-rolled, length-delimited binary codec (tag byte, LE scalars,
//! length-prefixed sequences). Like the wire-frame decoder, decoding
//! is **total**: any byte string — truncated, corrupt, adversarial —
//! returns a typed [`ProtoError`], never a panic, and every sequence
//! length is bounded before allocation so a hostile header cannot
//! balloon memory.
//!
//! Message ↔ class mapping (see the crate docs for the class split):
//!
//! * Best-effort datagrams: [`Msg::PushRows`] (the bulk),
//!   [`Msg::PullReq`], [`Msg::PullRows`], [`Msg::PullDone`] —
//!   gradient/parameter rows whose loss RSP's staleness gate absorbs,
//!   and the pull request/receipt that ride behind them (a lost one is
//!   re-requested).
//! * Reliable stream: everything else — membership handshake, the
//!   RSP-mandatory prefix of each push (one [`Msg::PushRows`], the
//!   rows the staleness bound depends on), checkpoints, trace events,
//!   the final model handoff.
//!
//! The RSP gate lives on the server: a [`Msg::PullReq`] waits there
//! until `min(V)` admits it, so there is no gate probe on the wire.
//! Tags of retired messages stay unassigned.

/// One parameter row on the wire: row id + dense f32 payload.
pub type Row = (u32, Vec<f32>);

/// Decode failure reasons. All total — see the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Buffer ended before the announced content.
    Truncated,
    /// Unknown message or trace-event tag.
    BadTag(u8),
    /// A declared sequence length exceeds the protocol bound.
    TooLarge(u64),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// Trailing bytes after a complete message.
    TrailingBytes,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "message truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown tag {t}"),
            ProtoError::TooLarge(n) => write!(f, "declared length {n} exceeds protocol bound"),
            ProtoError::BadUtf8 => write!(f, "string field is not UTF-8"),
            ProtoError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

/// Most rows any single message may carry (a full paper-scale model is
/// ~33 k rows; 1 M leaves two orders of magnitude headroom).
const MAX_ROWS: u64 = 1 << 20;
/// Widest row payload accepted (f32 count).
const MAX_ROW_WIDTH: u64 = 1 << 20;
/// Longest string field accepted.
const MAX_STR: u64 = 4096;
/// Largest flattened final-model parameter vector (f32 count).
const MAX_PARAMS: u64 = 1 << 28;

/// Timeline/journal event a worker reports to the server, stamped with
/// the worker's virtual clock. The server folds these into the shared
/// journal and per-device timelines, which is what makes the live
/// run's `TraceSummary` reconcile with a sim run of the same scenario.
/// Push, gate and pull records are not here: the server journals the
/// cycle itself.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEv {
    /// Device state change; index into `rog-sim`'s `DeviceState::ALL`
    /// (compute=0, communicate=1, stall=2, idle=3, offline=4), the
    /// states the server's timeline for the worker takes and a journal
    /// replay rebuilds.
    State(u8),
    /// Iteration `iter` started computing.
    IterBegin(u64),
    /// Iteration `iter` finished (update applied).
    IterEnd(u64),
    /// The worker's timeline closed (end of its run).
    Close,
}

/// A control-protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Worker → server, first message on the TCP stream: request to
    /// join. `cfg_name` is the worker's `ExperimentConfig::name()`,
    /// checked against the server's so both sides provably run the
    /// same scenario; `udp` is the worker's best-effort datagram
    /// address.
    Join {
        /// The worker's experiment-config display name.
        cfg_name: String,
        /// The worker's UDP address (`ip:port`).
        udp: String,
    },
    /// Server → worker: admission. Carries everything the worker needs
    /// that is not derivable from its own config.
    Welcome {
        /// Assigned worker index.
        worker: u32,
        /// Cluster size.
        n_workers: u32,
        /// RSP staleness threshold.
        threshold: u32,
        /// Virtual seconds per wall second (compute pacing).
        speedup: f64,
        /// Virtual run duration in seconds.
        duration: f64,
        /// The server's UDP address for best-effort traffic.
        udp: String,
    },
    /// Server → workers: all members joined, start training now (the
    /// receipt instant is the worker's virtual-clock epoch).
    Start,
    /// Worker → server: a batch of pushed gradient rows (global row
    /// ids). Each cycle opens with exactly one reliable batch — the
    /// RSP-mandatory prefix, possibly empty — followed by the
    /// best-effort bulk.
    PushRows {
        /// Pushing worker.
        worker: u32,
        /// Iteration the rows belong to.
        iter: u64,
        /// Row payloads.
        rows: Vec<Row>,
    },
    /// Worker → server (best-effort, behind the rows it ends): the push
    /// of `iter` is over, serve the pull once the gate admits it.
    /// Re-sent while unanswered; the server treats repeats as one.
    PullReq {
        /// Pulling worker.
        worker: u32,
        /// Iteration the pull serves.
        iter: u64,
    },
    /// Server → worker (best-effort): a batch of fresh parameter rows.
    PullRows {
        /// Row payloads.
        rows: Vec<Row>,
    },
    /// Server → worker (best-effort): one shard's pull was granted and
    /// its rows sent.
    PullDone {
        /// Iteration the pull served.
        iter: u64,
        /// The parameter shard whose leg this ends.
        shard: u32,
        /// Total rows sent for this pull (lets the receiver detect
        /// best-effort gaps).
        sent: u32,
    },
    /// Worker → server: evaluated a checkpoint.
    Checkpoint {
        /// Evaluating worker.
        worker: u32,
        /// Iteration evaluated.
        iter: u64,
        /// Virtual time of the evaluation.
        time: f64,
        /// Metric value.
        metric: f64,
    },
    /// Worker → server: one timeline/journal event.
    Trace {
        /// Reporting worker.
        worker: u32,
        /// Virtual timestamp.
        t: f64,
        /// The event.
        ev: TraceEv,
    },
    /// Server → workers: run duration reached, finish up and report.
    Done,
    /// Worker → server: final model parameters, flattened in
    /// `Mlp::params()` matrix order (for the divergence diagnostic).
    FinalModel {
        /// Reporting worker.
        worker: u32,
        /// Iterations the worker completed.
        iters: u64,
        /// Flattened parameters.
        params: Vec<f32>,
    },
    /// Worker → server: clean goodbye; the TCP stream closes after.
    Bye {
        /// Departing worker.
        worker: u32,
    },
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new(tag: u8) -> Self {
        Self { buf: vec![tag] }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn rows(&mut self, rows: &[Row]) {
        self.u32(rows.len() as u32);
        for (id, payload) in rows {
            self.u32(*id);
            self.f32s(payload);
        }
    }
}

struct Reader<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        let end = self.i.checked_add(n).ok_or(ProtoError::Truncated)?;
        if end > self.b.len() {
            return Err(ProtoError::Truncated);
        }
        let s = &self.b[self.i..end];
        self.i = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn len(&mut self, max: u64) -> Result<usize, ProtoError> {
        let n = u64::from(self.u32()?);
        if n > max {
            return Err(ProtoError::TooLarge(n));
        }
        Ok(n as usize)
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let n = self.len(MAX_STR)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| ProtoError::BadUtf8)
    }

    fn f32s(&mut self, max: u64) -> Result<Vec<f32>, ProtoError> {
        let n = self.len(max)?;
        // Bounds-check the whole payload before allocating.
        let raw = self.take(n.checked_mul(4).ok_or(ProtoError::Truncated)?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    fn rows(&mut self) -> Result<Vec<Row>, ProtoError> {
        let n = self.len(MAX_ROWS)?;
        // Reserve no more rows than the bytes left can encode (an id
        // and a width, 8 bytes, per row), whatever the header claims.
        let mut rows = Vec::with_capacity(n.min((self.b.len() - self.i) / 8));
        for _ in 0..n {
            let id = self.u32()?;
            let payload = self.f32s(MAX_ROW_WIDTH)?;
            rows.push((id, payload));
        }
        Ok(rows)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.i == self.b.len() {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes)
        }
    }
}

impl TraceEv {
    fn encode(&self, w: &mut Writer) {
        match self {
            TraceEv::State(s) => {
                w.u8(0);
                w.u8(*s);
            }
            TraceEv::IterBegin(iter) => {
                w.u8(1);
                w.u64(*iter);
            }
            TraceEv::IterEnd(iter) => {
                w.u8(2);
                w.u64(*iter);
            }
            TraceEv::Close => w.u8(6),
        }
    }

    fn decode(r: &mut Reader) -> Result<TraceEv, ProtoError> {
        Ok(match r.u8()? {
            0 => TraceEv::State(r.u8()?),
            1 => TraceEv::IterBegin(r.u64()?),
            2 => TraceEv::IterEnd(r.u64()?),
            6 => TraceEv::Close,
            t => return Err(ProtoError::BadTag(t)),
        })
    }
}

impl Msg {
    /// Serializes the message.
    pub fn encode(&self) -> Vec<u8> {
        let mut w;
        match self {
            Msg::Join { cfg_name, udp } => {
                w = Writer::new(1);
                w.str(cfg_name);
                w.str(udp);
            }
            Msg::Welcome {
                worker,
                n_workers,
                threshold,
                speedup,
                duration,
                udp,
            } => {
                w = Writer::new(2);
                w.u32(*worker);
                w.u32(*n_workers);
                w.u32(*threshold);
                w.f64(*speedup);
                w.f64(*duration);
                w.str(udp);
            }
            Msg::Start => w = Writer::new(3),
            Msg::PushRows { worker, iter, rows } => {
                w = Writer::new(6);
                w.u32(*worker);
                w.u64(*iter);
                w.rows(rows);
            }
            Msg::PullReq { worker, iter } => {
                w = Writer::new(7);
                w.u32(*worker);
                w.u64(*iter);
            }
            Msg::PullRows { rows } => {
                w = Writer::new(8);
                w.rows(rows);
            }
            Msg::PullDone { iter, shard, sent } => {
                w = Writer::new(9);
                w.u64(*iter);
                w.u32(*shard);
                w.u32(*sent);
            }
            Msg::Checkpoint {
                worker,
                iter,
                time,
                metric,
            } => {
                w = Writer::new(10);
                w.u32(*worker);
                w.u64(*iter);
                w.f64(*time);
                w.f64(*metric);
            }
            Msg::Trace { worker, t, ev } => {
                w = Writer::new(11);
                w.u32(*worker);
                w.f64(*t);
                ev.encode(&mut w);
            }
            Msg::Done => w = Writer::new(12),
            Msg::FinalModel {
                worker,
                iters,
                params,
            } => {
                w = Writer::new(13);
                w.u32(*worker);
                w.u64(*iters);
                w.u32(params.len() as u32);
                for p in params {
                    w.buf.extend_from_slice(&p.to_le_bytes());
                }
            }
            Msg::Bye { worker } => {
                w = Writer::new(14);
                w.u32(*worker);
            }
        }
        w.buf
    }

    /// Deserializes one message; total over arbitrary input.
    pub fn decode(buf: &[u8]) -> Result<Msg, ProtoError> {
        let mut r = Reader { b: buf, i: 0 };
        let msg = match r.u8()? {
            1 => Msg::Join {
                cfg_name: r.str()?,
                udp: r.str()?,
            },
            2 => Msg::Welcome {
                worker: r.u32()?,
                n_workers: r.u32()?,
                threshold: r.u32()?,
                speedup: r.f64()?,
                duration: r.f64()?,
                udp: r.str()?,
            },
            3 => Msg::Start,
            6 => Msg::PushRows {
                worker: r.u32()?,
                iter: r.u64()?,
                rows: r.rows()?,
            },
            7 => Msg::PullReq {
                worker: r.u32()?,
                iter: r.u64()?,
            },
            8 => Msg::PullRows { rows: r.rows()? },
            9 => Msg::PullDone {
                iter: r.u64()?,
                shard: r.u32()?,
                sent: r.u32()?,
            },
            10 => Msg::Checkpoint {
                worker: r.u32()?,
                iter: r.u64()?,
                time: r.f64()?,
                metric: r.f64()?,
            },
            11 => Msg::Trace {
                worker: r.u32()?,
                t: r.f64()?,
                ev: TraceEv::decode(&mut r)?,
            },
            12 => Msg::Done,
            13 => Msg::FinalModel {
                worker: r.u32()?,
                iters: r.u64()?,
                params: r.f32s(MAX_PARAMS)?,
            },
            14 => Msg::Bye { worker: r.u32()? },
            t => return Err(ProtoError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Splits `rows` into batches whose encoded [`Msg::PushRows`] /
/// [`Msg::PullRows`] payloads each fit one best-effort datagram
/// (`max_payload` bytes; pass [`crate::MAX_DATAGRAM_PAYLOAD`]). A single row
/// wider than the budget gets a batch of its own — the transport will
/// reject it with a clear `Oversize` error rather than silently
/// truncating.
pub fn chunk_rows(rows: Vec<Row>, max_payload: usize) -> Vec<Vec<Row>> {
    // Fixed per-message overhead: tag + worker + iter + row count.
    const MSG_HEAD: usize = 1 + 4 + 8 + 4;
    let mut out: Vec<Vec<Row>> = Vec::new();
    let mut cur: Vec<Row> = Vec::new();
    let mut cur_bytes = MSG_HEAD;
    for row in rows {
        let row_bytes = 4 + 4 + 4 * row.1.len();
        if !cur.is_empty() && cur_bytes + row_bytes > max_payload {
            out.push(std::mem::take(&mut cur));
            cur_bytes = MSG_HEAD;
        }
        cur_bytes += row_bytes;
        cur.push(row);
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(m: Msg) {
        let enc = m.encode();
        assert_eq!(Msg::decode(&enc).expect("decode"), m);
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Msg::Join {
            cfg_name: "rog-t4".into(),
            udp: "127.0.0.1:9001".into(),
        });
        roundtrip(Msg::Welcome {
            worker: 2,
            n_workers: 4,
            threshold: 4,
            speedup: 30.0,
            duration: 600.0,
            udp: "127.0.0.1:9000".into(),
        });
        roundtrip(Msg::Start);
        roundtrip(Msg::PushRows {
            worker: 0,
            iter: 3,
            rows: vec![(5, vec![1.0, -2.5]), (9, vec![])],
        });
        roundtrip(Msg::PullReq { worker: 3, iter: 8 });
        roundtrip(Msg::PullRows {
            rows: vec![(0, vec![0.25; 16])],
        });
        roundtrip(Msg::PullDone {
            iter: 8,
            shard: 1,
            sent: 12,
        });
        roundtrip(Msg::Checkpoint {
            worker: 1,
            iter: 50,
            time: 108.5,
            metric: 61.2,
        });
        for ev in [
            TraceEv::State(2),
            TraceEv::IterBegin(4),
            TraceEv::IterEnd(4),
            TraceEv::Close,
        ] {
            roundtrip(Msg::Trace {
                worker: 2,
                t: 12.75,
                ev,
            });
        }
        roundtrip(Msg::Done);
        roundtrip(Msg::FinalModel {
            worker: 0,
            iters: 120,
            params: vec![0.5, -0.5, 3.25],
        });
        roundtrip(Msg::Bye { worker: 0 });
    }

    #[test]
    fn decode_is_total_on_junk() {
        assert_eq!(Msg::decode(&[]), Err(ProtoError::Truncated));
        assert_eq!(Msg::decode(&[99]), Err(ProtoError::BadTag(99)));
        // The retired gate-probe tags are unknown tags now.
        assert_eq!(Msg::decode(&[4]), Err(ProtoError::BadTag(4)));
        // Truncated mid-field.
        let mut enc = Msg::PullReq { worker: 1, iter: 2 }.encode();
        enc.truncate(enc.len() - 3);
        assert_eq!(Msg::decode(&enc), Err(ProtoError::Truncated));
        // Trailing garbage.
        let mut enc = Msg::Done.encode();
        enc.push(0);
        assert_eq!(Msg::decode(&enc), Err(ProtoError::TrailingBytes));
        // Hostile length header cannot balloon memory.
        let mut hostile = vec![8u8]; // PullRows
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Msg::decode(&hostile),
            Err(ProtoError::TooLarge(u64::from(u32::MAX)))
        );
    }

    /// Message `kind` (0..15: every variant, `Trace` once per event)
    /// built from the drawn fields.
    fn arb_msg(kind: u8, w: u32, n: u64, (x, y): (f64, f64), text: &[u32], rows: Vec<Row>) -> Msg {
        let text: String = text.iter().filter_map(|&c| char::from_u32(c)).collect();
        let trace = |ev| Msg::Trace {
            worker: w,
            t: x,
            ev,
        };
        match kind {
            0 => Msg::Join {
                cfg_name: text.clone(),
                udp: text,
            },
            1 => Msg::Welcome {
                worker: w,
                n_workers: w ^ 1,
                threshold: n as u32,
                speedup: x,
                duration: y,
                udp: text,
            },
            2 => Msg::Start,
            3 => Msg::PushRows {
                worker: w,
                iter: n,
                rows,
            },
            4 => Msg::PullReq { worker: w, iter: n },
            5 => Msg::PullRows { rows },
            6 => Msg::PullDone {
                iter: n,
                shard: w,
                sent: n as u32,
            },
            7 => Msg::Checkpoint {
                worker: w,
                iter: n,
                time: x,
                metric: y,
            },
            8 => trace(TraceEv::State(n as u8)),
            9 => trace(TraceEv::IterBegin(n)),
            10 => trace(TraceEv::IterEnd(n)),
            11 => trace(TraceEv::Close),
            12 => Msg::Done,
            13 => Msg::FinalModel {
                worker: w,
                iters: n,
                params: rows.into_iter().flat_map(|(_, r)| r).collect(),
            },
            _ => Msg::Bye { worker: w },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The decoder is total: arbitrary bytes, with or without a
        /// known tag in front, produce a message or a typed error,
        /// never a panic.
        #[test]
        fn random_bytes_never_panic(
            tag in 0u8..16,
            buf in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            let _ = Msg::decode(&buf);
            let _ = Msg::decode(&[&[tag][..], &buf].concat());
        }

        /// Every message decodes back to itself from its own encoding,
        /// and no strict prefix of that encoding decodes at all.
        #[test]
        fn arbitrary_messages_roundtrip(
            kind in 0u8..15,
            ids in (0u32..=u32::MAX, 0u64..=u64::MAX),
            floats in (-1e300f64..1e300, -1e300f64..1e300),
            text in proptest::collection::vec(0u32..0x11_0000, 0..12),
            rows in proptest::collection::vec(
                (0u32..=u32::MAX, proptest::collection::vec(-1e30f32..1e30, 0..6)),
                0..6,
            ),
            cut in 0usize..4096,
        ) {
            let m = arb_msg(kind, ids.0, ids.1, floats, &text, rows);
            let enc = m.encode();
            prop_assert_eq!(Msg::decode(&enc), Ok(m));
            prop_assert!(Msg::decode(&enc[..cut % enc.len()]).is_err());
        }
    }

    #[test]
    fn chunking_respects_the_datagram_budget() {
        let rows: Vec<Row> = (0..100).map(|i| (i, vec![0.0f32; 400])).collect();
        let batches = chunk_rows(rows.clone(), 4000);
        assert!(batches.len() > 1);
        let mut seen = 0;
        for b in &batches {
            let msg = Msg::PushRows {
                worker: 0,
                iter: 1,
                rows: b.clone(),
            };
            assert!(msg.encode().len() <= 4000, "batch overflows budget");
            seen += b.len();
        }
        assert_eq!(seen, rows.len(), "no row dropped or duplicated");
    }

    #[test]
    fn oversized_single_row_gets_its_own_batch() {
        let rows = vec![(0u32, vec![0.0f32; 5000]), (1, vec![0.0f32; 2])];
        let batches = chunk_rows(rows, 4000);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 1);
    }
}

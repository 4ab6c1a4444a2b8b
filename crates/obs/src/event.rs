//! Typed journal events and their deterministic JSONL encoding.
//!
//! Every event is stamped on the virtual clock (`t`) and carries a
//! monotone sequence number (`seq`). The wire format is a flat JSON
//! object per line with a fixed field order, so a journal for a given
//! (config, seed) is byte-identical across runs and platforms. Floats
//! are formatted with Rust's shortest round-trip `Display`, which is
//! deterministic.

use std::fmt::Write as _;

/// One typed journal event.
///
/// Variants map 1:1 to JSONL records; field names below match the wire
/// keys. `&'static str` is used for enumerated strings so recording an
/// event allocates only when a plan row list is attached.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// Journal header: run display name and RNG seed.
    Meta { name: String, seed: u64 },
    /// Worker `w` starts computing iteration `iter`.
    IterBegin { w: u32, iter: u64 },
    /// Worker `w` finished iteration `iter` (update applied).
    IterEnd { w: u32, iter: u64 },
    /// Device `w`'s timeline actually changed state (dedup'd against
    /// re-entry, mirroring `Timeline::set_state`).
    State { w: u32, state: &'static str },
    /// Device `w`'s timeline was closed at `t` (end of run).
    Close { w: u32 },
    /// Worker `w` blocked at the staleness gate before iteration
    /// `iter`: global min version `min`, staleness distance `lead`
    /// (how far ahead of the slowest row this worker is), and the
    /// blocking row id (`row`, `-1` when unknown / not row-granular).
    GateEnter {
        w: u32,
        iter: u64,
        min: u64,
        lead: u64,
        row: i64,
    },
    /// Worker `w` released from the gate after waiting `waited` s.
    GateExit { w: u32, iter: u64, waited: f64 },
    /// Worker `w` starts pushing iteration `iter`: `rows` planned of
    /// which `mand` are mandatory (same-row bound), `mta` forced by
    /// the MTA floor, against a time `budget` (s; `-1` = no deadline).
    PushStart {
        w: u32,
        iter: u64,
        rows: u32,
        mand: u32,
        mta: u32,
        budget: f64,
    },
    /// Worker `w` finished pushing iteration `iter`: `rows` rows in
    /// `bytes` payload bytes.
    PushEnd {
        w: u32,
        iter: u64,
        rows: u32,
        bytes: u64,
    },
    /// Worker `w` starts pulling `bytes` of fresh rows for `iter`.
    PullStart { w: u32, iter: u64, bytes: u64 },
    /// Worker `w` finished its pull for iteration `iter`.
    PullEnd { w: u32, iter: u64 },
    /// Importance-ranked rows worker `w` pushes for `iter`
    /// (position in `rows` = importance rank, most important first).
    RowPush { w: u32, iter: u64, rows: Vec<u32> },
    /// Importance-ranked rows worker `w` pulls for `iter`.
    RowPull { w: u32, iter: u64, rows: Vec<u32> },
    /// Worker `w` retransmits `rows` rows of class `class`
    /// ("mandatory" or "reliable").
    Retransmit {
        w: u32,
        rows: u32,
        class: &'static str,
    },
    /// Worker `w` backs off until virtual time `until` (link outage).
    Backoff { w: u32, until: f64 },
    /// A delivery report for worker `w`'s flow observed damage:
    /// `lost` dropped and `corrupt` damaged out of `chunks` chunks.
    Loss {
        w: u32,
        lost: u32,
        corrupt: u32,
        chunks: u32,
    },
    /// Fault-clock transition `kind` for device `w` (`-1` = cluster
    /// or server scope).
    Fault { kind: &'static str, w: i64 },
    /// Worker `w` begins rejoin resync (`bytes` of model to fetch).
    ResyncStart { w: u32, bytes: u64 },
    /// Worker `w` finished resync and resumes at iteration `iter`.
    ResyncEnd { w: u32, iter: u64 },
    /// MTA budget update for worker `w`: measured push time `secs`
    /// feeding the tracker, new per-push `budget` (s).
    Mta { w: u32, secs: f64, budget: f64 },
    /// Edge aggregator `agg` flushed a merge window upstream: `rows`
    /// distinct rows forwarded out of `raw` raw member rows absorbed
    /// across `pushes` member pushes, carrying max row version `ver`.
    AggMerge {
        agg: u32,
        rows: u32,
        raw: u32,
        pushes: u32,
        ver: u64,
    },
    /// Auto-threshold controller changed the staleness threshold.
    AutoThreshold { threshold: u32 },
    /// An adaptive threshold policy (DSSP/ABS) changed worker `w`'s
    /// staleness threshold. The sequence of these events per worker is
    /// the instantaneous gate bound in force at any virtual time, so
    /// the adapted bound is observable and replayable from the journal.
    ThresholdAdapt { w: u32, threshold: u32 },
    /// The per-link codec selector (`--codec auto`) switched worker
    /// `w`'s row codec. The per-worker sequence of these events is the
    /// codec in force on that link at any virtual time, so the selection
    /// is observable and replayable from the journal.
    CodecSelect { w: u32, codec: &'static str },
    /// End of run: total iterations across workers and run duration.
    RunEnd { iters: u64, duration: f64 },
    /// Live cluster: peer `w` completed the join handshake.
    PeerUp { w: u32 },
    /// Live cluster: peer `w` left (Bye) or its reliable lane closed.
    PeerDown { w: u32 },
    /// Live cluster: something peer `w` sent was dropped at the wire
    /// (`kind` is "crc", "dup" or "proto") or refused by the server's
    /// record ("trace": a time its timeline cannot take).
    WireDrop { w: u32, kind: &'static str },
}

impl EventKind {
    /// Stable wire name of the event.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Meta { .. } => "meta",
            EventKind::IterBegin { .. } => "iter_begin",
            EventKind::IterEnd { .. } => "iter_end",
            EventKind::State { .. } => "state",
            EventKind::Close { .. } => "close",
            EventKind::GateEnter { .. } => "gate_enter",
            EventKind::GateExit { .. } => "gate_exit",
            EventKind::PushStart { .. } => "push_start",
            EventKind::PushEnd { .. } => "push_end",
            EventKind::PullStart { .. } => "pull_start",
            EventKind::PullEnd { .. } => "pull_end",
            EventKind::RowPush { .. } => "row_push",
            EventKind::RowPull { .. } => "row_pull",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::Backoff { .. } => "backoff",
            EventKind::Loss { .. } => "loss",
            EventKind::Fault { .. } => "fault",
            EventKind::ResyncStart { .. } => "resync_start",
            EventKind::ResyncEnd { .. } => "resync_end",
            EventKind::Mta { .. } => "mta",
            EventKind::AggMerge { .. } => "agg_merge",
            EventKind::AutoThreshold { .. } => "auto_threshold",
            EventKind::ThresholdAdapt { .. } => "threshold_adapt",
            EventKind::CodecSelect { .. } => "codec_select",
            EventKind::RunEnd { .. } => "run_end",
            EventKind::PeerUp { .. } => "peer_up",
            EventKind::PeerDown { .. } => "peer_down",
            EventKind::WireDrop { .. } => "wire_drop",
        }
    }
}

/// A journal event: virtual time, sequence number, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Virtual-clock timestamp (seconds).
    pub t: f64,
    /// Monotone per-journal sequence number.
    pub seq: u64,
    /// Parameter-server shard this event is scoped to, or
    /// [`Event::NO_SHARD`] for unsharded scope. Only non-negative
    /// values appear on the wire, so single-server journals are
    /// byte-identical to the pre-shard format.
    pub shard: i64,
    /// Typed payload.
    pub kind: EventKind,
}

fn push_str_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_rows(out: &mut String, rows: &[u32]) {
    out.push('[');
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{r}");
    }
    out.push(']');
}

impl Event {
    /// Sentinel `shard` value for events with unsharded scope: no
    /// `shard` field is written.
    pub const NO_SHARD: i64 = -1;

    /// Appends the event as one JSONL line (including the trailing
    /// newline) with a fixed, deterministic field order.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t\":{},\"seq\":{},\"ev\":\"{}\"",
            self.t,
            self.seq,
            self.kind.name()
        );
        if self.shard >= 0 {
            let _ = write!(out, ",\"shard\":{}", self.shard);
        }
        match &self.kind {
            EventKind::Meta { name, seed } => {
                out.push_str(",\"name\":");
                push_str_escaped(out, name);
                let _ = write!(out, ",\"seed\":{seed}");
            }
            EventKind::IterBegin { w, iter } | EventKind::IterEnd { w, iter } => {
                let _ = write!(out, ",\"w\":{w},\"iter\":{iter}");
            }
            EventKind::State { w, state } => {
                let _ = write!(out, ",\"w\":{w},\"state\":\"{state}\"");
            }
            EventKind::Close { w } => {
                let _ = write!(out, ",\"w\":{w}");
            }
            EventKind::GateEnter {
                w,
                iter,
                min,
                lead,
                row,
            } => {
                let _ = write!(
                    out,
                    ",\"w\":{w},\"iter\":{iter},\"min\":{min},\"lead\":{lead},\"row\":{row}"
                );
            }
            EventKind::GateExit { w, iter, waited } => {
                let _ = write!(out, ",\"w\":{w},\"iter\":{iter},\"waited\":{waited}");
            }
            EventKind::PushStart {
                w,
                iter,
                rows,
                mand,
                mta,
                budget,
            } => {
                let _ = write!(
                    out,
                    ",\"w\":{w},\"iter\":{iter},\"rows\":{rows},\"mand\":{mand},\"mta\":{mta},\"budget\":{budget}"
                );
            }
            EventKind::PushEnd {
                w,
                iter,
                rows,
                bytes,
            } => {
                let _ = write!(
                    out,
                    ",\"w\":{w},\"iter\":{iter},\"rows\":{rows},\"bytes\":{bytes}"
                );
            }
            EventKind::PullStart { w, iter, bytes } => {
                let _ = write!(out, ",\"w\":{w},\"iter\":{iter},\"bytes\":{bytes}");
            }
            EventKind::PullEnd { w, iter } => {
                let _ = write!(out, ",\"w\":{w},\"iter\":{iter}");
            }
            EventKind::RowPush { w, iter, rows } | EventKind::RowPull { w, iter, rows } => {
                let _ = write!(out, ",\"w\":{w},\"iter\":{iter},\"rows\":");
                push_rows(out, rows);
            }
            EventKind::Retransmit { w, rows, class } => {
                let _ = write!(out, ",\"w\":{w},\"rows\":{rows},\"class\":\"{class}\"");
            }
            EventKind::Backoff { w, until } => {
                let _ = write!(out, ",\"w\":{w},\"until\":{until}");
            }
            EventKind::Loss {
                w,
                lost,
                corrupt,
                chunks,
            } => {
                let _ = write!(
                    out,
                    ",\"w\":{w},\"lost\":{lost},\"corrupt\":{corrupt},\"chunks\":{chunks}"
                );
            }
            EventKind::Fault { kind, w } => {
                let _ = write!(out, ",\"kind\":\"{kind}\",\"w\":{w}");
            }
            EventKind::ResyncStart { w, bytes } => {
                let _ = write!(out, ",\"w\":{w},\"bytes\":{bytes}");
            }
            EventKind::ResyncEnd { w, iter } => {
                let _ = write!(out, ",\"w\":{w},\"iter\":{iter}");
            }
            EventKind::Mta { w, secs, budget } => {
                let _ = write!(out, ",\"w\":{w},\"secs\":{secs},\"budget\":{budget}");
            }
            EventKind::AggMerge {
                agg,
                rows,
                raw,
                pushes,
                ver,
            } => {
                let _ = write!(
                    out,
                    ",\"agg\":{agg},\"rows\":{rows},\"raw\":{raw},\"pushes\":{pushes},\"ver\":{ver}"
                );
            }
            EventKind::AutoThreshold { threshold } => {
                let _ = write!(out, ",\"threshold\":{threshold}");
            }
            EventKind::ThresholdAdapt { w, threshold } => {
                let _ = write!(out, ",\"w\":{w},\"threshold\":{threshold}");
            }
            EventKind::CodecSelect { w, codec } => {
                let _ = write!(out, ",\"w\":{w},\"codec\":\"{codec}\"");
            }
            EventKind::RunEnd { iters, duration } => {
                let _ = write!(out, ",\"iters\":{iters},\"duration\":{duration}");
            }
            EventKind::PeerUp { w } | EventKind::PeerDown { w } => {
                let _ = write!(out, ",\"w\":{w}");
            }
            EventKind::WireDrop { w, kind } => {
                let _ = write!(out, ",\"w\":{w},\"kind\":\"{kind}\"");
            }
        }
        out.push_str("}\n");
    }
}

/// A parsed JSONL field value (numbers, strings, and flat number
/// arrays are all the journal format contains).
#[derive(Debug, Clone, PartialEq)]
pub enum Val {
    /// A JSON number, kept as its exact source text plus parsed value.
    Num(f64),
    /// A JSON string (unescaped).
    Str(String),
    /// A flat array of numbers.
    Arr(Vec<f64>),
}

impl Val {
    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Val::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One parsed journal line: flat key → value map in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Fields in their order of appearance (`t`, `seq`, `ev`, …).
    pub fields: Vec<(String, Val)>,
}

impl Record {
    /// Looks up a field by key.
    pub fn get(&self, key: &str) -> Option<&Val> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric field by key.
    pub fn num(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Val::as_f64)
    }

    /// String field by key.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Val::as_str)
    }

    /// The `ev` event name.
    pub fn ev(&self) -> &str {
        self.str("ev").unwrap_or("")
    }

    /// The `t` timestamp.
    pub fn t(&self) -> f64 {
        self.num("t").unwrap_or(0.0)
    }

    /// The device index in `w`: a whole number in `u32` range, so a
    /// replay keyed by it costs one map entry per device named, however
    /// large the index.
    ///
    /// # Errors
    ///
    /// Names the event when `w` is missing or is not such a number.
    pub fn device(&self) -> Result<u32, String> {
        let ev = self.ev();
        let w = self.num("w").ok_or_else(|| format!("{ev} without w"))?;
        if w.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&w) {
            return Err(format!("{ev} names device {w}, not a u32 index"));
        }
        Ok(w as u32)
    }

    /// Parses one JSONL journal line (a flat JSON object).
    pub fn parse(line: &str) -> Result<Record, String> {
        let mut p = Parser {
            b: line.as_bytes(),
            i: 0,
        };
        p.skip_ws();
        p.expect(b'{')?;
        let mut fields = Vec::new();
        p.skip_ws();
        if p.peek() == Some(b'}') {
            return Ok(Record { fields });
        }
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let val = p.value()?;
            fields.push((key, val));
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
        Ok(Record { fields })
    }
}

/// Minimal parser for the journal's flat JSON subset.
struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.next() {
            Some(g) if g == c => Ok(()),
            other => Err(format!("expected {:?}, got {other:?}", c as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.next() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("truncated \\u escape")?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or("bad hex digit in \\u escape")?;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) if c < 0x80 => s.push(c as char),
                Some(c) => {
                    // Multi-byte UTF-8: copy the raw bytes of the scalar.
                    let start = self.i - 1;
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.b.len());
                    s.push_str(
                        std::str::from_utf8(&self.b[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        let start = self.i;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map_err(|e| format!("bad number: {e}"))
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.peek() {
            Some(b'"') => Ok(Val::Str(self.string()?)),
            Some(b'[') => {
                self.i += 1;
                let mut arr = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.i += 1;
                    return Ok(Val::Arr(arr));
                }
                loop {
                    self.skip_ws();
                    arr.push(self.number()?);
                    self.skip_ws();
                    match self.next() {
                        Some(b',') => continue,
                        Some(b']') => break,
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
                Ok(Val::Arr(arr))
            }
            Some(b'0'..=b'9' | b'-') => Ok(Val::Num(self.number()?)),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: EventKind) -> Record {
        let ev = Event {
            t: 1.25,
            seq: 7,
            shard: Event::NO_SHARD,
            kind,
        };
        let mut s = String::new();
        ev.write_jsonl(&mut s);
        assert!(s.ends_with('\n'));
        Record::parse(s.trim_end()).expect("parse")
    }

    #[test]
    fn encode_and_parse_push_start() {
        let r = roundtrip(EventKind::PushStart {
            w: 2,
            iter: 5,
            rows: 11,
            mand: 3,
            mta: 2,
            budget: 0.5,
        });
        assert_eq!(r.ev(), "push_start");
        assert_eq!(r.t(), 1.25);
        assert_eq!(r.num("seq"), Some(7.0));
        assert_eq!(r.num("rows"), Some(11.0));
        assert_eq!(r.num("budget"), Some(0.5));
    }

    #[test]
    fn encode_and_parse_row_plan() {
        let r = roundtrip(EventKind::RowPush {
            w: 0,
            iter: 3,
            rows: vec![4, 0, 9],
        });
        assert_eq!(
            r.get("rows"),
            Some(&Val::Arr(vec![4.0, 0.0, 9.0])),
            "rank order preserved"
        );
    }

    #[test]
    fn encode_and_parse_agg_merge() {
        let r = roundtrip(EventKind::AggMerge {
            agg: 3,
            rows: 8,
            raw: 20,
            pushes: 4,
            ver: 17,
        });
        assert_eq!(r.ev(), "agg_merge");
        assert_eq!(r.num("agg"), Some(3.0));
        assert_eq!(r.num("rows"), Some(8.0));
        assert_eq!(r.num("raw"), Some(20.0));
        assert_eq!(r.num("pushes"), Some(4.0));
        assert_eq!(r.num("ver"), Some(17.0));
    }

    #[test]
    fn meta_name_is_escaped() {
        let r = roundtrip(EventKind::Meta {
            name: "a \"b\"\nc".into(),
            seed: 42,
        });
        assert_eq!(r.str("name"), Some("a \"b\"\nc"));
        assert_eq!(r.num("seed"), Some(42.0));
    }

    #[test]
    fn float_formatting_is_shortest_roundtrip() {
        let ev = Event {
            t: 0.1 + 0.2,
            seq: 0,
            shard: Event::NO_SHARD,
            kind: EventKind::Close { w: 0 },
        };
        let mut s = String::new();
        ev.write_jsonl(&mut s);
        assert!(s.starts_with("{\"t\":0.30000000000000004,"), "{s}");
        let r = Record::parse(s.trim_end()).unwrap();
        assert_eq!(r.t(), 0.1 + 0.2);
    }

    #[test]
    fn shard_field_appears_only_when_scoped() {
        let mut unsharded = String::new();
        Event {
            t: 1.0,
            seq: 0,
            shard: Event::NO_SHARD,
            kind: EventKind::PullEnd { w: 0, iter: 3 },
        }
        .write_jsonl(&mut unsharded);
        assert!(!unsharded.contains("shard"), "{unsharded}");

        let mut sharded = String::new();
        Event {
            t: 1.0,
            seq: 0,
            shard: 2,
            kind: EventKind::PullEnd { w: 0, iter: 3 },
        }
        .write_jsonl(&mut sharded);
        assert!(
            sharded.starts_with("{\"t\":1,\"seq\":0,\"ev\":\"pull_end\",\"shard\":2,"),
            "{sharded}"
        );
        let r = Record::parse(sharded.trim_end()).unwrap();
        assert_eq!(r.num("shard"), Some(2.0));
    }

    #[test]
    fn every_kind_has_a_distinct_wire_name() {
        let kinds = vec![
            EventKind::Meta {
                name: String::new(),
                seed: 0,
            },
            EventKind::IterBegin { w: 0, iter: 0 },
            EventKind::IterEnd { w: 0, iter: 0 },
            EventKind::State {
                w: 0,
                state: "compute",
            },
            EventKind::Close { w: 0 },
            EventKind::GateEnter {
                w: 0,
                iter: 0,
                min: 0,
                lead: 0,
                row: -1,
            },
            EventKind::GateExit {
                w: 0,
                iter: 0,
                waited: 0.0,
            },
            EventKind::PushStart {
                w: 0,
                iter: 0,
                rows: 0,
                mand: 0,
                mta: 0,
                budget: -1.0,
            },
            EventKind::PushEnd {
                w: 0,
                iter: 0,
                rows: 0,
                bytes: 0,
            },
            EventKind::PullStart {
                w: 0,
                iter: 0,
                bytes: 0,
            },
            EventKind::PullEnd { w: 0, iter: 0 },
            EventKind::RowPush {
                w: 0,
                iter: 0,
                rows: vec![],
            },
            EventKind::RowPull {
                w: 0,
                iter: 0,
                rows: vec![],
            },
            EventKind::Retransmit {
                w: 0,
                rows: 0,
                class: "mandatory",
            },
            EventKind::Backoff { w: 0, until: 0.0 },
            EventKind::Loss {
                w: 0,
                lost: 0,
                corrupt: 0,
                chunks: 0,
            },
            EventKind::Fault {
                kind: "worker_down",
                w: 0,
            },
            EventKind::ResyncStart { w: 0, bytes: 0 },
            EventKind::ResyncEnd { w: 0, iter: 0 },
            EventKind::Mta {
                w: 0,
                secs: 0.0,
                budget: 0.0,
            },
            EventKind::AggMerge {
                agg: 0,
                rows: 0,
                raw: 0,
                pushes: 0,
                ver: 0,
            },
            EventKind::AutoThreshold { threshold: 0 },
            EventKind::ThresholdAdapt { w: 0, threshold: 0 },
            EventKind::CodecSelect {
                w: 0,
                codec: "onebit",
            },
            EventKind::RunEnd {
                iters: 0,
                duration: 0.0,
            },
            EventKind::PeerUp { w: 0 },
            EventKind::PeerDown { w: 0 },
            EventKind::WireDrop { w: 0, kind: "crc" },
        ];
        let mut names: Vec<&str> = kinds.iter().map(EventKind::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "duplicate wire name");
    }
}

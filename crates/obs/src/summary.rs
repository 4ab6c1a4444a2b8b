//! Journal aggregation: replaying a JSONL journal into a Fig.8-style
//! per-iteration composition table.
//!
//! The replay mirrors `rog-sim`'s `Timeline` float arithmetic
//! operation-for-operation (same additions, same order), so the
//! composition derived from a journal is bitwise identical to the one
//! `RunMetrics` reports for the same run — the journal-vs-aggregate
//! cross-check the test suite pins.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::Record;

/// Device state names in `rog-sim` display order; indices match
/// `DeviceState::ALL`.
pub const STATE_NAMES: [&str; 5] = ["compute", "communicate", "stall", "idle", "offline"];

const COMPUTE: usize = 0;
const COMMUNICATE: usize = 1;
const STALL: usize = 2;
const OFFLINE: usize = 4;

/// Aggregates of one parsed journal.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Run display name from the `meta` header.
    pub name: String,
    /// RNG seed from the `meta` header.
    pub seed: u64,
    /// Total iterations across workers (from `run_end`).
    pub iters: u64,
    /// Virtual run duration in seconds (from `run_end`).
    pub duration: f64,
    /// Number of devices observed in state events.
    pub n_devices: usize,
    /// Per-device residency seconds, indexed `[device][state]` with
    /// states in [`STATE_NAMES`] order.
    pub residency: Vec<[f64; 5]>,
    /// Event counts by wire name.
    pub event_counts: BTreeMap<String, u64>,
    /// Total gate wait seconds (sum of `gate_exit.waited`).
    pub gate_wait_total: f64,
    /// Longest single gate wait.
    pub gate_wait_max: f64,
    /// Payload bytes from `push_end` events.
    pub bytes_pushed: u64,
    /// Rows re-sent by `retransmit` events.
    pub rows_retransmitted: u64,
    /// Chunks lost / corrupt from `loss` events.
    pub chunks_lost: u64,
    /// Chunks delivered damaged.
    pub chunks_corrupt: u64,
    /// Journal lines parsed.
    pub lines: usize,
}

/// Replay of one device's timeline, mirroring `Timeline::set_state` /
/// `Timeline::close` exactly: a span contributes `end - start` only
/// when strictly positive, additions happen in span order.
#[derive(Debug, Clone)]
struct DeviceReplay {
    open: Option<(usize, f64)>,
    res: [f64; 5],
}

impl Default for DeviceReplay {
    fn default() -> Self {
        DeviceReplay {
            open: None,
            // -0.0 is the identity `Sum for f64` folds from, so a state
            // with no spans reproduces `Timeline::time_in`'s empty sum
            // bit-for-bit (it is -0.0, not +0.0).
            res: [-0.0; 5],
        }
    }
}

impl DeviceReplay {
    fn set_state(&mut self, t: f64, state: usize) {
        if let Some((cur, start)) = self.open {
            if cur == state {
                return;
            }
            if t > start {
                self.res[cur] += t - start;
            }
        }
        self.open = Some((state, t));
    }

    fn close(&mut self, t: f64) {
        if let Some((cur, start)) = self.open.take() {
            if t > start {
                self.res[cur] += t - start;
            }
        }
    }
}

impl TraceSummary {
    /// Parses and aggregates a JSONL journal.
    pub fn from_jsonl(text: &str) -> Result<TraceSummary, String> {
        let mut devices: Vec<DeviceReplay> = Vec::new();
        let mut event_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut name = String::new();
        let mut seed = 0u64;
        let mut iters = 0u64;
        let mut duration = 0.0f64;
        let mut gate_wait_total = 0.0f64;
        let mut gate_wait_max = 0.0f64;
        let mut bytes_pushed = 0u64;
        let mut rows_retransmitted = 0u64;
        let mut chunks_lost = 0u64;
        let mut chunks_corrupt = 0u64;
        let mut lines = 0usize;

        let dev = |devices: &mut Vec<DeviceReplay>, w: usize| {
            if devices.len() <= w {
                devices.resize_with(w + 1, DeviceReplay::default);
            }
        };

        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec = Record::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            lines += 1;
            let ev = rec.ev().to_string();
            *event_counts.entry(ev.clone()).or_insert(0) += 1;
            let t = rec.t();
            match ev.as_str() {
                "meta" => {
                    name = rec.str("name").unwrap_or("").to_string();
                    seed = rec.num("seed").unwrap_or(0.0) as u64;
                }
                "state" => {
                    let w = rec.num("w").ok_or("state without w")? as usize;
                    let s = rec.str("state").ok_or("state without state")?;
                    let idx = STATE_NAMES
                        .iter()
                        .position(|&n| n == s)
                        .ok_or_else(|| format!("unknown state {s:?}"))?;
                    dev(&mut devices, w);
                    devices[w].set_state(t, idx);
                }
                "close" => {
                    let w = rec.num("w").ok_or("close without w")? as usize;
                    dev(&mut devices, w);
                    devices[w].close(t);
                }
                "gate_exit" => {
                    let waited = rec.num("waited").unwrap_or(0.0);
                    gate_wait_total += waited;
                    if waited > gate_wait_max {
                        gate_wait_max = waited;
                    }
                }
                "push_end" => {
                    bytes_pushed += rec.num("bytes").unwrap_or(0.0) as u64;
                }
                "retransmit" => {
                    rows_retransmitted += rec.num("rows").unwrap_or(0.0) as u64;
                }
                "loss" => {
                    chunks_lost += rec.num("lost").unwrap_or(0.0) as u64;
                    chunks_corrupt += rec.num("corrupt").unwrap_or(0.0) as u64;
                }
                "run_end" => {
                    iters = rec.num("iters").unwrap_or(0.0) as u64;
                    duration = rec.num("duration").unwrap_or(0.0);
                }
                _ => {}
            }
        }

        Ok(TraceSummary {
            name,
            seed,
            iters,
            duration,
            n_devices: devices.len(),
            residency: devices.into_iter().map(|d| d.res).collect(),
            event_counts,
            gate_wait_total,
            gate_wait_max,
            bytes_pushed,
            rows_retransmitted,
            chunks_lost,
            chunks_corrupt,
            lines,
        })
    }

    /// Cluster residency for `state` (index into [`STATE_NAMES`]),
    /// summed over devices in index order — the same summation order
    /// `RunRecord::finish` (`rog-trainer`) uses over timelines.
    pub fn cluster_residency(&self, state: usize) -> f64 {
        self.residency.iter().map(|r| r[state]).sum()
    }

    /// Per-iteration composition `[compute, communicate, stall,
    /// offline]`, computed with the exact arithmetic of
    /// `RunRecord::finish` (zero when no iterations ran).
    pub fn composition(&self) -> [f64; 4] {
        if self.iters == 0 {
            return [0.0; 4];
        }
        let per = |s: usize| (self.cluster_residency(s) / self.iters as f64).max(0.0);
        [per(COMPUTE), per(COMMUNICATE), per(STALL), per(OFFLINE)]
    }

    /// Renders the Fig.8-style per-iteration composition table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {}", self.name);
        let _ = writeln!(
            out,
            "seed: {}  devices: {}  iterations: {}  duration: {:.3} s  journal lines: {}",
            self.seed, self.n_devices, self.iters, self.duration, self.lines
        );
        let comp = self.composition();
        let total: f64 = comp.iter().sum();
        let _ = writeln!(out, "\nper-iteration composition (s/iter):");
        let labels = ["compute", "communicate", "stall", "offline"];
        for (label, v) in labels.iter().zip(comp) {
            let pct = if total > 0.0 { 100.0 * v / total } else { 0.0 };
            let _ = writeln!(out, "  {label:<12} {v:>12.6}  {pct:>6.2}%");
        }
        let _ = writeln!(out, "  {:<12} {total:>12.6}", "total");
        let _ = writeln!(
            out,
            "\ngate waits: total {:.6} s, max {:.6} s",
            self.gate_wait_total, self.gate_wait_max
        );
        let _ = writeln!(
            out,
            "bytes pushed: {}  rows retransmitted: {}  chunks lost/corrupt: {}/{}",
            self.bytes_pushed, self.rows_retransmitted, self.chunks_lost, self.chunks_corrupt
        );
        let _ = writeln!(out, "\nevents:");
        for (ev, n) in &self.event_counts {
            let _ = writeln!(out, "  {ev:<16} {n:>10}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn journal_text(events: &[(f64, EventKind)]) -> String {
        let mut s = String::new();
        for (i, (t, k)) in events.iter().enumerate() {
            Event {
                t: *t,
                seq: i as u64,
                shard: Event::NO_SHARD,
                kind: k.clone(),
            }
            .write_jsonl(&mut s);
        }
        s
    }

    #[test]
    fn replay_reproduces_timeline_residencies() {
        // Mirrors timeline.rs::transitions_accumulate_durations.
        let text = journal_text(&[
            (
                0.0,
                EventKind::State {
                    w: 0,
                    state: "compute",
                },
            ),
            (
                2.0,
                EventKind::State {
                    w: 0,
                    state: "communicate",
                },
            ),
            (
                3.0,
                EventKind::State {
                    w: 0,
                    state: "stall",
                },
            ),
            (
                3.5,
                EventKind::State {
                    w: 0,
                    state: "compute",
                },
            ),
            (5.0, EventKind::Close { w: 0 }),
            (
                5.0,
                EventKind::RunEnd {
                    iters: 2,
                    duration: 5.0,
                },
            ),
        ]);
        let s = TraceSummary::from_jsonl(&text).unwrap();
        assert_eq!(s.n_devices, 1);
        assert_eq!(s.residency[0][COMPUTE], 3.5);
        assert_eq!(s.residency[0][COMMUNICATE], 1.0);
        assert_eq!(s.residency[0][STALL], 0.5);
        let comp = s.composition();
        assert_eq!(comp[0], 1.75);
        assert_eq!(comp[1], 0.5);
        assert_eq!(comp[2], 0.25);
        assert_eq!(comp[3], 0.0);
    }

    #[test]
    fn zero_length_spans_are_dropped_like_timeline() {
        let text = journal_text(&[
            (
                1.0,
                EventKind::State {
                    w: 0,
                    state: "compute",
                },
            ),
            (
                1.0,
                EventKind::State {
                    w: 0,
                    state: "stall",
                },
            ),
            (2.0, EventKind::Close { w: 0 }),
        ]);
        let s = TraceSummary::from_jsonl(&text).unwrap();
        assert_eq!(s.residency[0][COMPUTE], 0.0);
        assert_eq!(s.residency[0][STALL], 1.0);
    }

    #[test]
    fn gauges_and_counts_aggregate() {
        let text = journal_text(&[
            (
                0.0,
                EventKind::Meta {
                    name: "x".into(),
                    seed: 9,
                },
            ),
            (
                1.0,
                EventKind::GateExit {
                    w: 0,
                    iter: 1,
                    waited: 0.25,
                },
            ),
            (
                2.0,
                EventKind::GateExit {
                    w: 1,
                    iter: 1,
                    waited: 0.75,
                },
            ),
            (
                3.0,
                EventKind::PushEnd {
                    w: 0,
                    iter: 1,
                    rows: 3,
                    bytes: 123,
                },
            ),
            (
                4.0,
                EventKind::Loss {
                    w: 0,
                    lost: 1,
                    corrupt: 2,
                    chunks: 8,
                },
            ),
        ]);
        let s = TraceSummary::from_jsonl(&text).unwrap();
        assert_eq!(s.name, "x");
        assert_eq!(s.seed, 9);
        assert_eq!(s.event_counts.get("gate_exit"), Some(&2));
        assert!((s.gate_wait_total - 1.0).abs() < 1e-12);
        assert!((s.gate_wait_max - 0.75).abs() < 1e-12);
        assert_eq!(s.bytes_pushed, 123);
        assert_eq!(s.chunks_lost, 1);
        assert_eq!(s.chunks_corrupt, 2);
        let rendered = s.render();
        assert!(rendered.contains("per-iteration composition"));
        assert!(rendered.contains("gate_exit"));
    }

    #[test]
    fn no_iterations_means_zero_composition() {
        let text = journal_text(&[
            (
                0.0,
                EventKind::State {
                    w: 0,
                    state: "idle",
                },
            ),
            (1.0, EventKind::Close { w: 0 }),
        ]);
        let s = TraceSummary::from_jsonl(&text).unwrap();
        assert_eq!(s.composition(), [0.0; 4]);
    }

    #[test]
    fn bad_line_reports_line_number() {
        let err = TraceSummary::from_jsonl("{\"t\":1}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}

//! Journal aggregation: replaying a JSONL journal into a Fig.8-style
//! per-iteration composition table.
//!
//! The replay rebuilds each device's `rog-sim` [`Timeline`] from its
//! `state` and `close` records and composes through the same
//! [`residency`] / [`per_iteration`] helpers `RunRecord::finish` uses, so
//! the composition derived from a journal is bitwise the one
//! `RunMetrics` reports for the same run — the journal-vs-aggregate
//! cross-check `RunMetrics::reconcile` makes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use rog_sim::{per_iteration, residency, DeviceState, Timeline};

use crate::event::Record;

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
    /// The timeline of each device a `state` or `close` record names,
    /// rebuilt from those records, by device index.
    pub timelines: BTreeMap<u32, Timeline>,
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

/// The timeline of the device a `state` / `close` record names, if its
/// `w` is a device index ([`Record::device`]) and its timeline can take
/// the record at `t`.
fn device<'a>(
    timelines: &'a mut BTreeMap<u32, Timeline>,
    rec: &Record,
    t: f64,
) -> Result<&'a mut Timeline, String> {
    let w = rec.device()?;
    let tl = timelines.entry(w).or_default();
    if !tl.admits(t) {
        return Err(format!(
            "{} at t={t} is not finite or precedes device {w}'s open span",
            rec.ev()
        ));
    }
    Ok(tl)
}

impl TraceSummary {
    /// Parses and aggregates a JSONL journal.
    ///
    /// # Errors
    ///
    /// Names the line that does not parse, lacks a field its event
    /// needs, names an unknown state, or carries a `state` / `close`
    /// time its device's timeline cannot take (non-finite, or before
    /// the open span: [`Timeline::admits`]).
    pub fn from_jsonl(text: &str) -> Result<TraceSummary, String> {
        let mut timelines = BTreeMap::new();
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

        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", lineno + 1);
            let rec = Record::parse(line).map_err(at)?;
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
                    let s = rec
                        .str("state")
                        .ok_or_else(|| at("state without state".into()))?;
                    let state = DeviceState::ALL
                        .into_iter()
                        .find(|d| d.name() == s)
                        .ok_or_else(|| at(format!("unknown state {s:?}")))?;
                    device(&mut timelines, &rec, t)
                        .map_err(at)?
                        .set_state(t, state);
                }
                "close" => device(&mut timelines, &rec, t).map_err(at)?.close(t),
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
            timelines,
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

    /// One past the highest device index a record names (0 when none
    /// does): the devices a dense, index-ordered record would hold.
    pub fn devices(&self) -> usize {
        self.timelines
            .last_key_value()
            .map_or(0, |(&w, _)| w as usize + 1)
    }

    /// Cluster residency in `state`, summed over devices in index order.
    pub fn cluster_residency(&self, state: DeviceState) -> f64 {
        residency(self.timelines.values(), state)
    }

    /// Per-iteration composition `[compute, communicate, stall,
    /// offline]` (zero when no iterations ran).
    pub fn composition(&self) -> [f64; 4] {
        [
            DeviceState::Compute,
            DeviceState::Communicate,
            DeviceState::Stall,
            DeviceState::Offline,
        ]
        .map(|s| per_iteration(self.timelines.values(), s, self.iters))
    }

    /// Renders the Fig.8-style per-iteration composition table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "trace: {}", self.name);
        let _ = writeln!(
            out,
            "seed: {}  devices: {}  iterations: {}  duration: {:.3} s  journal lines: {}",
            self.seed,
            self.timelines.len(),
            self.iters,
            self.duration,
            self.lines
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
    fn a_device_index_must_be_a_u32_and_costs_one_timeline() {
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
        let naming = |w: &str| text.replace("\"w\":0", &format!("\"w\":{w}"));
        for w in ["1e20", "-1", "0.5", "4294967296"] {
            let err = TraceSummary::from_jsonl(&naming(w)).unwrap_err();
            assert!(err.starts_with("line 1: state names device"), "{w}: {err}");
        }
        let far = TraceSummary::from_jsonl(&naming("1e9")).unwrap();
        assert_eq!(far.timelines.len(), 1);
        assert_eq!(far.devices(), 1_000_000_001);
        assert_eq!(far.composition(), [0.0; 4]);
    }

    #[test]
    fn bad_line_reports_line_number() {
        let err = TraceSummary::from_jsonl("{\"t\":1}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}

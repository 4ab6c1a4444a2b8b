//! The timed pass: whole operations, no spans.
//!
//! One *operation* (rep) is
//! `calib → run (+ journal → JSONL → gzip) → calib → Cluster::build → calib`.
//! It fails if it panics, if its virtual results differ in any bit from
//! the workload's first rep, or if an output check fails.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rog_obs::{gz, Journal, TraceSummary};
use rog_trainer::{Cluster, FleetStats, RunMetrics, RunOutcome};

use crate::alloc;
use crate::calib::{Calib, CAL_NOMINAL_S};
use crate::stats::{f64_bits, fnv1a, normalise};
use crate::workloads::Workload;

/// CRUDA accuracy (%) whose first crossing is the time-to-target metric.
pub const TARGET_ACCURACY: f64 = 57.0;

/// What the timed operation of a workload produced.
pub struct Output {
    /// Metrics, fleet statistics and (journaled workloads) the journal.
    pub outcome: RunOutcome,
    /// Journaled workloads: the JSONL text and its gzip.
    pub artefacts: Option<(String, Vec<u8>)>,
}

/// The operation a user waits for: the run, and for a journaled
/// workload the serialisation `rogctl trace --out x.jsonl.gz` does.
pub fn operation(w: &Workload) -> Output {
    let outcome = w.cfg.options().traced(w.journaled).run();
    let artefacts = outcome.journal.as_ref().map(|j| {
        let jsonl = j.to_jsonl();
        let gz = gz::gzip_compress(jsonl.as_bytes());
        (jsonl, gz)
    });
    Output { outcome, artefacts }
}

/// Output checks of a journaled operation, run outside the timed region.
pub fn check_artefacts(out: &Output) -> Result<(), String> {
    match (&out.outcome.journal, &out.artefacts) {
        (Some(journal), Some((jsonl, gz))) => {
            check_journal(journal, &out.outcome.metrics, jsonl, gz)
        }
        _ => Ok(()),
    }
}

/// A journal is good when it dropped nothing, its JSONL replays to the
/// run's time composition bit for bit, and its gzip unpacks to the JSONL.
pub fn check_journal(
    journal: &Journal,
    metrics: &RunMetrics,
    jsonl: &str,
    gz: &[u8],
) -> Result<(), String> {
    if journal.dropped() != 0 {
        return Err(format!("journal dropped {} events", journal.dropped()));
    }
    let replayed = TraceSummary::from_jsonl(jsonl)?.composition();
    let c = metrics.composition;
    let expected = [c.compute, c.communicate, c.stall, c.offline];
    if replayed.map(f64_bits) != expected.map(f64_bits) {
        return Err(format!(
            "journal replay composition {replayed:?} != metrics composition {expected:?}"
        ));
    }
    if gz::gzip_decompress(gz)?.as_slice() != jsonl.as_bytes() {
        return Err("gzip round trip changed the journal".to_owned());
    }
    Ok(())
}

/// Every bit of the virtual results, `-0.0` folded: equality of two of
/// these is "simulated statistics unchanged".
pub fn virt_bits(m: &RunMetrics, st: &FleetStats) -> Vec<u64> {
    let mut b: Vec<u64> = Vec::with_capacity(32 + 4 * m.checkpoints.len());
    b.extend(m.name.bytes().map(u64::from));
    b.push(m.checkpoints.len() as u64);
    for c in &m.checkpoints {
        b.extend([
            c.iter,
            f64_bits(c.time),
            f64_bits(c.metric),
            f64_bits(c.energy_j),
        ]);
    }
    b.extend(
        [
            m.composition.compute,
            m.composition.communicate,
            m.composition.stall,
            m.composition.offline,
            m.mean_iterations,
            m.duration,
            m.total_energy_j,
            m.useful_bytes,
            m.wasted_bytes,
            m.lost_bytes,
            m.corrupt_bytes,
            m.stall_secs,
            m.offline_secs,
            m.final_model_divergence,
        ]
        .map(f64_bits),
    );
    b.push(m.micro.len() as u64);
    for s in &m.micro {
        b.extend([
            f64_bits(s.time),
            f64_bits(s.bandwidth_bps),
            f64_bits(s.transmission_rate),
        ]);
        b.push(s.staleness);
    }
    b.extend([
        st.sim_events,
        st.queue_scheduled,
        st.peak_version_bytes,
        st.agg_flushes,
        st.agg_upstream_rows,
        st.agg_raw_rows,
        st.agg_pulls,
    ]);
    b
}

/// The virtual-time (paper) metrics of one run. Deterministic: they
/// repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virt {
    /// `RunMetrics.mean_iterations`.
    pub iters_per_worker: f64,
    /// `stall_secs / (n_workers × duration)`.
    pub stall_share: f64,
    /// `total_energy_j / worker-iterations`.
    pub energy_j_per_iter: f64,
    /// Virtual time of the first checkpoint at or above
    /// [`TARGET_ACCURACY`]; `None` when the budget ends first.
    pub time_to_target_s: Option<f64>,
    /// `useful_bytes / worker-iterations / 1e6`.
    pub wire_mb_per_iter: f64,
    /// `(wasted+lost+corrupt) / (useful+wasted+lost+corrupt)`.
    pub wire_waste_share: f64,
    /// `useful_bytes / 1e6`: the simulated traffic delivered, the unit
    /// of work host costs are reported against (it tracks host work
    /// across seeds far better than the iteration count does).
    pub useful_mb: f64,
}

impl Virt {
    /// Derives the metrics from a run of `n_workers` workers.
    pub fn of(m: &RunMetrics, n_workers: usize) -> Self {
        let worker_iters = m.mean_iterations * n_workers as f64;
        let bad = m.wasted_bytes + m.lost_bytes + m.corrupt_bytes;
        Self {
            iters_per_worker: m.mean_iterations,
            stall_share: m.stall_secs / (n_workers as f64 * m.duration),
            energy_j_per_iter: m.total_energy_j / worker_iters,
            time_to_target_s: m
                .checkpoints
                .iter()
                .find(|c| c.metric >= TARGET_ACCURACY)
                .map(|c| c.time),
            wire_mb_per_iter: m.useful_bytes / worker_iters / 1e6,
            wire_waste_share: bad / (m.useful_bytes + bad),
            useful_mb: m.useful_bytes / 1e6,
        }
    }
}

/// Host cost of one successful rep.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Wall seconds of the operation.
    pub run_raw_s: f64,
    /// Speed-normalised seconds of the operation.
    pub run_s: f64,
    /// Wall seconds of `Cluster::build`.
    pub setup_raw_s: f64,
    /// Speed-normalised seconds of `Cluster::build`.
    pub setup_s: f64,
    /// Peak live heap bytes during the operation, above the level at
    /// its start.
    pub peak_heap_bytes: usize,
    /// Allocation calls during the operation.
    pub allocs: u64,
    /// Mean of the three calibration timings around the two measurements.
    pub calib_s: f64,
}

/// The reference a workload's later reps must reproduce.
pub struct Reference {
    /// Bits of the first rep's virtual results.
    pub bits: Vec<u64>,
    /// The paper metrics derived from them.
    pub virt: Virt,
}

impl Reference {
    /// FNV-1a of the virtual results.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.bits)
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panic".to_owned())
}

/// Runs one rep of `w`. The first successful rep fills `reference`;
/// every later one must match it bit for bit.
pub fn one_rep(
    w: &Workload,
    calib: &mut Calib,
    reference: &mut Option<Reference>,
) -> Result<Rep, String> {
    let c0 = calib.run();
    alloc::reset();
    let base = alloc::snapshot().live;
    let start = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| operation(w)))
        .map_err(|p| format!("run panicked: {}", panic_text(p)))?;
    let run_raw_s = start.elapsed().as_secs_f64();
    let heap = alloc::snapshot();
    let c1 = calib.run();

    let start = Instant::now();
    let cluster = catch_unwind(AssertUnwindSafe(|| Cluster::build(&w.cfg)))
        .map_err(|p| format!("Cluster::build panicked: {}", panic_text(p)))?;
    let setup_raw_s = start.elapsed().as_secs_f64();
    drop(cluster);
    let c2 = calib.run();

    check_artefacts(&out)?;
    let bits = virt_bits(&out.outcome.metrics, &out.outcome.stats);
    match reference {
        Some(r) if r.bits != bits => {
            return Err(format!(
                "virtual results differ from the first rep (fingerprint {:016x} vs {:016x})",
                fnv1a(&bits),
                r.fingerprint()
            ));
        }
        Some(_) => {}
        None => {
            *reference = Some(Reference {
                bits,
                virt: Virt::of(&out.outcome.metrics, w.cfg.n_workers),
            });
        }
    }
    Ok(Rep {
        run_raw_s,
        run_s: normalise(run_raw_s, &[c0, c1], CAL_NOMINAL_S),
        setup_raw_s,
        setup_s: normalise(setup_raw_s, &[c1, c2], CAL_NOMINAL_S),
        peak_heap_bytes: heap.peak.saturating_sub(base),
        allocs: heap.calls,
        calib_s: (c0 + c1 + c2) / 3.0,
    })
}

//! The row cycle with no socket and no clock: `n` `WorkerRole`s and one
//! `ServerRole` passed messages by function call, under a seeded drop
//! schedule for the best-effort rows — the live plane's protocol order
//! (mandatory prefix reliable, bulk best-effort, pull request parked on
//! the server until `min(V)` admits it), made deterministic.

use rog::core::{
    Gate, ImportanceMetric, LegId, PushReport, RogWorkerConfig, RowId, ServerRole, ShardMap,
    ShardedServer, WorkerRole,
};
use rog::obs::Journal;
use rog::sync::gate;
use rog::tensor::rng::DetRng;
use rog::tensor::Matrix;

const N_WORKERS: usize = 3;
const N_SHARDS: usize = 2;
const THRESHOLD: u32 = 3;

fn params() -> Vec<Matrix> {
    vec![
        Matrix::zeros(6, 4),
        Matrix::zeros(1, 6),
        Matrix::zeros(5, 6),
        Matrix::zeros(1, 5),
    ]
}

/// One in-memory cluster. `drop_rate` is the share of best-effort rows
/// (push tail and pull) the schedule loses; worker 2 is scheduled an
/// eighth as often as the others, so the fast pair runs into the gate.
struct Cluster {
    workers: Vec<WorkerRole>,
    models: Vec<Vec<Matrix>>,
    iters: Vec<u64>,
    /// The worker has a pull outstanding and may not compute.
    waiting: Vec<bool>,
    server: ServerRole,
    map: ShardMap,
    journal: Journal,
    rng: DetRng,
    drop_rate: f64,
    now: f64,
    /// Every gate verdict, in order: (leg, iter, min(V) then, granted).
    verdicts: Vec<(LegId, u64, u64, bool)>,
    /// Parked pulls a release scan granted.
    releases: usize,
}

impl Cluster {
    fn new(seed: u64, drop_rate: f64) -> Self {
        let ps = params();
        let n_rows = ps.iter().map(Matrix::rows).sum();
        let map = ShardMap::contiguous(n_rows, N_SHARDS);
        let imp = ImportanceMetric::default();
        let plane = ShardedServer::new(&ps, N_WORKERS, THRESHOLD, imp, map.clone());
        Self {
            workers: (0..N_WORKERS)
                .map(|_| WorkerRole::new(&ps, RogWorkerConfig::new(THRESHOLD, 0.05), N_SHARDS))
                .collect(),
            models: vec![ps; N_WORKERS],
            iters: vec![0; N_WORKERS],
            waiting: vec![false; N_WORKERS],
            server: ServerRole::new(plane, None),
            map,
            journal: Journal::new(true),
            rng: DetRng::new(seed),
            drop_rate,
            now: 0.0,
            verdicts: Vec::new(),
            releases: 0,
        }
    }

    fn min(&self, s: usize) -> u64 {
        self.server.server().versions(s).global_min()
    }

    /// Checks a verdict against the shared predicate and logs it.
    fn verdict(&mut self, leg: LegId, n: u64, got: Gate) -> Gate {
        let min = self.min(leg.1);
        let admits = gate::rsp_may_pull(min, n, THRESHOLD);
        assert_eq!(
            got == Gate::Granted,
            admits,
            "leg {leg:?} iter {n}, min(V) {min}: {got:?}"
        );
        self.verdicts.push((leg, n, min, admits));
        got
    }

    /// One compute + push of worker `w`, every leg ending at its gate.
    fn step(&mut self, w: usize) {
        assert!(!self.waiting[w]);
        self.now += 1.0;
        let n = self.iters[w] + 1;
        self.iters[w] = n;
        let grads: Vec<Matrix> = params()
            .iter()
            .map(|m| Matrix::randn(m.rows(), m.cols(), 1.0, &mut self.rng))
            .collect();
        self.workers[w].worker_mut().accumulate(&grads);
        self.workers[w].rank(n);
        self.workers[w].disengage();
        self.waiting[w] = true;
        // Every leg is open before the first one can finish.
        let mut plans = vec![Vec::new(); N_SHARDS];
        for (s, id) in self.workers[w].ranked(&self.map) {
            plans[s].push(id);
        }
        let floors: Vec<_> = (0..N_SHARDS)
            .map(|s| self.workers[w].start_leg(s, &plans[s], n))
            .collect();
        for (s, (plan, floor)) in plans.into_iter().zip(floors).enumerate() {
            let (now, journal) = (self.now, &mut self.journal);
            self.server
                .push_start((w, s), n, floor, &plan, now, journal);
            // The mandatory prefix is reliable; each best-effort row of
            // the admitted tail survives the schedule or does not.
            let admitted = floor.admit(Some(floor.floor + 2));
            let landed: Vec<RowId> = (0..admitted)
                .filter(|&i| i < floor.mandatory || self.rng.uniform() >= self.drop_rate)
                .map(|i| plan[i])
                .collect();
            let mut rows = self.workers[w].commit_landed(&landed, n);
            let advanced = self.server.ingest((w, s), n, &mut rows);
            let sent = PushReport {
                rows: admitted,
                bytes: 0,
                secs: 1.0,
            };
            self.server
                .push_end((w, s), n, sent, self.now, &mut self.journal);
            let got = self
                .server
                .enter_gate((w, s), n, self.now, &mut self.journal);
            if self.verdict((w, s), n, got) == Gate::Granted {
                self.serve((w, s));
            }
            if advanced {
                self.release();
            }
            self.assert_nothing_parked_is_admissible();
        }
    }

    /// Release scan, as a driver runs it when `min(V)` advanced.
    fn release(&mut self) {
        for (leg, n) in self.server.take_parked() {
            let got = self.server.retry(leg, n, true);
            if self.verdict(leg, n, got) == Gate::Granted {
                self.releases += 1;
                self.serve(leg);
            }
        }
    }

    /// "Released exactly when `min(V)` admits it": after every event,
    /// whatever is still parked must still be refused.
    fn assert_nothing_parked_is_admissible(&mut self) {
        for (leg, n) in self.server.take_parked() {
            assert!(
                !gate::rsp_may_pull(self.min(leg.1), n, THRESHOLD),
                "leg {leg:?} iter {n} sits parked although the gate admits it"
            );
            assert_eq!(self.server.retry(leg, n, false), Gate::Parked);
        }
    }

    /// Serves a granted pull; pull rows are best-effort too.
    fn serve(&mut self, (w, s): LegId) {
        let mut plan = Vec::new();
        let (now, journal) = (self.now, &mut self.journal);
        self.server.grant((w, s), now, journal, &mut plan);
        self.server.pull_start((w, s), &plan, 0, now, journal);
        let landed: Vec<RowId> = plan
            .iter()
            .copied()
            .filter(|_| self.rng.uniform() >= self.drop_rate)
            .collect();
        let payload = self.server.settle_pull((w, s), &landed, now, journal);
        self.workers[w].apply(&mut self.models[w], &payload);
        if self.workers[w].finish_leg(s) {
            self.waiting[w] = false;
        }
    }

    /// Runs `steps` scheduling decisions and returns the model bits.
    fn run(&mut self, steps: usize) -> Vec<u32> {
        for _ in 0..steps {
            let ready: Vec<usize> = (0..N_WORKERS).filter(|&w| !self.waiting[w]).collect();
            assert!(!ready.is_empty(), "every worker parked: the gate wedged");
            let fast: Vec<usize> = ready.iter().copied().filter(|&w| w != 2).collect();
            let w = if fast.is_empty() || (ready.contains(&2) && self.rng.index(8) == 0) {
                *ready.last().expect("non-empty")
            } else {
                fast[self.rng.index(fast.len())]
            };
            self.step(w);
        }
        self.models
            .iter()
            .flatten()
            .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }
}

#[test]
fn rsp_bound_holds_at_every_gate_verdict_and_parked_pulls_release_on_time() {
    let mut c = Cluster::new(7, 0.3);
    c.run(400);
    // `verdict` and `assert_nothing_parked_is_admissible` checked every
    // event; the run must have exercised both outcomes and a release.
    let parked = c.verdicts.iter().filter(|v| !v.3).count();
    let granted = c.verdicts.iter().filter(|v| v.3).count();
    assert!(parked > 0, "the straggler never closed a gate");
    assert!(granted > parked, "{granted} grants vs {parked} refusals");
    assert!(c.releases > 0, "no parked pull was ever released");
    // Every worker stays within the bound of the slowest.
    let slowest = *c.iters.iter().min().expect("workers");
    for (w, &n) in c.iters.iter().enumerate() {
        assert!(
            n <= slowest + u64::from(THRESHOLD) + 1,
            "worker {w} at {n}, slowest at {slowest}"
        );
    }
}

#[test]
fn a_dropped_row_keeps_its_mass_and_comes_back_mandatory() {
    // One worker, one leg; the schedule drops one particular row from
    // the best-effort tail every time it is sent.
    let ps = params();
    let n_rows: usize = ps.iter().map(Matrix::rows).sum();
    let map = ShardMap::contiguous(n_rows, 1);
    let mut w = WorkerRole::new(&ps, RogWorkerConfig::new(THRESHOLD, 0.05), 1);
    let victim = RowId(4);
    let mut rng = DetRng::new(11);
    let mut plan = Vec::new();
    let mut came_back = false;
    for n in 1..=u64::from(THRESHOLD) + 1 {
        let grads: Vec<Matrix> = ps
            .iter()
            .map(|m| Matrix::randn(m.rows(), m.cols(), 1.0, &mut rng))
            .collect();
        w.worker_mut().accumulate(&grads);
        w.rank(n);
        plan.clear();
        plan.extend(w.ranked(&map).map(|(_, id)| id));
        let floor = w.start_leg(0, &plan, n);
        let at = plan.iter().position(|&id| id == victim).expect("ranked");
        if at < floor.mandatory {
            // At the bound the row leads the plan and rides the reliable
            // class: it lands, with everything it accumulated meanwhile.
            assert_eq!(n, u64::from(THRESHOLD), "mandatory exactly at the bound");
            let sent = w.commit_landed(&plan[..floor.floor], n);
            let (_, values) = sent.iter().find(|(id, _)| *id == victim).expect("sent");
            assert!(values.iter().any(|v| *v != 0.0), "the mass was carried");
            assert_eq!(w.worker().row_iters()[victim.0], n);
            came_back = true;
            break;
        }
        let landed: Vec<RowId> = plan.iter().copied().filter(|&id| id != victim).collect();
        let before = w.worker().row_mean_abs()[victim.0];
        w.commit_landed(&landed, n);
        // Not committed: stale iteration kept, accumulated gradient kept.
        assert_eq!(w.worker().row_iters()[victim.0], 0);
        assert_eq!(w.worker().row_mean_abs()[victim.0], before);
        assert!(before > 0.0);
    }
    assert!(came_back, "the dropped row never re-ranked as mandatory");
}

#[test]
fn two_runs_are_bit_identical() {
    let run = |seed| {
        let mut c = Cluster::new(seed, 0.25);
        let bits = c.run(200);
        (bits, c.verdicts, c.iters, c.journal.to_jsonl())
    };
    let (a, b) = (run(3), run(3));
    assert!(a == b, "same seed, different run");
    assert!(a.3.contains("\"gate_enter\"") && a.3.contains("\"pull_end\""));
    assert!(run(4).0 != a.0, "the seed must matter");
}

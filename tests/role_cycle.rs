//! The row cycle with no socket and no clock: `n` `WorkerRole`s and one
//! `ServerRole` passed messages by function call, under a seeded drop
//! schedule reported as each round's fates — the push leg resends its
//! lost mandatory rows until they land, the pull request parks on the
//! server until `min(V)` admits it — made deterministic.

use rog::compress::CodecChoice;
use rog::core::gate;
use rog::core::mta::{mta_fraction, Mta};
use rog::core::{
    Gate, ImportanceMetric, LegId, PushReport, Restart, RogWorkerConfig, Round, RowBatch, RowId,
    ServerRole, ShardMap, ShardedServer, WorkerRole,
};
use rog::obs::Journal;
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

/// One in-memory cluster. `drop_rate` is the share of transmitted rows
/// the schedule loses; worker 2 is scheduled an eighth as often as the
/// others, so the fast pair runs into the gate.
struct Cluster {
    workers: Vec<WorkerRole>,
    models: Vec<Vec<Matrix>>,
    iters: Vec<u64>,
    /// The worker has a pull outstanding and may not compute.
    waiting: Vec<bool>,
    /// The worker's link is up; a pull to a worker whose link is down is
    /// cut off and waits on the server, whatever the gate says.
    reachable: Vec<bool>,
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
            reachable: vec![true; N_WORKERS],
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

    /// The schedule's fates of `sent` transmitted rows.
    fn fates(&mut self, sent: usize) -> Vec<bool> {
        (0..sent)
            .map(|_| self.rng.uniform() >= self.drop_rate)
            .collect()
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
        self.workers[w].accumulate(&grads);
        self.workers[w].plan(n, &self.map, self.server.bound(w));
        self.waiting[w] = true;
        for s in 0..N_SHARDS {
            let floor = self.workers[w].floor(s);
            let plan = self.workers[w].push_leg(s).plan();
            let (now, journal) = (self.now, &mut self.journal);
            self.server.push_start((w, s), n, floor, plan, now, journal);
            assert_eq!(self.server.push_started((w, s)), now);
            // Each row of every round survives the schedule or does not;
            // the leg resends the lost mandatory rows until they land.
            let admitted = floor.admit(Some(floor.floor + 2));
            let mut round = Some((Round::Speculative, admitted));
            while let Some((r, sent)) = round {
                let intact = self.fates(sent);
                let role = &mut self.workers[w];
                round = role
                    .push_round(s, r, sent, Some(&intact))
                    .map(|next| (next, role.push_leg(s).rows(next).len()));
            }
            let mut rows = RowBatch::default();
            self.workers[w].commit_push(s, n, &mut rows);
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
                if self.reachable[w] {
                    self.serve((w, s));
                } else {
                    self.server.retry((w, s), n, false);
                }
            }
            if advanced {
                self.release();
            }
            self.assert_nothing_parked_is_admissible();
        }
    }

    /// Release scan, as a driver runs it when `min(V)` advanced.
    fn release(&mut self) {
        for (leg, n) in parked(&mut self.server) {
            if !self.reachable[leg.0] {
                self.server.retry(leg, n, false);
                continue;
            }
            let got = self.server.retry(leg, n, true);
            if self.verdict(leg, n, got) == Gate::Granted {
                self.releases += 1;
                self.serve(leg);
            }
        }
    }

    /// "Released exactly when `min(V)` admits it": after every event,
    /// whatever is still parked must still be refused (or unreachable).
    fn assert_nothing_parked_is_admissible(&mut self) {
        for (leg, n) in parked(&mut self.server) {
            assert!(
                !self.reachable[leg.0] || !gate::rsp_may_pull(self.min(leg.1), n, THRESHOLD),
                "leg {leg:?} iter {n} sits parked although the gate admits it"
            );
            assert_eq!(self.server.retry(leg, n, false), Gate::Parked);
        }
    }

    /// Serves a granted pull; every pull row is best-effort.
    fn serve(&mut self, leg: LegId) {
        let (now, journal) = (self.now, &mut self.journal);
        self.server.grant(leg, now, journal);
        self.server.pull_start(leg, 0, now, journal);
        let intact = self.fates(self.server.pull_leg(leg).plan().len());
        let next = self
            .server
            .pull_round(leg, Round::Speculative, intact.len(), Some(&intact));
        assert_eq!(next, None, "a pull has no must-land rows");
        let mut payload = RowBatch::default();
        self.server
            .settle_pull(leg, now, &mut self.journal, &mut payload);
        let (w, s) = leg;
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
    let mut came_back = false;
    for n in 1..=u64::from(THRESHOLD) + 1 {
        let grads: Vec<Matrix> = ps
            .iter()
            .map(|m| Matrix::randn(m.rows(), m.cols(), 1.0, &mut rng))
            .collect();
        w.accumulate(&grads);
        w.plan(n, &map, Mta::new(THRESHOLD));
        let plan = w.push_leg(0).plan();
        let at = plan.iter().position(|&id| id == victim).expect("ranked");
        let intact: Vec<bool> = plan.iter().map(|&id| id != victim).collect();
        let next = w.push_round(0, Round::Speculative, intact.len(), Some(&intact));
        if at < w.floor(0).mandatory {
            // At the bound the row leads the plan and must land: the leg
            // resends it, with everything it accumulated meanwhile.
            assert_eq!(n, u64::from(THRESHOLD), "mandatory exactly at the bound");
            assert_eq!(next, Some(Round::Retransmit));
            assert_eq!(w.push_leg(0).rows(Round::Retransmit), [victim]);
            assert_eq!(w.push_round(0, Round::Retransmit, 1, Some(&[true])), None);
            let mut sent = RowBatch::default();
            w.commit_push(0, n, &mut sent);
            let (_, values) = sent.iter().find(|(id, _)| *id == victim).expect("sent");
            assert!(values.iter().any(|v| *v != 0.0), "the mass was carried");
            assert_eq!(w.worker().row_iters()[victim.0], n);
            came_back = true;
            break;
        }
        assert_eq!(next, None, "a lost best-effort row is not resent");
        let before = w.worker().row_mean_abs()[victim.0];
        w.commit_push(0, n, &mut RowBatch::default());
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

/// Worker 1's link drops mid-cycle (its granted pulls wait on the
/// server), the device then leaves, and later rejoins around a peer's
/// model — driven through the roles alone.
fn depart_and_rejoin(seed: u64) -> (Vec<u32>, String) {
    const X: usize = 1;
    let mut c = Cluster::new(seed, 0.2);
    let legs = || (0..N_SHARDS).map(|s| (X, s));
    c.reachable[X] = false;
    c.step(X);
    assert!(
        legs().all(|leg| c.server.is_parked(leg)),
        "cut-off pulls wait"
    );
    // X's rows sit at iteration 1 or 0: both peers run into the gate.
    for w in [0, 2] {
        while !c.waiting[w] {
            c.step(w);
        }
        assert!((0..N_SHARDS).any(|s| c.server.is_parked((w, s))));
    }

    c.server.deactivate(X);
    assert!(
        !legs().any(|leg| c.server.is_parked(leg)),
        "request withdrawn"
    );
    let before = c.releases;
    c.release();
    assert!(c.releases > before, "the survivors were pinned by X alone");
    assert!(!c.waiting[0] && !c.waiting[2]);
    c.run(40); // X still counts as waiting: only the survivors are scheduled

    let peer = if c.iters[0] >= c.iters[2] { 0 } else { 2 };
    let n = c.iters[peer];
    let mins: Vec<u64> = (0..N_SHARDS).map(|s| c.min(s)).collect();
    c.models[X] = c.models[peer].clone();
    c.iters[X] = n;
    c.workers[X].rejoin(n);
    c.server.rejoin(X, n);
    c.reachable[X] = true;
    c.waiting[X] = false;
    c.release();

    let worker = c.workers[X].worker();
    assert_eq!(worker.max_row_staleness(n), 0);
    assert!(worker.row_mean_abs().iter().all(|&m| m == 0.0));
    assert!((0..N_SHARDS).all(|s| !c.workers[X].engaged(s)));
    let mut plane = c.server.server().clone();
    let mut plan = Vec::new();
    for (s, &min) in mins.iter().enumerate() {
        assert!(plane.versions(s).is_active(X));
        assert_eq!(c.min(s), min, "the rejoiner does not pin min(V)");
        plane.plan_pull_into(s, X, &mut plan);
        assert!(plan.is_empty(), "pending copy of shard {s}: {plan:?}");
    }

    let bits = c.run(120);
    assert!(c.iters[X] > n, "the rejoiner trains on");
    let slowest = *c.iters.iter().min().expect("workers");
    assert!(c
        .iters
        .iter()
        .all(|&i| i <= slowest + u64::from(THRESHOLD) + 1));
    (bits, c.journal.to_jsonl())
}

#[test]
fn a_parked_worker_departs_and_rejoins_through_the_roles() {
    let (a, b) = (depart_and_rejoin(5), depart_and_rejoin(5));
    assert!(a == b, "same seed, different run");
    assert!(depart_and_rejoin(6).0 != a.0, "the seed must matter");
}

/// A whole-model push of iteration `n` by `w`, then its gate check.
fn push_all(server: &mut ServerRole, w: usize, n: u64) -> Gate {
    let mut rows: RowBatch = params()
        .iter()
        .flat_map(|m| (0..m.rows()).map(|_| vec![0.5; m.cols()]))
        .enumerate()
        .map(|(i, v)| (RowId(i), v))
        .collect();
    server.ingest((w, 0), n, &mut rows);
    server.retry((w, 0), n, true)
}

/// Every parked request, taken out for a release scan.
fn parked(server: &mut ServerRole) -> Vec<(LegId, u64)> {
    let mut scan = Vec::new();
    server.take_parked(&mut scan);
    scan
}

/// A release scan; returns the workers it granted.
fn release_all(server: &mut ServerRole) -> Vec<usize> {
    parked(server)
        .into_iter()
        .filter(|&(leg, n)| server.retry(leg, n, true) == Gate::Granted)
        .map(|((w, _), _)| w)
        .collect()
}

/// FLOWN and DSSP bound each worker on its own: at the same `min(V)`
/// and the same lead one worker is parked and the other granted, and
/// moving one worker's bound releases that worker alone.
#[test]
fn each_worker_is_parked_and_released_by_its_own_bound() {
    let ps = params();
    let n_rows = ps.iter().map(Matrix::rows).sum();
    let imp = ImportanceMetric::default();
    let map = ShardMap::contiguous(n_rows, 1);
    let mut server = ServerRole::new(ShardedServer::new(&ps, 3, THRESHOLD, imp, map), None);
    // SSP bound `t` is RSP threshold `t + 1`: worker 0 runs BSP, worker
    // 1 SSP 2; worker 2 has not pushed and holds `min(V)` at 0.
    server.set_bound(0, 1);
    server.set_bound(1, 3);
    assert_eq!(push_all(&mut server, 0, 1), Gate::Parked);
    assert_eq!(push_all(&mut server, 1, 1), Gate::Granted, "lead 1 <= 2");
    assert_eq!(push_all(&mut server, 1, 2), Gate::Granted, "lead 2 <= 2");
    assert_eq!(push_all(&mut server, 1, 3), Gate::Parked, "lead 3 > 2");
    assert_eq!(release_all(&mut server), Vec::<usize>::new());
    // Widening worker 1's bound to SSP 3 releases worker 1 only.
    server.set_bound(1, 4);
    assert_eq!(release_all(&mut server), vec![1]);
    assert!(server.is_parked((0, 0)));
    // The straggler's push lifts `min(V)` to 1: now BSP admits worker 0.
    assert_eq!(push_all(&mut server, 2, 1), Gate::Granted);
    assert_eq!(release_all(&mut server), vec![0]);
    // A uniform threshold (ROG's) is every worker's bound moved at once.
    for w in 0..3 {
        server.set_bound(w, 1);
    }
    assert_eq!(push_all(&mut server, 1, 4), Gate::Parked, "lead 3 at RSP 1");
}

/// A bound carries its MTA fraction: the server role solves it at
/// construction and at every `set_bound`, so each worker's bound reads
/// `mta_fraction` of its own threshold.
#[test]
fn each_bound_carries_the_fraction_of_its_threshold() {
    let ps = params();
    let n_rows = ps.iter().map(Matrix::rows).sum();
    let imp = ImportanceMetric::default();
    let map = ShardMap::contiguous(n_rows, 1);
    let mut server = ServerRole::new(ShardedServer::new(&ps, 3, THRESHOLD, imp, map), None);
    let carried = |server: &ServerRole| {
        (0..3)
            .map(|w| {
                (
                    server.bound(w).threshold(),
                    server.bound(w).fraction().to_bits(),
                )
            })
            .collect::<Vec<_>>()
    };
    let solved = |ts: [u32; 3]| ts.map(|t| (t, mta_fraction(t).to_bits())).to_vec();
    let mut ts = [THRESHOLD; 3];
    assert_eq!(carried(&server), solved(ts));
    for (w, t) in [
        (0, 1),
        (1, 8),
        (2, 0),
        (0, 64),
        (1, 8),
        (2, 2),
        (1, THRESHOLD),
    ] {
        server.set_bound(w, t);
        ts[w] = t;
        assert_eq!(carried(&server), solved(ts), "after set_bound({w}, {t})");
    }
}

/// A rejoin never lowers `min(V)`: worker 1 departs, worker 0 pushes
/// on alone, and worker 1 comes back having adopted an older iteration
/// than `min(V)` reached meanwhile. Its rows restart at `min(V)`, so
/// worker 0's next push enters the gate within its bound.
#[test]
fn a_rejoin_at_an_older_iteration_leaves_min_v_in_place() {
    let ps = params();
    let n_rows = ps.iter().map(Matrix::rows).sum();
    let imp = ImportanceMetric::default();
    let map = ShardMap::contiguous(n_rows, 1);
    let mut server = ServerRole::new(ShardedServer::new(&ps, 2, 1, imp, map), None);
    let min = |server: &ServerRole| server.server().versions(0).global_min();
    for w in 0..2 {
        push_all(&mut server, w, 1);
    }
    server.deactivate(1);
    for n in 2..=5 {
        assert_eq!(push_all(&mut server, 0, n), Gate::Granted, "alone at {n}");
    }
    assert_eq!(min(&server), 5);
    server.rejoin(1, 4);
    assert_eq!(min(&server), 5, "the rejoiner pulled min(V) back");
    // Worker 0's next push leads by 1, not 2: it parks at bound 1 until
    // worker 1 catches up.
    assert_eq!(push_all(&mut server, 0, 6), Gate::Parked);
    assert_eq!(push_all(&mut server, 1, 6), Gate::Granted);
}

/// A worker's bound also sizes its pulls: after `set_bound(w, b)` the
/// grant's MTA is `Mta::new(b).rows(shard_rows)`, capped at the plan
/// length.
#[test]
fn a_grant_sizes_the_pull_by_the_workers_own_bound() {
    let ps = params();
    let n_rows = ps.iter().map(Matrix::rows).sum();
    let plane = |n| {
        let map = ShardMap::contiguous(n_rows, 1);
        ServerRole::new(
            ShardedServer::new(&ps, n, THRESHOLD, ImportanceMetric::default(), map),
            None,
        )
    };
    let mut journal = Journal::disabled();
    for bound in [1, 2, THRESHOLD, 8] {
        let mut server = plane(2);
        server.set_bound(0, bound);
        assert_eq!(push_all(&mut server, 1, 1), Gate::Granted);
        assert_eq!(push_all(&mut server, 0, 1), Gate::Granted);
        let must = server.grant((0, 0), 0.0, &mut journal);
        assert_eq!(server.pull_leg((0, 0)).plan().len(), n_rows);
        assert_eq!(must, Mta::new(bound).rows(n_rows), "bound {bound}");
    }
    // Two pending rows: the MTA of the shard's rows is past the plan.
    let mut server = plane(2);
    server.set_bound(0, 4);
    let mut two: RowBatch = [(RowId(0), vec![1.0; 4]), (RowId(1), vec![1.0; 4])]
        .into_iter()
        .collect();
    server.ingest((1, 0), 1, &mut two);
    assert_eq!(server.retry((0, 0), 1, true), Gate::Granted);
    assert_eq!(server.grant((0, 0), 0.0, &mut journal), 2);
    assert!(Mta::new(4).rows(n_rows) > 2);
}

#[test]
fn a_nonfinite_row_is_counted_at_ingest_and_never_reaches_a_pull() {
    let ps = params();
    let n_rows = ps.iter().map(Matrix::rows).sum();
    let imp = ImportanceMetric::default();
    let map = ShardMap::contiguous(n_rows, 1);
    let mut server = ServerRole::new(ShardedServer::new(&ps, 2, THRESHOLD, imp, map), None);
    let mut journal = Journal::disabled();
    let mut rows: RowBatch = [
        (RowId(0), vec![2.0, f32::NAN, f32::INFINITY, -2.0]),
        (RowId(1), vec![1.0; 4]),
    ]
    .into_iter()
    .collect();
    server.ingest((0, 0), 1, &mut rows);
    assert_eq!(server.nonfinite_dropped(), 2);

    let leg = (1, 0);
    assert_eq!(server.enter_gate(leg, 1, 0.0, &mut journal), Gate::Granted);
    server.grant(leg, 0.0, &mut journal);
    let plan = server.pull_leg(leg).plan();
    assert!(plan.contains(&RowId(0)) && plan.contains(&RowId(1)));
    let all = plan.len();
    server.pull_round(leg, Round::Speculative, all, None);
    let mut pulled = RowBatch::default();
    server.settle_pull(leg, 0.0, &mut journal, &mut pulled);
    for (id, values) in pulled.iter() {
        assert!(values.iter().all(|v| v.is_finite()), "{id}: {values:?}");
    }
    let (_, poisoned) = pulled.iter().find(|(id, _)| *id == RowId(0)).expect("sent");
    assert!(
        poisoned[0] > 0.0 && poisoned[3] < 0.0,
        "the finite values landed"
    );
    // A clean push leaves the counter alone.
    server.ingest(
        (1, 0),
        1,
        &mut [(RowId(1), vec![1.0; 4])].into_iter().collect(),
    );
    assert_eq!(server.nonfinite_dropped(), 2);
}

/// A model of 64-wide rows, so a sparse-delta row's size tracks how
/// many values stand out in it (a one-bit row is 16 bytes).
fn wide_params() -> Vec<Matrix> {
    vec![Matrix::zeros(6, 64), Matrix::zeros(3, 64)]
}

/// Gradients with one spike per row, at column `at` shifted by the row.
fn spikes(at: usize) -> Vec<Matrix> {
    wide_params()
        .iter()
        .map(|m| Matrix::from_fn(m.rows(), m.cols(), |r, c| f32::from(c == (at + 5 * r) % 64)))
        .collect()
}

/// The sizes `handed` for the rows of a round equal a fresh sizing of
/// those rows, and differ from `before` (the rows' sizes before the
/// state under the leg moved), so the check saw the move.
fn assert_fresh(handed: Vec<u64>, fresh: Vec<u64>, before: &[u64], what: &str) {
    assert_eq!(handed, fresh, "{what}: the leg handed out stale sizes");
    assert_ne!(
        fresh, before,
        "{what}: the state under the leg did not move"
    );
}

/// At every round, the sizes a sparse-codec leg hands out equal a fresh
/// `payload_bytes` / `payload_bytes_for` of the rows the round carries:
/// after an accumulate or a codec switch in the middle of a push, and
/// after another worker's push into the shard, a rejoin or a codec
/// switch in the middle of a pull. Each move hits a leg whose sizes
/// were still good, so no earlier move hides a missing re-size.
#[test]
fn a_leg_hands_out_the_sizes_of_the_state_it_sends_from() {
    let ps = wide_params();
    let n_rows: usize = ps.iter().map(Matrix::rows).sum();
    let map = ShardMap::contiguous(n_rows, 1);
    let mut plane = ShardedServer::new(&ps, 2, THRESHOLD, ImportanceMetric::default(), map.clone());
    plane.configure_codec(CodecChoice::Sparse, 1);
    let mut server = ServerRole::new(plane, None);
    let cfg = RogWorkerConfig::new(THRESHOLD, 0.05).with_codec(CodecChoice::Sparse, 1);
    let mut w = WorkerRole::new(&ps, cfg, 1);
    let onebit = CodecChoice::OneBit.build();

    // The pushes: at the bound every row is mandatory, so a round cut
    // after two rows continues, and the lost first row is resent.
    let n = u64::from(THRESHOLD);
    let fresh = |w: &WorkerRole, round| -> Vec<u64> {
        let rows = w.push_leg(0).rows(round);
        rows.iter()
            .map(|&id| w.worker().payload_bytes(id))
            .collect()
    };
    w.accumulate(&spikes(0));
    for moved in ["accumulate", "push codec"] {
        w.plan(n, &map, Mta::new(THRESHOLD));
        let handed: Vec<u64> = w.push_sizes(0, Round::Speculative).collect();
        assert_eq!(handed, fresh(&w, Round::Speculative), "{moved}");
        let next = w.push_round(0, Round::Speculative, 2, Some(&[false, true]));
        assert_eq!(next, Some(Round::Continuation));
        let before = fresh(&w, Round::Continuation);
        match moved {
            "accumulate" => w.accumulate(&spikes(9)),
            _ => w.set_codec(onebit),
        }
        let handed = w.push_sizes(0, Round::Continuation).collect();
        assert_fresh(handed, fresh(&w, Round::Continuation), &before, moved);
        let intact = vec![true; n_rows - 2];
        let next = w.push_round(0, Round::Continuation, n_rows - 2, Some(&intact));
        assert_eq!(next, Some(Round::Retransmit));
        let handed: Vec<u64> = w.push_sizes(0, Round::Retransmit).collect();
        assert_eq!(handed, fresh(&w, Round::Retransmit), "{moved}");
        let sent: Vec<u64> = w.sent_sizes(0).collect();
        let plan = w.push_leg(0).plan();
        let want: Vec<u64> = plan
            .iter()
            .map(|&id| w.worker().payload_bytes(id))
            .collect();
        assert_eq!(sent, want, "{moved}: the journal's bytes");
    }

    // The pulls: worker 0 pushed spikes, worker 1's pull is cut after
    // one row and continues to its MTA target.
    let mut journal = Journal::disabled();
    let mut rows: RowBatch = (0..n_rows).map(|i| (RowId(i), vec![0.0; 64])).collect();
    let mut push = |server: &mut ServerRole, at: usize| {
        for (i, (_, v)) in rows.iter_mut().enumerate() {
            v.fill(0.0);
            v[(at + 3 * i) % 64] = 1.0;
        }
        server.ingest((0, 0), 1, &mut rows);
    };
    let fresh = |server: &ServerRole, round| -> Vec<u64> {
        let rows = server.pull_leg((1, 0)).rows(round);
        let plane = server.server();
        rows.iter()
            .map(|&id| plane.payload_bytes_for(1, id))
            .collect()
    };
    push(&mut server, 0);
    for moved in ["ingest", "rejoin", "pull codec"] {
        let target = server.grant((1, 0), 0.0, &mut journal);
        assert!(target > 1, "{moved}: the pull must continue");
        let handed: Vec<u64> = server.pull_sizes((1, 0), Round::Speculative).collect();
        assert_eq!(handed, fresh(&server, Round::Speculative), "{moved}");
        let next = server.pull_round((1, 0), Round::Speculative, 1, None);
        assert_eq!(next, Some(Round::Continuation));
        let before = fresh(&server, Round::Continuation);
        match moved {
            "ingest" => push(&mut server, 40),
            "rejoin" => server.rejoin(1, 1),
            _ => server.set_codec(1, onebit),
        }
        let handed = server.pull_sizes((1, 0), Round::Continuation).collect();
        assert_fresh(handed, fresh(&server, Round::Continuation), &before, moved);
        server.pull_round((1, 0), Round::Continuation, target - 1, None);
        server.settle_pull((1, 0), 0.0, &mut journal, &mut RowBatch::default());
        push(&mut server, 20);
    }
}

/// A worker role over the two shards with one draw of gradients
/// accumulated and its cycle pushing iteration `n` planned.
fn planned(n: u64) -> (WorkerRole, ShardMap) {
    let ps = params();
    let map = ShardMap::contiguous(ps.iter().map(Matrix::rows).sum(), N_SHARDS);
    let mut w = WorkerRole::new(&ps, RogWorkerConfig::new(THRESHOLD, 0.05), N_SHARDS);
    w.accumulate(&grads(n));
    w.plan(n, &map, Mta::new(THRESHOLD));
    (w, map)
}

fn grads(seed: u64) -> Vec<Matrix> {
    let mut rng = DetRng::new(seed);
    let ps = params();
    ps.iter()
        .map(|m| Matrix::randn(m.rows(), m.cols(), 1.0, &mut rng))
        .collect()
}

/// Shard `s`'s push of iteration `n` lands whole; the leg has pushed.
fn push_through(w: &mut WorkerRole, s: usize, n: u64) -> bool {
    let all = w.push_leg(s).plan().len();
    assert_eq!(w.push_round(s, Round::Speculative, all, None), None);
    w.commit_push(s, n, &mut RowBatch::default());
    w.push_done(s)
}

#[test]
fn a_cut_in_push_on_every_engaged_leg_restarts_the_cycle() {
    let (mut w, map) = planned(2);
    (0..N_SHARDS).for_each(|s| w.cut(s));
    assert_eq!(w.restart(1), Some(Restart::Cycle));
    assert!(w.busy(), "the cut cycle is still in flight");
    w.plan(3, &map, Mta::new(THRESHOLD));
    assert_eq!(w.cycle_iter(), 3);
    assert!(
        (0..N_SHARDS).all(|s| w.restart(s).is_none()),
        "plan clears every mark"
    );
    // A leg out of the cycle (its shard was down) is not waited for.
    w.skip(1);
    w.cut(0);
    assert_eq!(w.restart(0), Some(Restart::Cycle));
    // A cycle parked before any leg started restarts whole, once.
    let (mut w, _) = planned(2);
    for s in 0..N_SHARDS {
        push_through(&mut w, s, 2);
        w.finish_leg(s);
    }
    assert!(!w.busy());
    w.park(3);
    assert!(w.busy() && w.cycle_iter() == 3);
    assert_eq!(w.restart(1), Some(Restart::Cycle));
    assert_eq!(w.restart(0), None);
    assert!(!w.busy());
}

#[test]
fn a_cut_in_push_on_one_leg_replans_only_that_leg() {
    let (mut w, map) = planned(2);
    assert!(!push_through(&mut w, 0, 2));
    let pushed = w.push_leg(0).plan().to_vec();
    w.cut(1);
    assert_eq!(w.restart(1), Some(Restart::Push));
    assert_eq!(w.restart(1), None, "the mark was taken");
    // The leg re-plans against the latest gradients at the cycle's
    // iteration; the other leg keeps its plan and its phase.
    w.accumulate(&grads(9));
    w.replan(1, &map, Mta::new(THRESHOLD));
    assert_eq!(w.cycle_iter(), 2);
    assert_eq!(w.push_leg(0).plan(), pushed);
    let plan = w.push_leg(1).plan();
    assert!(!plan.is_empty() && plan.iter().all(|&id| map.shard_of(id) == 1));
    assert!(push_through(&mut w, 1, 2), "leg 0 had pushed");
    // A push cut beside a pull cut restarts alone too.
    let (mut w, _) = planned(2);
    push_through(&mut w, 0, 2);
    (0..N_SHARDS).for_each(|s| w.cut(s));
    assert_eq!(w.restart(1), Some(Restart::Push));
    assert_eq!(w.restart(0), Some(Restart::Gate));
}

#[test]
fn a_cut_during_a_pull_re_parks_at_the_gate() {
    let ps = params();
    let (mut w, map) = planned(1);
    let plane = ShardedServer::new(&ps, 1, THRESHOLD, ImportanceMetric::default(), map);
    let mut server = ServerRole::new(plane, None);
    let mut journal = Journal::disabled();
    let leg = (0, 0);
    push_through(&mut w, 0, 1);
    assert_eq!(server.enter_gate(leg, 1, 0.0, &mut journal), Gate::Granted);
    server.grant(leg, 0.0, &mut journal);
    // The pull is cut in the air: the leg has pushed, so it goes back
    // to the gate at the cycle's iteration and waits for a scan.
    w.cut(0);
    assert_eq!(w.restart(0), Some(Restart::Gate));
    assert!(w.busy());
    assert_eq!(server.retry(leg, w.cycle_iter(), false), Gate::Parked);
    assert!(server.is_parked(leg));
    assert_eq!(release_all(&mut server), vec![0]);
    assert_eq!(w.restart(0), None);
}

#[test]
fn disengage_and_rejoin_clear_every_mark() {
    for rejoin in [false, true] {
        let (mut w, _) = planned(2);
        push_through(&mut w, 0, 2);
        (0..N_SHARDS).for_each(|s| w.cut(s));
        w.park(3);
        if rejoin {
            w.rejoin(7);
        } else {
            w.disengage();
        }
        assert!(!w.busy());
        assert!((0..N_SHARDS).all(|s| !w.engaged(s) && w.restart(s).is_none()));
        assert_eq!(w.cycle_iter(), if rejoin { 7 } else { 3 });
    }
}

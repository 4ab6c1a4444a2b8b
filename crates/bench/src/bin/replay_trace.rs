//! Trace replay — the artifact's evaluation path.
//!
//! The paper's artifact replays real-time bandwidth recorded on the
//! moving robots (with `tc`) so results reproduce on stationary
//! devices. This binary does the same round trip in the simulator:
//! record the outdoor channel to CSV, load it back, and run BSP vs
//! ROG-4 on the *replayed* traces — verifying (a) the CSV path is
//! lossless (identical results to the generated-trace run) and (b) any
//! externally recorded trace in `time_s,value` form can drive the
//! whole evaluation.

use rog_bench::{duration, header, results_dir, run_all, short_name};
use rog_net::{io, ChannelProfile, Trace};
use rog_trainer::{Environment, ExperimentConfig, Strategy, WorkloadKind};

fn main() {
    let dur = duration(900.0, 180.0);
    let profile = ChannelProfile::outdoor();

    header("Recording traces to CSV");
    // Derive the trace seeds exactly as the cluster builder does for the
    // default experiment seed, so the generated-trace reference runs see
    // identical channels.
    let root = rog_tensor::rng::DetRng::new(ExperimentConfig::default().seed);
    let trace_len = dur.clamp(300.0, 1800.0);
    let capacity = profile.generate(root.fork(0x50).seed(), trace_len);
    let links: Vec<Trace> = (0..4)
        .map(|w| profile.generate_link(root.fork(0x60 + w as u64).seed(), trace_len))
        .collect();
    let dir = results_dir();
    io::save_trace(&capacity, dir.join("replay_capacity.csv")).expect("save capacity");
    for (w, l) in links.iter().enumerate() {
        io::save_trace(l, dir.join(format!("replay_link{w}.csv"))).expect("save link");
    }
    println!("  recorded 1 capacity + {} link traces", links.len());

    header("Replaying from CSV");
    let capacity_back = io::load_trace(dir.join("replay_capacity.csv")).expect("load capacity");
    let links_back: Vec<Trace> = (0..4)
        .map(|w| io::load_trace(dir.join(format!("replay_link{w}.csv"))).expect("load link"))
        .collect();

    let mk = |strategy, cap: Option<Trace>, links: Option<Vec<Trace>>| ExperimentConfig {
        workload: WorkloadKind::Cruda,
        environment: Environment::Outdoor,
        strategy,
        duration_secs: dur,
        capacity_trace: cap,
        link_traces: links,
        ..ExperimentConfig::default()
    };
    let configs = vec![
        mk(
            Strategy::Bsp,
            Some(capacity_back.clone()),
            Some(links_back.clone()),
        ),
        mk(
            Strategy::Rog { threshold: 4 },
            Some(capacity_back),
            Some(links_back),
        ),
        // Reference: the generated-trace run with the same seeds.
        mk(Strategy::Bsp, None, None),
        mk(Strategy::Rog { threshold: 4 }, None, None),
    ];
    let runs = run_all(&configs);

    header("Replay vs generated (identical traces → identical results)");
    for pair in [(0usize, 2usize), (1, 3)] {
        let (replay, gen) = (&runs[pair.0], &runs[pair.1]);
        let same =
            replay.checkpoints == gen.checkpoints && replay.mean_iterations == gen.mean_iterations;
        println!(
            "{:<8} replay {:>6.0} iters / generated {:>6.0} iters — {}",
            short_name(gen),
            replay.mean_iterations,
            gen.mean_iterations,
            if same {
                "bit-identical ✓"
            } else {
                "DIFFERS ✗"
            }
        );
        assert!(same, "replayed run must match the generated run");
    }
}

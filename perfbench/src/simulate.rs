//! simulate-pokec: the paper's evaluation path.
//!
//! `simulate_infomap` in `SimMode::Inline` with 4 simulated cores on the
//! pokec-like stand-in at 1/64 scale: one software-hash run and one ASA run
//! (8 KB CAM) per pair, both at 1 host thread. At `nproc` threads the 4
//! simulated cores share 2 host threads with a barrier every sweep, and the
//! hash run's per-process median ranged from 1.10 to 1.49 s, so this
//! workload reports no `nproc` time. The host SPA kernel never runs. The
//! hash run is the primary class, the ASA run the secondary one.
//!
//! The shared `infomap.*` layer rows split the traced hash run: the flow
//! build (the same `FlowNetwork::from_graph` call the run starts with,
//! timed by the benchmark just before it), the simulated sweep kernel
//! (`SimulatedRun::sim_seconds`) and the rest.

use std::time::Instant;

use asa_accel::AsaConfig;
use asa_graph::generators::{NetworkSpec, PaperNetwork};
use asa_infomap::instrumented::{simulate_infomap_mode, Device, SimMode, SimulatedRun};
use asa_infomap::{FlowNetwork, InfomapConfig};
use asa_simarch::MachineConfig;

use crate::spans::{write_trace, SpanLog};
use crate::{median, pool, repeat_setup, secs, Args, LayerRows, Report};

const SCALE_DIV: usize = 64;
const SIM_CORES: usize = 4;

/// Seconds one hash + ASA pair takes at 1 thread on the reference host;
/// sets the fixed operation count from `--seconds`.
const PAIR_BUDGET_S: f64 = 2.1;
/// Set-ups per run (about 0.03 s each).
const SETUP_REPS: usize = 45;

/// The simulated figures a pair must repeat exactly.
fn counters(hash: &SimulatedRun, asa: &SimulatedRun) -> Vec<(&'static str, f64)> {
    let stats = asa.asa_stats.expect("an ASA run reports device statistics");
    vec![
        ("asa_speedup_x", hash.hash_seconds() / asa.hash_seconds()),
        ("codelength_bits", hash.codelength),
        (
            "hashsim.instructions_per_core",
            hash.instructions_per_core(),
        ),
        (
            "hashsim.mispredictions_per_core",
            hash.mispredictions_per_core(),
        ),
        ("hashsim.cpi", hash.avg_core_cpi()),
        ("asa.instructions_per_core", asa.instructions_per_core()),
        ("asa.cpi", asa.avg_core_cpi()),
        (
            "asa.cam_hit_ratio",
            stats.hits as f64 / stats.accumulates.max(1) as f64,
        ),
        ("asa.overflow_rate", stats.overflow_rate),
    ]
}

/// Per-pair host timings.
#[derive(Debug, Clone, Copy)]
struct PairTimes {
    hash: f64,
    asa: f64,
    /// `sim_seconds` of the hash run and of the ASA run.
    hash_sim: f64,
    asa_sim: f64,
    /// The flow build timed before a traced pair (0 untraced).
    flow: f64,
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let icfg = InfomapConfig::default();
    let machine = MachineConfig::baseline(SIM_CORES);
    let asa_cfg = AsaConfig::paper_default();
    let spec = NetworkSpec {
        seed: args.seed,
        ..NetworkSpec::new(PaperNetwork::Pokec, SCALE_DIV)
    };
    let (graph, setup) = repeat_setup(SETUP_REPS, || spec.generate().0);
    let pairs = ((args.seconds as f64 / PAIR_BUDGET_S).round() as usize).max(3);
    report.lines.push(format!(
        "input: soc-pokec stand-in 1/{SCALE_DIV}, {} vertices, {} arcs; {SIM_CORES} simulated \
         cores, {} KB CAM, inline mode, 1 host thread; {pairs} timed hash+ASA pairs after one \
         warm-up pair",
        graph.num_nodes(),
        graph.num_arcs(),
        asa_cfg.cam_bytes / 1024
    ));

    let one = pool(1);
    let origin = Instant::now();
    let mut log = SpanLog::default();
    let mut run_pair = |traced: bool| {
        let flow = if traced {
            let t = Instant::now();
            std::hint::black_box(one.install(|| FlowNetwork::from_graph(&graph, &icfg)));
            secs(t)
        } else {
            0.0
        };
        let t0 = Instant::now();
        let hash = one.install(|| {
            simulate_infomap_mode(
                &graph,
                &icfg,
                &machine,
                Device::SoftwareHash,
                &SimMode::Inline,
            )
        });
        let t1 = Instant::now();
        let asa = one.install(|| {
            simulate_infomap_mode(
                &graph,
                &icfg,
                &machine,
                Device::Asa(asa_cfg),
                &SimMode::Inline,
            )
        });
        let t2 = Instant::now();
        if traced {
            let pair = log.record("pair", t0, t2, None, None);
            log.record("hash_run", t0, t1, Some(pair), None);
            log.record("asa_run", t1, t2, Some(pair), None);
        }
        let times = PairTimes {
            hash: (t1 - t0).as_secs_f64(),
            asa: (t2 - t1).as_secs_f64(),
            hash_sim: hash.sim_seconds,
            asa_sim: asa.sim_seconds,
            flow,
        };
        (hash, asa, times)
    };

    let (hash0, asa0, _) = run_pair(false);
    let reference = counters(&hash0, &asa0);
    let (mut times, mut traced) = (Vec::with_capacity(pairs), Vec::new());
    check_pair(&mut report, &reference, &hash0, &asa0);
    for _ in 0..pairs {
        let (hash, asa, t) = run_pair(false);
        if !check_pair(&mut report, &reference, &hash, &asa) {
            report.failed += 2;
        }
        times.push(t);
        // Traced pairs alternate with untraced ones, so a slow stretch of
        // the host cannot pass for tracing overhead.
        if args.trace {
            let (hash, asa, t) = run_pair(true);
            check_pair(&mut report, &reference, &hash, &asa);
            traced.push(t);
        }
    }
    report.attempted = 2 * pairs as u64;
    report.lines.push(format!(
        "exact-repeat over {} pairs: {}",
        pairs + 1,
        reference
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let col =
        |ts: &[PairTimes], f: fn(&PairTimes) -> f64| median(&ts.iter().map(f).collect::<Vec<_>>());
    let value = |name: &str| {
        reference
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("counter listed in counters()")
    };
    report.e2e_note(
        "setup_s",
        median(&setup),
        "s",
        setup.len(),
        "input generation; median of set-ups".into(),
    );
    let timed_s: f64 = times.iter().map(|t| t.hash + t.asa).sum();
    report.e2e_note(
        "throughput_ops",
        (report.attempted - report.failed) as f64 / timed_s,
        "1/s",
        report.attempted as usize,
        "completed simulated runs over the timed seconds of both devices".into(),
    );
    report.e2e_note(
        "primary_p50_ms",
        1e3 * col(&times, |t| t.hash),
        "ms",
        times.len(),
        "software-hash run".into(),
    );
    report.e2e_note(
        "secondary_p50_ms",
        1e3 * col(&times, |t| t.asa),
        "ms",
        times.len(),
        "ASA run".into(),
    );
    report.e2e("codelength_bits", value("codelength_bits"), "bits", 1);
    report.finish_common();

    if args.trace {
        let path = write_trace(&args.workload, args.seed, origin, &[&log]);
        let traced_wall = col(&traced, |t| t.hash + t.asa);
        report.lines.push(format!(
            "layer table: medians over {pairs} traced pairs at 1 thread; spans in {path}"
        ));
        for (name, v) in [
            ("hash run", col(&traced, |t| t.hash)),
            ("  flow build (timed before)", col(&traced, |t| t.flow)),
            ("  in the simulator", col(&traced, |t| t.hash_sim)),
            ("ASA run", col(&traced, |t| t.asa)),
            ("  in the simulator", col(&traced, |t| t.asa_sim)),
            ("traced pair wall", traced_wall),
        ] {
            report.lines.push(format!(
                "  {name:<28} {v:>9.4} s {:>6.1}%",
                100.0 * v / traced_wall
            ));
        }
        let rows: Vec<LayerRows> = traced
            .iter()
            .map(|t| LayerRows {
                flow: t.flow,
                kernel: t.hash_sim,
                rest: t.hash - t.flow - t.hash_sim,
                wall: t.hash,
            })
            .collect();
        report.infomap_layers(
            &rows,
            hash0.sweeps.len(),
            hash0.sweeps.iter().map(|s| s.active).sum(),
        );
        let untraced_wall = col(&times, |t| t.hash + t.asa);
        report.common_layers(
            &setup,
            100.0 * (traced_wall / untraced_wall - 1.0),
            traced.len(),
        );
    }
    report
}

/// Checks that both devices agree and that the pair repeats `reference`
/// exactly; returns whether it passed.
fn check_pair(
    report: &mut Report,
    reference: &[(&'static str, f64)],
    hash: &SimulatedRun,
    asa: &SimulatedRun,
) -> bool {
    let same_answer = hash.partition.labels() == asa.partition.labels()
        && hash.codelength.to_bits() == asa.codelength.to_bits();
    let repeats = counters(hash, asa)
        .iter()
        .zip(reference)
        .all(|(a, b)| a.1.to_bits() == b.1.to_bits());
    report.check(same_answer, || {
        "hash and ASA devices returned different partitions or codelengths".to_string()
    });
    report.check(repeats, || {
        "a simulated counter differs from the first pair".to_string()
    });
    same_answer && repeats
}

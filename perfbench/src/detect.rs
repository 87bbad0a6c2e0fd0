//! detect-pokec: the batch analyst's job.
//!
//! Repeated full `detect_communities` runs on a pool of [`POOL`] pokec-like
//! stand-ins at 1/64 scale (about 25k vertices and 0.74M arcs each, the
//! input size simulate-pokec simulates). A round runs every pool graph at
//! `nproc` threads (the primary class), then every pool graph at 1 thread
//! (the secondary class); a class's round time is the mean run time over
//! the pool. One stand-in's work moves with its seed (16 to 19 sweeps over
//! three seeds), so a single graph per run would turn the seed into
//! spread; the pool averages it out. The work is the flow build, the SPA
//! sweep kernel and coarsening; `serve` and `simarch` stay idle. The 1/16
//! stand-in (3M arcs, beyond the cache) was measured and dropped: the
//! host's memory-bandwidth noise moved its 25-second medians with an
//! interquartile spread of 20%, against 12% at 1/64, over the same five
//! minutes.
//!
//! The traced run calls `FlowNetwork::from_graph` and
//! `optimize_multilevel_cancellable` itself, with [`TimedEngine`] wrapped
//! around `HostEngine` — exactly what `Infomap::run_cancellable` does — and
//! checks that the result is bit-identical to `detect_communities`.

use std::time::{Duration, Instant};

use asa_graph::generators::{NetworkSpec, PaperNetwork};
use asa_graph::CsrGraph;
use asa_infomap::driver::HostEngine;
use asa_infomap::find_best::MoveDecision;
use asa_infomap::local_move::AppliedMoves;
use asa_infomap::schedule::{optimize_multilevel_cancellable, DecideEngine, SweepCtx};
use asa_infomap::{detect_communities, CancelToken, FlowNetwork, InfomapConfig};
use asa_obs::{Obs, Value};

use crate::spans::{write_trace, SpanLog};
use crate::{median, nproc, pool, repeat_setup, secs, Args, LayerRows, Report, Rng};

const SCALE_DIV: usize = 64;
/// Stand-in graphs per run, each from its own seed derived from `--seed`.
const POOL: usize = 4;

/// Seconds one round (every pool graph at `nproc`, then at 1 thread)
/// takes on a 2-core host; sets the fixed round count from `--seconds`.
const ROUND_BUDGET_S: f64 = 1.0;
/// Set-ups per run (about 0.11 s each).
const SETUP_REPS: usize = 15;

/// What one run produced: the answer plus the counters a kernel change
/// must leave identical.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Answer {
    pub labels: Vec<u32>,
    pub codelength_bits: u64,
    pub sweeps: usize,
    pub evaluated: usize,
    pub moves: usize,
}

impl Answer {
    pub fn codelength(&self) -> f64 {
        f64::from_bits(self.codelength_bits)
    }
}

fn untraced(graph: &CsrGraph, cfg: &InfomapConfig) -> Answer {
    let r = detect_communities(graph, cfg);
    Answer {
        labels: r.partition.labels().to_vec(),
        codelength_bits: r.codelength.to_bits(),
        sweeps: r.levels.iter().map(|l| l.sweeps).sum(),
        evaluated: r.levels.iter().flat_map(|l| &l.sweep_active).sum(),
        moves: r.levels.iter().map(|l| l.moves).sum(),
    }
}

/// `HostEngine` plus spans around each decide call and each sweep.
struct TimedEngine<'a> {
    inner: HostEngine,
    log: &'a mut SpanLog,
    /// The `optimize` span sweeps nest under.
    parent: usize,
    /// The last decide span, re-parented under its sweep once the sweep's
    /// extent is known in `after_sweep`.
    last_decide: Option<usize>,
    sweeps: usize,
    evaluated: usize,
    moves: usize,
}

impl DecideEngine for TimedEngine<'_> {
    fn decide(&mut self, ctx: &SweepCtx<'_>) -> Vec<MoveDecision> {
        let start = Instant::now();
        let decisions = self.inner.decide(ctx);
        self.last_decide = Some(self.log.record("decide", start, Instant::now(), None, None));
        decisions
    }

    fn after_sweep(&mut self, ctx: &SweepCtx<'_>, applied: &AppliedMoves, elapsed: Duration) {
        let end = Instant::now();
        let sweep = self
            .log
            .record("sweep", end - elapsed, end, Some(self.parent), None);
        if let Some(d) = self.last_decide.take() {
            self.log.spans[d].parent = Some(sweep);
        }
        self.sweeps += 1;
        self.evaluated += ctx.active.len();
        self.moves += applied.applied;
        self.inner.after_sweep(ctx, applied, elapsed);
    }

    fn obs(&self) -> Obs {
        self.inner.obs()
    }

    fn sweep_fields(&self, fields: &mut Vec<(&'static str, Value)>) {
        self.inner.sweep_fields(fields);
    }
}

/// One traced run's rows; they sum to `wall` up to the glue between the
/// two calls (reported as coverage).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Rows {
    flow: f64,
    decide: f64,
    apply: f64,
    other: f64,
    wall: f64,
}

impl Rows {
    /// Row-wise mean of `runs`.
    pub fn mean(runs: &[Rows]) -> Rows {
        let n = runs.len().max(1) as f64;
        let sum = |f: fn(&Rows) -> f64| runs.iter().map(f).sum::<f64>() / n;
        Rows {
            flow: sum(|r| r.flow),
            decide: sum(|r| r.decide),
            apply: sum(|r| r.apply),
            other: sum(|r| r.other),
            wall: sum(|r| r.wall),
        }
    }

    /// The shared per-layer split: the sweep kernel is the decide row; the
    /// rest is move application plus the other schedule work.
    pub fn layer_rows(&self) -> LayerRows {
        LayerRows {
            flow: self.flow,
            kernel: self.decide,
            rest: self.apply + self.other,
            wall: self.wall,
        }
    }
}

/// One `Infomap::run_cancellable`-equivalent run with spans around the
/// flow build, every decide call and every sweep.
pub(crate) fn traced(graph: &CsrGraph, cfg: &InfomapConfig, log: &mut SpanLog) -> (Answer, Rows) {
    let root = log.open("run", None);
    let t = Instant::now();
    let flow = FlowNetwork::from_graph(graph, cfg);
    log.record("flow", t, Instant::now(), Some(root), None);
    let inner = HostEngine::from_config(cfg);
    let optimize = log.open("optimize", Some(root));
    let mut engine = TimedEngine {
        inner,
        log: &mut *log,
        parent: optimize,
        last_decide: None,
        sweeps: 0,
        evaluated: 0,
        moves: 0,
    };
    let outcome = optimize_multilevel_cancellable(&flow, cfg, &mut engine, &CancelToken::none());
    let (sweeps, evaluated, moves) = (engine.sweeps, engine.evaluated, engine.moves);
    log.close(optimize);
    log.close(root);
    let layers = log.layer_times(root);
    let self_of = |name: &str| layers.get(name).map_or(0.0, |&(_, own)| own);
    let rows = Rows {
        flow: self_of("flow"),
        decide: self_of("decide"),
        apply: self_of("sweep"),
        other: self_of("optimize"),
        wall: log.spans[root].seconds(),
    };
    let answer = Answer {
        labels: outcome.partition.labels().to_vec(),
        codelength_bits: outcome.codelength.to_bits(),
        sweeps,
        evaluated,
        moves,
    };
    (answer, rows)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let cfg = InfomapConfig::default();
    let specs: Vec<NetworkSpec> = (0..POOL as u64)
        .map(|i| NetworkSpec {
            seed: Rng::new(args.seed, 10 + i).next_u64(),
            ..NetworkSpec::new(PaperNetwork::Pokec, SCALE_DIV)
        })
        .collect();
    let (graphs, setup) = repeat_setup(SETUP_REPS, || {
        specs
            .iter()
            .map(|s| s.generate().0)
            .collect::<Vec<CsrGraph>>()
    });
    let rounds = ((args.seconds as f64 / ROUND_BUDGET_S).round() as usize).max(3);
    let (threads, pool_n, pool_1) = (nproc(), pool(nproc()), pool(1));
    report.lines.push(format!(
        "input: {POOL} soc-pokec stand-ins 1/{SCALE_DIV}, {} vertices each, {} arcs in all; \
         {rounds} timed rounds (every graph at nproc={threads}, then at 1 thread) after one \
         warm-up round",
        graphs[0].num_nodes(),
        graphs.iter().map(|g| g.num_arcs()).sum::<usize>()
    ));

    // Warm-up round; its answers are the references every later run must
    // repeat exactly, at either thread count.
    let reference: Vec<Answer> = graphs
        .iter()
        .map(|g| pool_n.install(|| untraced(g, &cfg)))
        .collect();
    let warm_1t_same = graphs
        .iter()
        .zip(&reference)
        .all(|(g, want)| pool_1.install(|| untraced(g, &cfg)) == *want);
    report.check(warm_1t_same, || {
        "the 1-thread warm-up run differs from the nproc one".to_string()
    });

    // Per round and class: the mean run seconds over the pool.
    let (mut class_n, mut class_1) = (Vec::new(), Vec::new());
    let (mut timed_s, mut mismatched, mut traced_mismatched) = (0.0, 0u64, 0usize);
    // Traced rounds alternate with untraced ones, so a slow stretch of the
    // host cannot pass for tracing overhead.
    let origin = Instant::now();
    let mut log = SpanLog::default();
    let (mut rows_n, mut rows_1) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        for (p, class) in [(&pool_n, &mut class_n), (&pool_1, &mut class_1)] {
            let mut round_s = 0.0;
            for (graph, want) in graphs.iter().zip(&reference) {
                let t = Instant::now();
                let answer = p.install(|| untraced(graph, &cfg));
                round_s += secs(t);
                mismatched += u64::from(answer != *want);
            }
            timed_s += round_s;
            class.push(round_s / POOL as f64);
        }
        if args.trace {
            for (p, rows) in [(&pool_n, &mut rows_n), (&pool_1, &mut rows_1)] {
                let mut round = Vec::with_capacity(POOL);
                for (graph, want) in graphs.iter().zip(&reference) {
                    let (answer, r) = p.install(|| traced(graph, &cfg, &mut log));
                    traced_mismatched += usize::from(answer != *want);
                    round.push(r);
                }
                rows.push(Rows::mean(&round));
            }
        }
    }
    report.attempted = (2 * POOL * rounds) as u64;
    report.failed = mismatched;
    report.check(mismatched == 0, || {
        format!("{mismatched} runs' partition, codelength or counters differ from the warm-up run")
    });
    report.check(traced_mismatched == 0, || {
        "the wrapped-engine path differs from detect_communities".to_string()
    });
    let total = |f: fn(&Answer) -> usize| reference.iter().map(f).sum::<usize>();
    let (sweeps, evaluated, moves) = (
        total(|a| a.sweeps),
        total(|a| a.evaluated),
        total(|a| a.moves),
    );
    let codelength = reference.iter().map(Answer::codelength).sum::<f64>() / POOL as f64;
    report.lines.push(format!(
        "exact-repeat over {} runs per graph at both thread counts: codelength_bits (pool mean) \
         {codelength:.15}; summed over the pool: infomap.sweeps={sweeps} \
         infomap.vertices_evaluated={evaluated} infomap.moves={moves}",
        2 * rounds + 2
    ));
    for (i, a) in reference.iter().enumerate() {
        report.lines.push(format!(
            "  graph {i}: codelength {:.15} sweeps {} evaluated {} moves {}",
            a.codelength(),
            a.sweeps,
            a.evaluated,
            a.moves
        ));
    }

    report.e2e_note(
        "setup_s",
        median(&setup),
        "s",
        setup.len(),
        "input generation; median of set-ups".into(),
    );
    report.e2e_note(
        "throughput_ops",
        (report.attempted - report.failed) as f64 / timed_s,
        "1/s",
        report.attempted as usize,
        "completed runs over the timed seconds of both classes".into(),
    );
    report.e2e_note(
        "primary_p50_ms",
        1e3 * median(&class_n),
        "ms",
        class_n.len(),
        format!("one run at nproc={threads}: mean over the pool, median over rounds"),
    );
    report.e2e_note(
        "secondary_p50_ms",
        1e3 * median(&class_1),
        "ms",
        class_1.len(),
        "one run at 1 thread: mean over the pool, median over rounds".into(),
    );
    report.e2e_note(
        "codelength_bits",
        codelength,
        "bits",
        POOL,
        "mean over the pool graphs".into(),
    );
    report.finish_common();

    if args.trace {
        let path = write_trace(&args.workload, args.seed, origin, &[&log]);
        layer_table(&mut report, &path, &rows_n, &rows_1, moves, evaluated);
        let layer_rows: Vec<LayerRows> = rows_n.iter().map(Rows::layer_rows).collect();
        report.infomap_layers(&layer_rows, sweeps, evaluated);
        let traced_wall = LayerRows::median(&layer_rows, |r| r.wall);
        report.common_layers(
            &setup,
            100.0 * (traced_wall / median(&class_n) - 1.0),
            rows_n.len(),
        );
    }
    report
}

/// Prints the flow, decide, apply and schedule-other rows of both classes
/// with their sum, the traced wall and the coverage.
fn layer_table(
    report: &mut Report,
    path: &str,
    rows_n: &[Rows],
    rows_1: &[Rows],
    moves: usize,
    evaluated: usize,
) {
    let col = |rows: &[Rows], f: fn(&Rows) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
    let coverage = |rows: &[Rows]| col(rows, |r| (r.flow + r.decide + r.apply + r.other) / r.wall);
    type Row = (&'static str, fn(&Rows) -> f64);
    let table: [Row; 4] = [
        ("flow", |r| r.flow),
        ("decide (kernel)", |r| r.decide),
        ("apply", |r| r.apply),
        ("schedule_other", |r| r.other),
    ];
    let (wall_n, wall_1) = (col(rows_n, |r| r.wall), col(rows_1, |r| r.wall));
    report.lines.push(format!(
        "layer table: one run (mean over the {POOL} pool graphs), median over {} traced rounds \
         per thread count; spans in {path}",
        rows_n.len()
    ));
    report.lines.push(format!(
        "  {:<28} {:>11} {:>7} {:>11} {:>7}",
        "row", "nproc s", "share", "1t s", "share"
    ));
    let (mut sum_n, mut sum_1) = (0.0, 0.0);
    for (name, f) in table {
        let (vn, v1) = (col(rows_n, f), col(rows_1, f));
        sum_n += vn;
        sum_1 += v1;
        report.lines.push(format!(
            "  {name:<28} {vn:>11.4} {:>6.1}% {v1:>11.4} {:>6.1}%",
            100.0 * vn / wall_n,
            100.0 * v1 / wall_1
        ));
    }
    report.lines.push(format!(
        "  {:<28} {sum_n:>11.4} {:>6.1}% {sum_1:>11.4} {:>6.1}%",
        "sum of rows",
        100.0 * sum_n / wall_n,
        100.0 * sum_1 / wall_1
    ));
    report.lines.push(format!(
        "  {:<28} {wall_n:>11.4} {:>7} {wall_1:>11.4}",
        "traced wall", ""
    ));
    report.lines.push(format!(
        "  per-round coverage (rows / traced wall, median): nproc {:.4}%, 1t {:.4}%",
        100.0 * coverage(rows_n),
        100.0 * coverage(rows_1)
    ));
    report.lines.push(format!(
        "  moves {moves} of {evaluated} vertices evaluated (move ratio {:.4})",
        moves as f64 / evaluated.max(1) as f64
    ));
}

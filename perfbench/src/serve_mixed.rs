//! serve-mixed: synchronous API callers against the serving engine.
//!
//! A closed loop of 2 client threads; each waits for its reply before
//! sending the next request. Per round a client sends 3 `Detect`s, then 1
//! `Update` to an update stream only it writes.
//!
//! - Detects go to a pool of same-size 3,000-vertex LFR graphs, so the
//!   Detect latency class stays unimodal. A seeded 20% repeat one of the
//!   client's recent completed keys (a cache hit); every other Detect uses
//!   a fresh key whose config differs only in `pagerank_max_iters`, which
//!   undirected graphs never use: a new cache key, the same work.
//! - Each update stream has a 5,000-vertex LFR base and takes 20-edit
//!   insert/delete batches.
//!
//! The load is `serve` admission, queueing, cache and dispatch,
//! `infomap::incremental`, and thousands of small rayon calls; large-graph
//! kernel time plays little part. Reads and writes share the engine, so a
//! gain for one class that costs the other shows. Detect is the primary
//! class, Update the secondary one.
//!
//! The traced run also replays the Detects' Infomap work outside the
//! engine, on the same pool graphs with the same wrapped engine as
//! detect-pokec, for the shared `infomap.*` layer rows.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle as ThreadHandle;
use std::time::{Duration, Instant};

use asa_graph::delta::{DeltaGraph, EdgeDelta};
use asa_graph::generators::{lfr_benchmark, LfrConfig};
use asa_graph::{CsrGraph, NodeId};
use asa_infomap::{detect_communities, InfomapConfig, InfomapResult};
use asa_obs::Obs;
use asa_serve::{JobHandle, Outcome, Request, Response, ServeConfig, ServeEngine};

use crate::detect::{traced, Rows};
use crate::spans::{write_trace, SpanLog};
use crate::{median, nproc, pool, repeat_setup, secs, tail, Args, LayerRows, Report, Rng};

const CLIENTS: usize = 2;
const DETECT_POOL: usize = 8;
const DETECT_VERTICES: usize = 3_000;
const STREAM_VERTICES: usize = 5_000;
const DETECTS_PER_ROUND: usize = 3;
const EDITS_PER_UPDATE: usize = 20;
/// One Detect in every block of this many repeats a recent completed key
/// (20%), at a seeded position in the block: the repeat count is exact.
const REPEAT_EVERY: usize = 5;
/// How many of a client's latest fresh keys a repeat may pick from.
const RECENT_KEYS: usize = 8;
const WARMUP_ROUNDS: usize = 5;
/// Timed rounds per client per second of `--seconds`.
const ROUNDS_PER_SECOND: u64 = 26;
/// Set-ups per run (about 0.055 s each).
const SETUP_REPS: usize = 27;
/// The timed rounds run as this many consecutive blocks.
const BLOCKS: usize = 5;
/// A request unresolved after this long counts as failed and ends its
/// client's loop instead of hanging the run.
const REQUEST_LIMIT: Duration = Duration::from_secs(30);
/// Passes over the Detect pool in the traced run's Infomap replay.
const REPLAY_PASSES: usize = 3;

fn engine_config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        workers: 2,
        // One LRU larger than all keys a run can repeat, so every seeded
        // repeat hits and the hit count is fixed by the seed.
        cache_capacity: 256,
        cache_shards: 1,
        dist_ranks: 0,
        obs: Obs::disabled(),
        slo: None,
        blackbox_out: None,
        ..ServeConfig::default()
    }
}

fn lfr(n: usize, seed: u64) -> CsrGraph {
    lfr_benchmark(
        &LfrConfig {
            n,
            ..LfrConfig::default()
        },
        seed,
    )
    .graph
}

/// One mixed batch, about 3:1 inserts to deletes; deletes remove arcs
/// live in the stream's current graph.
fn make_batch(rng: &mut Rng, mirror: &DeltaGraph) -> EdgeDelta {
    let n = mirror.num_nodes();
    let mut delta = EdgeDelta::new();
    while delta.num_ops() < EDITS_PER_UPDATE {
        let u = rng.below(n) as NodeId;
        if rng.chance(3, 4) {
            let v = rng.below(n) as NodeId;
            if u != v {
                delta.insert(u, v, 1.0);
            }
        } else {
            let row = mirror.out_row(u);
            if !row.is_empty() {
                let v = row[rng.below(row.len())].target;
                if u != v {
                    delta.delete(u, v);
                }
            }
        }
    }
    delta
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Detect,
    Update,
}

/// One completed request as the client saw it.
#[derive(Debug, Clone)]
struct Sample {
    class: Class,
    latency: f64,
    submit: f64,
    queued: f64,
    service: f64,
    cache_hit: bool,
    ok: bool,
    stolen: bool,
    degraded: bool,
    shed: bool,
    /// `(incremental, fallback, cold)` for updates.
    update: Option<(bool, bool, bool)>,
}

/// A closed-loop caller with its own update stream.
struct Client {
    id: usize,
    rng: Rng,
    base: Arc<CsrGraph>,
    /// The client's own view of its stream, for picking live arcs to
    /// delete.
    mirror: DeltaGraph,
    next_variant: usize,
    detects_sent: usize,
    /// Position of the repeat within the current block of
    /// [`REPEAT_EVERY`] Detects.
    repeat_slot: usize,
    /// The latest fresh keys with their answers: what a repeat may ask.
    recent: VecDeque<((usize, usize), Arc<InfomapResult>)>,
    /// The first answer per pool graph; every later answer for the graph
    /// must equal it.
    graph_answers: HashMap<usize, Arc<InfomapResult>>,
    last_update_codelength: f64,
    requests: u64,
    /// Handles go to a waiter thread that blocks in `wait()`, so the
    /// client itself can give up after [`REQUEST_LIMIT`].
    to_waiter: Option<Sender<JobHandle>>,
    from_waiter: Receiver<(Response, Instant)>,
    waiter: Option<ThreadHandle<()>>,
    hung: bool,
    errors: Vec<String>,
}

impl Client {
    fn new(id: usize, seed: u64, base: Arc<CsrGraph>) -> Self {
        let (to_waiter, handles) = channel::<JobHandle>();
        let (responses, from_waiter) = channel();
        let waiter = std::thread::Builder::new()
            .name(format!("perfbench-waiter-{id}"))
            .spawn(move || {
                for handle in handles {
                    let response = handle.wait();
                    if responses.send((response, Instant::now())).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn waiter thread");
        Client {
            id,
            rng: Rng::new(seed, 100 + id as u64),
            mirror: DeltaGraph::new(Arc::clone(&base)),
            base,
            next_variant: 0,
            detects_sent: 0,
            repeat_slot: 0,
            recent: VecDeque::new(),
            graph_answers: HashMap::new(),
            last_update_codelength: f64::NAN,
            requests: 0,
            to_waiter: Some(to_waiter),
            from_waiter,
            waiter: Some(waiter),
            hung: false,
            errors: Vec::new(),
        }
    }

    /// Submits and waits; `None` when the request did not resolve within
    /// [`REQUEST_LIMIT`]. Returns the response with client latency and
    /// seconds spent inside `submit`.
    fn call(
        &mut self,
        engine: &ServeEngine,
        request: Request,
        log: Option<&mut SpanLog>,
    ) -> Option<(Response, f64, f64)> {
        let id = ((self.id as u64) << 32) | self.requests;
        self.requests += 1;
        let t0 = Instant::now();
        let handle = engine.submit(request);
        let t1 = Instant::now();
        self.to_waiter
            .as_ref()
            .expect("waiter channel open while the client runs")
            .send(handle)
            .expect("waiter thread alive");
        match self.from_waiter.recv_timeout(REQUEST_LIMIT) {
            Ok((response, t2)) => {
                if let Some(log) = log {
                    let root = log.record("request", t0, t2, None, Some(id));
                    log.record("submit", t0, t1, Some(root), Some(id));
                    log.record("wait", t1, t2, Some(root), Some(id));
                }
                Some((response, (t2 - t0).as_secs_f64(), (t1 - t0).as_secs_f64()))
            }
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                self.hung = true;
                self.errors.push(format!(
                    "client {} request {id} unresolved after {REQUEST_LIMIT:?}",
                    self.id
                ));
                None
            }
        }
    }

    fn detect(
        &mut self,
        engine: &ServeEngine,
        graphs: &[Arc<CsrGraph>],
        log: Option<&mut SpanLog>,
    ) -> Option<Sample> {
        let slot = self.detects_sent % REPEAT_EVERY;
        if slot == 0 {
            self.repeat_slot = self.rng.below(REPEAT_EVERY);
        }
        self.detects_sent += 1;
        let repeat = slot == self.repeat_slot && !self.recent.is_empty();
        let (key, first) = if repeat {
            let (key, answer) = &self.recent[self.rng.below(self.recent.len())];
            (*key, Some(Arc::clone(answer)))
        } else {
            self.next_variant += 1;
            ((self.rng.below(graphs.len()), self.next_variant), None)
        };
        let config = InfomapConfig {
            pagerank_max_iters: 1_000 + self.id * 10_000_000 + key.1,
            ..InfomapConfig::default()
        };
        let request = Request::interactive(Arc::clone(&graphs[key.0])).with_config(config);
        let (response, latency, submit) = self.call(engine, request, log)?;
        let mut sample = Sample::from_response(Class::Detect, &response, latency, submit);
        if let Outcome::Ok(result) = &response.outcome {
            let expected = first.or_else(|| self.graph_answers.get(&key.0).cloned());
            if let Some(expected) = expected {
                if !same_answer(&expected, result) {
                    self.errors.push(format!(
                        "key {key:?} (repeat={repeat}) returned another answer than before"
                    ));
                    sample.ok = false;
                }
            }
            if !repeat {
                self.graph_answers
                    .entry(key.0)
                    .or_insert_with(|| Arc::clone(result));
                self.recent.push_back((key, Arc::clone(result)));
                if self.recent.len() > RECENT_KEYS {
                    self.recent.pop_front();
                }
            }
            if response.cache_hit != repeat {
                self.errors.push(format!(
                    "key {key:?}: cache_hit={} but repeat={repeat}",
                    response.cache_hit
                ));
                sample.ok = false;
            }
        }
        Some(sample)
    }

    fn update(&mut self, engine: &ServeEngine, log: Option<&mut SpanLog>) -> Option<Sample> {
        let delta = make_batch(&mut self.rng, &self.mirror);
        self.mirror.apply(&delta);
        let request = Request::update(Arc::clone(&self.base), delta);
        let (response, latency, submit) = self.call(engine, request, log)?;
        let mut sample = Sample::from_response(Class::Update, &response, latency, submit);
        match (&response.outcome, response.update) {
            (Outcome::Ok(result), Some(info)) => {
                let valid = result.partition.len() == STREAM_VERTICES
                    && result.codelength.is_finite()
                    && result.codelength > 0.0;
                if !valid {
                    self.errors.push(format!(
                        "client {} update returned an invalid partition",
                        self.id
                    ));
                    sample.ok = false;
                }
                self.last_update_codelength = result.codelength;
                sample.update = Some((info.incremental, info.fallback.is_some(), info.cold));
            }
            (Outcome::Ok(_), None) => {
                self.errors
                    .push("an update response carried no UpdateInfo".into());
                sample.ok = false;
            }
            _ => {}
        }
        Some(sample)
    }

    /// Runs `rounds` rounds; stops early if a request hangs.
    fn rounds(
        &mut self,
        engine: &ServeEngine,
        graphs: &[Arc<CsrGraph>],
        rounds: usize,
        mut log: Option<&mut SpanLog>,
    ) -> Vec<Sample> {
        let mut samples = Vec::with_capacity(rounds * (DETECTS_PER_ROUND + 1));
        for _ in 0..rounds {
            for _ in 0..DETECTS_PER_ROUND {
                match self.detect(engine, graphs, log.as_deref_mut()) {
                    Some(s) => samples.push(s),
                    None => return samples,
                }
            }
            match self.update(engine, log.as_deref_mut()) {
                Some(s) => samples.push(s),
                None => return samples,
            }
        }
        samples
    }
}

impl Drop for Client {
    /// Closes the waiter channel and joins the waiter, unless a request
    /// hung: its waiter is then blocked for good and ends with the process.
    fn drop(&mut self) {
        self.to_waiter = None;
        if !self.hung {
            if let Some(w) = self.waiter.take() {
                let _ = w.join();
            }
        }
    }
}

fn same_answer(a: &InfomapResult, b: &InfomapResult) -> bool {
    a.codelength.to_bits() == b.codelength.to_bits() && a.partition.labels() == b.partition.labels()
}

impl Sample {
    fn from_response(class: Class, r: &Response, latency: f64, submit: f64) -> Self {
        Sample {
            class,
            latency,
            submit,
            queued: r.queued.as_secs_f64(),
            service: r.service.as_secs_f64(),
            cache_hit: r.cache_hit,
            ok: matches!(r.outcome, Outcome::Ok(_)),
            stolen: r.stolen,
            degraded: matches!(r.outcome, Outcome::Degraded { .. }),
            shed: matches!(r.outcome, Outcome::Overloaded),
            update: None,
        }
    }
}

/// Everything set-up builds: inputs, a running engine, and clients whose
/// streams are already seeded.
struct World {
    graphs: Vec<Arc<CsrGraph>>,
    engine: ServeEngine,
    clients: Vec<Client>,
    generate_s: f64,
}

fn setup(seed: u64) -> World {
    let t = Instant::now();
    let mut rng = Rng::new(seed, 1);
    let graphs: Vec<Arc<CsrGraph>> = (0..DETECT_POOL)
        .map(|_| Arc::new(lfr(DETECT_VERTICES, rng.next_u64())))
        .collect();
    let bases: Vec<Arc<CsrGraph>> = (0..CLIENTS)
        .map(|_| Arc::new(lfr(STREAM_VERTICES, rng.next_u64())))
        .collect();
    let generate_s = secs(t);
    let engine = ServeEngine::start(engine_config());
    let mut clients: Vec<Client> = bases
        .into_iter()
        .enumerate()
        .map(|(id, base)| Client::new(id, seed, base))
        .collect();
    // Seed each stream: its first update is the cold full run.
    for c in &mut clients {
        if let Some(s) = c.update(&engine, None) {
            if !s.ok || s.update.map(|u| u.2) != Some(true) {
                c.errors.push("stream seeding did not run cold".to_string());
            }
        }
    }
    World {
        graphs,
        engine,
        clients,
        generate_s,
    }
}

/// Runs every client for `rounds` rounds concurrently. Returns the
/// samples and the phase's wall seconds.
fn phase(world: &mut World, rounds: usize, logs: Option<&mut [SpanLog]>) -> (Vec<Sample>, f64) {
    let (engine, graphs) = (&world.engine, &world.graphs);
    let mut logs: Vec<Option<&mut SpanLog>> = match logs {
        Some(ls) => ls.iter_mut().map(Some).collect(),
        None => (0..CLIENTS).map(|_| None).collect(),
    };
    let t = Instant::now();
    let samples = std::thread::scope(|s| {
        let running: Vec<_> = world
            .clients
            .iter_mut()
            .zip(logs.iter_mut())
            .map(|(c, log)| s.spawn(move || c.rounds(engine, graphs, rounds, log.as_deref_mut())))
            .collect();
        running
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (samples, secs(t))
}

struct ClassStats {
    p50: f64,
    /// Median over blocks of each block's tail, with the block tail's
    /// percentile.
    tail: (f64, f64),
    n: usize,
}

fn latencies_ms(samples: &[Sample], class: Class) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.class == class && s.ok)
        .map(|s| s.latency * 1e3)
        .collect()
}

/// Per-class latency over the timed blocks. The tail of each block is the
/// highest percentile with ten samples beyond it; the reported tail is the
/// median of the block tails, which a single burst of host noise cannot
/// move.
fn class_stats(blocks: &[Vec<Sample>], class: Class) -> ClassStats {
    let all: Vec<f64> = blocks.iter().flat_map(|b| latencies_ms(b, class)).collect();
    let tails: Vec<(f64, f64)> = blocks
        .iter()
        .filter_map(|b| tail(&latencies_ms(b, class)))
        .collect();
    let nan = (f64::NAN, f64::NAN);
    ClassStats {
        p50: if all.is_empty() {
            f64::NAN
        } else {
            median(&all)
        },
        tail: if tails.len() == blocks.len() {
            (
                median(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
                median(&tails.iter().map(|t| t.1).collect::<Vec<_>>()),
            )
        } else {
            nan
        },
        n: all.len(),
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut generate = Vec::new();
    let (mut world, setup_times) = repeat_setup(SETUP_REPS, || {
        let w = setup(args.seed);
        generate.push(w.generate_s);
        w
    });
    // Whole blocks of whole repeat cycles: every block then holds exactly
    // one repeat per REPEAT_EVERY Detects.
    let unit = BLOCKS * REPEAT_EVERY;
    let rounds = ((args.seconds * ROUNDS_PER_SECOND) as usize)
        .max(BLOCKS * 6)
        .div_ceil(unit)
        * unit;
    report.lines.push(format!(
        "input: {CLIENTS} closed-loop clients x {rounds} rounds of {DETECTS_PER_ROUND} Detect + 1 \
         Update after {WARMUP_ROUNDS} warm-up rounds; Detect pool {DETECT_POOL} LFR graphs of \
         {DETECT_VERTICES} vertices, 1 in {REPEAT_EVERY} a seeded repeat; update streams of \
         {STREAM_VERTICES} vertices, {EDITS_PER_UPDATE}-edit batches; engine shards=1 workers=2"
    ));

    phase(&mut world, WARMUP_ROUNDS, None);
    let (mut blocks, mut block_secs) = (Vec::new(), Vec::new());
    // Traced blocks alternate with untraced ones, so a slow stretch of the
    // host cannot pass for tracing overhead.
    let origin = Instant::now();
    let mut logs: Vec<SpanLog> = (0..CLIENTS).map(|_| SpanLog::default()).collect();
    let mut traced = Vec::new();
    for _ in 0..BLOCKS {
        let (block, block_s) = phase(&mut world, rounds / BLOCKS, None);
        blocks.push(block);
        block_secs.push(block_s);
        if args.trace {
            traced.extend(phase(&mut world, rounds / BLOCKS, Some(&mut logs)).0);
        }
    }
    let samples: Vec<Sample> = blocks.concat();
    let planned = (CLIENTS * rounds * (DETECTS_PER_ROUND + 1)) as u64;
    report.attempted = planned;
    report.failed = planned - samples.iter().filter(|s| s.ok).count() as u64;

    let detect = class_stats(&blocks, Class::Detect);
    let update = class_stats(&blocks, Class::Update);
    let codelength = world
        .clients
        .iter()
        .map(|c| c.last_update_codelength)
        .sum::<f64>()
        / CLIENTS as f64;
    report.e2e_note(
        "setup_s",
        median(&setup_times),
        "s",
        setup_times.len(),
        "generation, engine start, stream seeding; median of set-ups".into(),
    );
    let completed = samples.iter().filter(|s| s.ok).count();
    let rates: Vec<f64> = blocks
        .iter()
        .zip(&block_secs)
        .map(|(b, secs)| b.iter().filter(|s| s.ok).count() as f64 / secs)
        .collect();
    report.e2e_note(
        "throughput_ops",
        median(&rates),
        "1/s",
        completed,
        format!(
            "requests per second, median of {BLOCKS} blocks; {completed} requests in {:.3} s",
            block_secs.iter().sum::<f64>()
        ),
    );
    for (name, class, c) in [
        ("primary_p50_ms", "Detect", &detect),
        ("secondary_p50_ms", "Update", &update),
    ] {
        report.e2e_note(name, c.p50, "ms", c.n, format!("{class} latency"));
        report.lines.push(format!(
            "{class} tail: {:.4} ms at p{:.2} (10 samples beyond) of each of {BLOCKS} blocks, \
             median over blocks; {} samples",
            c.tail.0, c.tail.1, c.n
        ));
    }
    report.e2e_note(
        "codelength_bits",
        codelength,
        "bits",
        CLIENTS,
        "mean over the streams' last updates".into(),
    );
    report.finish_common();
    counts_line(&mut report, "timed phase", &samples);
    // Every Detect answer must equal a direct run on its pool graph.
    let direct: Vec<InfomapResult> = world
        .graphs
        .iter()
        .map(|g| detect_communities(g, &InfomapConfig::default()))
        .collect();

    if args.trace {
        let path = write_trace(
            &args.workload,
            args.seed,
            origin,
            &logs.iter().collect::<Vec<_>>(),
        );
        counts_line(&mut report, "traced phase", &traced);
        serve_table(&mut report, &traced, &path);
        let (rows, sweeps, evaluated) = replay_detects(&mut report, &world.graphs, &direct);
        report.infomap_layers(&rows, sweeps, evaluated);
        let traced_p50 = median(&latencies_ms(&traced, Class::Detect));
        report.common_layers(
            &generate,
            100.0 * (traced_p50 / detect.p50 - 1.0),
            Counts::of(&traced).detects,
        );
    }

    verify_detect_answers(&mut report, &world, &direct);
    let hung = world.clients.iter().any(|c| c.hung);
    let sent: u64 = world.clients.iter().map(|c| c.requests).sum();
    for c in &mut world.clients {
        report.errors.append(&mut c.errors);
    }
    let World {
        engine, clients, ..
    } = world;
    drop(clients);
    if hung {
        // A worker never resolved a request; shutting down would join it
        // forever. The process exit reclaims the engine.
        std::mem::forget(engine);
    } else {
        // Every submission ends in exactly one outcome: completed (ok or
        // degraded), shed, or expired.
        let stats = engine.shutdown();
        report.check(
            stats.submitted == sent
                && stats.completed + stats.shed + stats.deadline_exceeded == sent,
            || format!("engine accounted {stats:?} for {sent} submitted requests"),
        );
    }
    report
}

/// Every Detect answer for a pool graph equals the graph's first answer
/// (checked on receipt); the first answers must equal a direct
/// `detect_communities` run: the config variants change the cache key,
/// never the work.
fn verify_detect_answers(report: &mut Report, world: &World, direct: &[InfomapResult]) {
    for c in &world.clients {
        for (&g, answer) in &c.graph_answers {
            report.check(same_answer(&direct[g], answer), || {
                format!("Detect answer for pool graph {g} differs from detect_communities")
            });
        }
    }
}

/// The seed-fixed serving counters of one phase.
struct Counts {
    requests: usize,
    detects: usize,
    hits: usize,
    updates: usize,
    incremental: usize,
    fallbacks: usize,
    cold: usize,
    shed: usize,
    degraded: usize,
    steals: usize,
}

impl Counts {
    fn of(samples: &[Sample]) -> Self {
        let count = |f: fn(&Sample) -> bool| samples.iter().filter(|s| f(s)).count();
        Counts {
            requests: samples.len(),
            detects: count(|s| s.class == Class::Detect),
            hits: count(|s| s.cache_hit),
            updates: count(|s| s.update.is_some()),
            incremental: count(|s| s.update.is_some_and(|u| u.0)),
            fallbacks: count(|s| s.update.is_some_and(|u| u.1)),
            cold: count(|s| s.update.is_some_and(|u| u.2)),
            shed: count(|s| s.shed),
            degraded: count(|s| s.degraded),
            steals: count(|s| s.stolen),
        }
    }
}

/// Prints the seed-fixed serving counters of one phase.
fn counts_line(report: &mut Report, what: &str, samples: &[Sample]) {
    let c = Counts::of(samples);
    report.lines.push(format!(
        "exact-repeat counts, {what}: {} requests, cache hits {} of {} Detects, \
         updates incremental/fallback/cold {}/{}/{}, shed {}, degraded {}, steals {}",
        c.requests,
        c.hits,
        c.detects,
        c.incremental,
        c.fallbacks,
        c.cold,
        c.shed,
        c.degraded,
        c.steals,
    ));
}

/// Replays the Detects' Infomap work on every pool graph, [`REPLAY_PASSES`]
/// times at `nproc` threads, with the layer-timing engine. Returns one row
/// set per pass (mean over the pool) and the pool's summed work counts.
fn replay_detects(
    report: &mut Report,
    graphs: &[Arc<CsrGraph>],
    direct: &[InfomapResult],
) -> (Vec<LayerRows>, usize, usize) {
    let cfg = InfomapConfig::default();
    let p = pool(nproc());
    let mut log = SpanLog::default();
    let (mut passes, mut sweeps, mut evaluated) = (Vec::with_capacity(REPLAY_PASSES), 0, 0);
    for pass in 0..REPLAY_PASSES {
        let mut runs = Vec::with_capacity(graphs.len());
        for (g, want) in graphs.iter().zip(direct) {
            let (answer, rows) = p.install(|| traced(g, &cfg, &mut log));
            report.check(
                answer.codelength_bits == want.codelength.to_bits()
                    && answer.labels == want.partition.labels(),
                || "the replayed Detect differs from detect_communities".to_string(),
            );
            if pass == 0 {
                sweeps += answer.sweeps;
                evaluated += answer.evaluated;
            }
            runs.push(rows);
        }
        passes.push(Rows::mean(&runs).layer_rows());
    }
    report.lines.push(format!(
        "Infomap replay of the Detects: {} pool graphs x {REPLAY_PASSES} passes at nproc; \
         per Detect (pool mean, median over passes) flow {:.4} ms, kernel {:.4} ms, rest {:.4} ms, \
         wall {:.4} ms",
        graphs.len(),
        1e3 * LayerRows::median(&passes, |r| r.flow),
        1e3 * LayerRows::median(&passes, |r| r.kernel),
        1e3 * LayerRows::median(&passes, |r| r.rest),
        1e3 * LayerRows::median(&passes, |r| r.wall),
    ));
    (passes, sweeps, evaluated)
}

/// Prints the serve layers of the traced phase: per class, submit, queued,
/// service, respond and latency, then the policy ratios.
fn serve_table(report: &mut Report, traced: &[Sample], path: &str) {
    let ms = |v: Vec<f64>| {
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v) * 1e3
        }
    };
    let queued: Vec<&Sample> = traced.iter().filter(|s| s.ok && !s.cache_hit).collect();
    let pick = |class: Option<Class>, f: fn(&Sample) -> f64| -> Vec<f64> {
        queued
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| f(s))
            .collect()
    };
    // `Response::queued` starts on entry to `submit`, so it already
    // covers the submit call; what is left after queue and service is the
    // hand-back to the caller.
    let respond = |s: &Sample| s.latency - s.queued - s.service;
    report.lines.push(format!(
        "serve layer table: medians over the traced phase's queued requests (cache hits \
         excluded); spans in {path}"
    ));
    report.lines.push(format!(
        "  {:<8} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "class", "n", "submit ms", "queued ms", "service ms", "respond ms", "latency ms"
    ));
    for (name, class) in [
        ("detect", Some(Class::Detect)),
        ("update", Some(Class::Update)),
        ("all", None),
    ] {
        report.lines.push(format!(
            "  {name:<8} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            pick(class, |s| s.latency).len(),
            ms(pick(class, |s| s.submit)),
            ms(pick(class, |s| s.queued)),
            ms(pick(class, |s| s.service)),
            ms(pick(class, respond)),
            ms(pick(class, |s| s.latency)),
        ));
    }
    let c = Counts::of(traced);
    let warm = c.updates - c.cold;
    report.lines.push(format!(
        "  cache hit ratio {:.4} (of Detects), update incremental ratio {:.4} (of warm updates)",
        c.hits as f64 / c.detects.max(1) as f64,
        c.incremental as f64 / warm.max(1) as f64
    ));
}

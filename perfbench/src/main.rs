//! End-to-end and per-layer benchmark of the Infomap stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <detect-pokec|serve-mixed|simulate-pokec> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload generates its inputs in-process from `--seed`, sets up
//! several times (the median is `setup_s`), discards warm-up operations,
//! then runs a fixed number of operations derived from `--seconds` and
//! checks every output. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` additionally times the calls into each layer from this
//! crate's own spans and prints the per-layer table. Every workload reports
//! the same metric names ([`END_TO_END`], [`PER_LAYER`]); a run that misses
//! one fails. The last stdout line is one JSON object. See
//! `perfbench/README.md`.

mod detect;
mod serve_mixed;
mod simulate;
mod spans;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rayon::prelude::*;

/// The end-to-end metrics every workload prints with `--trace 0`.
/// "Primary" and "secondary" are the workload's two operation classes:
/// detect-pokec runs at `nproc` and at 1 thread, serve-mixed Detect and
/// Update requests, simulate-pokec software-hash and ASA runs.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "throughput_ops",
    "primary_p50_ms",
    "secondary_p50_ms",
    "codelength_bits",
    "ok_frac",
    "peak_rss_mb",
];

/// The per-layer metrics every workload prints with `--trace 1`. The
/// `infomap.*` rows split the primary operation's Infomap run.
pub const PER_LAYER: [&str; 10] = [
    "graph.generate_s",
    "infomap.flow_s",
    "infomap.kernel_s",
    "infomap.rest_s",
    "infomap.traced_wall_s",
    "infomap.sweeps",
    "infomap.vertices_evaluated",
    "rayon.call_us",
    "rayon.call_1t_us",
    "obs.trace_overhead_pct",
];

/// Calls per rayon probe measurement.
const RAYON_PROBE_CALLS: usize = 300;
/// Elements of the rayon probe call.
const RAYON_PROBE_LEN: usize = 25_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.max(1),
        trace,
    })
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and single measurements).
    pub samples: usize,
    pub note: String,
}

/// Everything a workload hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Extra human-readable lines (environment, exact-repeat counters,
    /// the per-layer table).
    pub lines: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.e2e_note(name, value, unit, samples, String::new());
    }

    pub fn e2e_note(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            samples,
            note,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.per_layer.push(Metric {
            name,
            value,
            unit,
            samples,
            note: String::new(),
        });
    }

    /// Records an output-check failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds the failure fraction's complement and the peak RSS, which every
    /// workload reports.
    pub fn finish_common(&mut self) {
        let ok = (self.attempted - self.failed.min(self.attempted)) as f64
            / self.attempted.max(1) as f64;
        self.e2e_note(
            "ok_frac",
            ok,
            "ratio",
            self.attempted as usize,
            format!("{} failed of {} attempted", self.failed, self.attempted),
        );
        self.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
    }

    /// Adds the `infomap.*` per-layer rows of the primary operation:
    /// medians over `rows`, plus its work counts.
    pub fn infomap_layers(&mut self, rows: &[LayerRows], sweeps: usize, evaluated: usize) {
        let n = rows.len();
        self.layer(
            "infomap.flow_s",
            LayerRows::median(rows, |r| r.flow),
            "s",
            n,
        );
        self.layer(
            "infomap.kernel_s",
            LayerRows::median(rows, |r| r.kernel),
            "s",
            n,
        );
        self.layer(
            "infomap.rest_s",
            LayerRows::median(rows, |r| r.rest),
            "s",
            n,
        );
        self.layer(
            "infomap.traced_wall_s",
            LayerRows::median(rows, |r| r.wall),
            "s",
            n,
        );
        self.layer("infomap.sweeps", sweeps as f64, "count", 1);
        self.layer("infomap.vertices_evaluated", evaluated as f64, "count", 1);
    }

    /// Adds the per-layer metrics measured the same way on every workload:
    /// input generation, the rayon call probe and the tracing overhead.
    pub fn common_layers(&mut self, generate: &[f64], overhead_pct: f64, overhead_samples: usize) {
        self.layer("graph.generate_s", median(generate), "s", generate.len());
        let (calls_n, calls_1) = (rayon_call_us(nproc()), rayon_call_us(1));
        self.layer("rayon.call_us", calls_n, "us", RAYON_PROBE_CALLS);
        self.layer("rayon.call_1t_us", calls_1, "us", RAYON_PROBE_CALLS);
        self.layer(
            "obs.trace_overhead_pct",
            overhead_pct,
            "%",
            overhead_samples,
        );
    }
}

/// The primary operation's Infomap run split into layers, in seconds: the
/// flow build, the sweep kernel, the rest (move application, coarsening,
/// schedule), and the traced wall they sum to.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRows {
    pub flow: f64,
    pub kernel: f64,
    pub rest: f64,
    pub wall: f64,
}

impl LayerRows {
    pub fn median(rows: &[LayerRows], f: fn(&LayerRows) -> f64) -> f64 {
        median(&rows.iter().map(f).collect::<Vec<_>>())
    }
}

/// Median microseconds of one `par_iter_mut().enumerate().for_each` call
/// over [`RAYON_PROBE_LEN`] elements at `threads`, after warm-up calls.
fn rayon_call_us(threads: usize) -> f64 {
    let p = pool(threads);
    let mut v = vec![0u64; RAYON_PROBE_LEN];
    let mut times = Vec::with_capacity(RAYON_PROBE_CALLS);
    for i in 0..RAYON_PROBE_CALLS + 20 {
        let t = Instant::now();
        p.install(|| {
            v.par_iter_mut()
                .enumerate()
                .for_each(|(j, x)| *x = x.wrapping_add(j as u64))
        });
        if i >= 20 {
            times.push(secs(t) * 1e6);
        }
    }
    std::hint::black_box(&v);
    median(&times)
}

/// Median of `xs` (mean of the two middle values for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the sample
/// with exactly ten larger ones. Returns `(value, percentile)`; `None`
/// with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    asa_obs::resource::sample().map_or(0.0, |s| s.peak_rss_bytes as f64 / 1e6)
}

pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Host thread count used for every `nproc` leg.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored rayon pool builder never fails")
}

/// Deterministic xorshift64* stream; seeds go through splitmix64 so
/// neighbouring seeds give unrelated streams.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

/// Runs `setup` `reps` times, keeping the last result. Returns it with the
/// per-repetition set-up seconds; `setup_s` is their median. Each workload
/// picks `reps` so the set-ups span about 1.5 s: a median over a short
/// stretch follows one burst of host noise.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        // Drop the previous repetition first so each set-up starts from
        // the same memory state.
        drop(kept.take());
        let t = Instant::now();
        kept = Some(setup());
        times.push(secs(t));
    }
    (kept.expect("at least one set-up"), times)
}

/// Pins what the program reads from the environment, so a stray shell
/// variable cannot change the measured configuration.
fn pin_environment() {
    for var in ["RAYON_NUM_THREADS", "ASA_SERVE_SHARDS", "ASA_BLACKBOX_OUT"] {
        std::env::remove_var(var);
    }
    std::env::remove_var(asa_infomap::kernel::FORCE_SCALAR_ENV);
    asa_infomap::kernel::set_force_scalar(false);
    asa_infomap::kernel::set_phase_timing(false);
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Names a mismatch unless `shown` holds exactly the names of `expected`.
fn name_mismatch(shown: &[Metric], expected: &[&str]) -> Option<String> {
    let mut names: Vec<&str> = shown.iter().map(|m| m.name).collect();
    let mut want = expected.to_vec();
    names.sort_unstable();
    want.sort_unstable();
    (names != want).then(|| format!("reported metrics {names:?}, the manifest lists {want:?}"))
}

fn print_report(args: &Args, report: &mut Report) -> bool {
    let mismatch = if args.trace {
        name_mismatch(&report.per_layer, &PER_LAYER)
    } else {
        name_mismatch(&report.end_to_end, &END_TO_END)
    };
    report.errors.extend(mismatch);
    for line in &report.lines {
        println!("{line}");
    }
    let shown = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{:<34} {:>18} {:<6} {:>8}  note",
        "metric", "value", "unit", "samples"
    );
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!(
            "{:<34} {:>18.6} {:<6} {:>8}  {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    for e in &report.errors {
        println!("CHECK FAILED: {e}");
    }
    let finite = shown.iter().all(|m| m.value.is_finite());
    let correct = report.errors.is_empty() && report.failed == 0 && finite;
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, m) in shown.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    correct
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let mut report = match args.workload.as_str() {
        "detect-pokec" => detect::run(&args),
        "serve-mixed" => serve_mixed::run(&args),
        "simulate-pokec" => simulate::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.lines.insert(
        0,
        format!(
            "perfbench workload={} seed={} seconds={} trace={} nproc={} kernel={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            nproc(),
            asa_infomap::kernel::kernel_path_name()
        ),
    );
    if print_report(&args, &mut report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

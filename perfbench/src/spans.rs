//! In-memory span log for traced runs.
//!
//! Spans are recorded only around the calls this crate makes into each
//! layer (the program itself runs with `Obs::disabled()`): name, start,
//! end, parent, and the request id on serve-mixed. They stay in memory
//! while the run measures and are written out once at the end.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One thread's spans. Parents are indices into the same log.
#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`SpanLog::close`] finishes.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    /// Total and self seconds per span name, for `root` and the spans
    /// below it. Self time is a span's duration minus its children's.
    pub fn layer_times(&self, root: usize) -> BTreeMap<&'static str, (f64, f64)> {
        let under_root = |mut i: usize| loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        };
        let inside: Vec<bool> = (0..self.spans.len()).map(under_root).collect();
        let mut child_secs = vec![0.0; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) if inside[i] && i != root => child_secs[p] += s.seconds(),
                _ => {}
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                let e = out.entry(s.name).or_default();
                e.0 += s.seconds();
                e.1 += s.seconds() - child_secs[i];
            }
        }
        out
    }

    /// Appends the spans as JSON lines (times in microseconds since
    /// `origin`) under `thread`.
    pub fn write_jsonl(
        &self,
        out: &mut impl std::io::Write,
        origin: Instant,
        thread: usize,
    ) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"thread\": {thread}, \"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \
                 \"end_us\": {:.3}, \"parent\": {}, \"request\": {}}}",
                s.name,
                us(s.start),
                us(s.end),
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            )?;
        }
        Ok(())
    }
}

/// Writes every log to `.bench_trace/<workload>-seed<seed>.jsonl` under
/// the working directory and returns the path written.
pub fn write_trace(workload: &str, seed: u64, origin: Instant, logs: &[&SpanLog]) -> String {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            for (thread, log) in logs.iter().enumerate() {
                log.write_jsonl(&mut w, origin, thread)?;
            }
            w.flush()
        });
    match written {
        Ok(()) => path.display().to_string(),
        Err(e) => format!("(trace not written: {e})"),
    }
}

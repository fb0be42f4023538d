//! In-memory span recorder for the traced run. Spans are recorded from
//! the benchmark's side of each layer boundary, kept in memory, and
//! written to `benchmark/out/<workload>.trace.jsonl` when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Ops whose spans are kept for the trace file. The per-layer statistics
/// use every traced op; the file is a bounded sample so a long run cannot
/// grow it (or the process) without limit.
const MAX_OPS_IN_FILE: u64 = 10_000;

pub struct Span {
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    pub name: &'static str,
    /// Name of the span that caused this one ("" for the op's root).
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    /// Distinguishes op ids of concurrent clients.
    client: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, client: u64) -> Tracer {
        Tracer {
            origin,
            client,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        if op < MAX_OPS_IN_FILE {
            self.spans.push(Span {
                op,
                name,
                parent,
                start_ns,
                end_ns,
            });
        }
    }

    /// Records child spans that are known only by duration (the server's
    /// `TRACE` rows, the database's `Trace`): laid out back to back from
    /// `start_ns`.
    pub fn record_durations(
        &mut self,
        op: u64,
        parent: &'static str,
        start_ns: u64,
        children: &[(&'static str, u64)],
    ) {
        let mut at = start_ns;
        for &(name, nanos) in children {
            self.record(op, name, parent, at, at + nanos);
            at += nanos;
        }
    }
}

/// Writes every tracer's spans as one JSON object per line.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for s in &t.spans {
            writeln!(
                out,
                "{{\"client\":{},\"op\":{},\"name\":\"{}\",\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                t.client, s.op, s.name, s.parent, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

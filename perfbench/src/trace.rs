//! In-memory spans recorded around calls from the benchmark into the
//! program's layers, written out once the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The request (or set-up step) every span of one operation shares.
    pub op: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Records nested spans for one thread.
pub struct Recorder {
    origin: Instant,
    tid: u64,
    next_id: u64,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `tid` also seeds the span-id space, so ids stay unique when
    /// several recorders' spans are merged.
    pub fn new(origin: Instant, tid: u64) -> Recorder {
        Recorder {
            origin,
            tid,
            next_id: tid << 40 | 1,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span named `name` of operation `op`, nested under
    /// whichever span is open; returns `f`'s value and the duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start = Instant::now();
        let value = f(self);
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans.push(Span {
            name,
            id,
            parent,
            op,
            tid: self.tid,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
        });
        (value, dur_ns)
    }
}

/// Sum of durations and count of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| (ns + s.dur_ns, n + 1))
}

/// Mean duration in µs of the spans named `name` (0 when none ran).
pub fn mean_us(spans: &[Span], name: &str) -> f64 {
    let (ns, n) = total(spans, name);
    if n == 0 {
        0.0
    } else {
        ns as f64 / n as f64 / 1000.0
    }
}

/// Write the spans as a Chrome trace (`chrome://tracing`, Perfetto):
/// one complete event per span, with its id, parent and operation.
pub fn write_chrome(path: &Path, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { ",\n" } else { "\n" };
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1000.0,
            s.dur_ns as f64 / 1000.0,
            s.id,
            s.parent,
            s.op
        )?;
    }
    out.write_all(b"]}\n")?;
    out.flush()
}

//! An in-memory span log for the traced run.
//!
//! The benchmark records a span (name, start, end, parent) around each
//! call it makes into a layer's public functions, keeps the spans in
//! memory, derives per-layer times from them, and writes them out when
//! the run ends. Nothing here reads the program's own spans or stage
//! metrics.
//!
//! Spans nest strictly: a span's parent is the span open when it
//! started. Each span's self time (its duration minus the part its
//! children cover) is folded into a per-name sample when it closes, so
//! the statistics cover every span while the log keeps only the first
//! [`LOG_CAP`].

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept in the log (and written out); later ones count only in the
/// per-name statistics.
const LOG_CAP: usize = 50_000;

/// One logged span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// An open span: where it started, its log slot, and how much of it its
/// closed children cover.
#[derive(Debug, Clone, Copy)]
struct Open {
    start_ns: u64,
    slot: Option<u32>,
    covered_ns: u64,
}

/// The span log.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    log: Vec<Span>,
    open: Vec<Open>,
    self_us: BTreeMap<&'static str, Vec<f32>>,
    closed: u64,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            log: Vec::new(),
            open: Vec::new(),
            self_us: BTreeMap::new(),
            closed: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().and_then(|o| o.slot);
        let start_ns = self.now_ns();
        let slot = (self.log.len() < LOG_CAP).then(|| {
            self.log.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            (self.log.len() - 1) as u32
        });
        self.open.push(Open {
            start_ns,
            slot,
            covered_ns: 0,
        });
    }

    /// Closes the innermost open span under `name` (which may differ from
    /// the name it was opened with, when the outcome decides it) and
    /// returns its duration in nanoseconds.
    pub fn exit_as(&mut self, name: &'static str) -> u64 {
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("a span is open");
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.covered_ns += duration;
        }
        if let Some(slot) = open.slot {
            let span = &mut self.log[slot as usize];
            span.name = name;
            span.end_ns = end_ns;
        }
        let own = duration.saturating_sub(open.covered_ns);
        self.self_us.entry(name).or_default().push(own as f32 / 1e3);
        self.closed += 1;
        duration
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit_as(name);
        out
    }

    /// Median self time of the spans named `name`, microseconds (`NaN`
    /// when there were none).
    pub fn median_self_us(&self, name: &str) -> f64 {
        let times: Vec<f64> = self
            .self_us
            .get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|&t| f64::from(t)).collect());
        crate::stats::median(&times)
    }

    /// Number of spans closed.
    pub fn closed(&self) -> u64 {
        self.closed
    }

    /// Writes the logged spans as Chrome trace-event JSON (load it in
    /// Perfetto) with the span id and parent in each event's `args`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"displayTimeUnit\":\"ns\",\"spans_closed\":{},\"traceEvents\":[",
            self.closed
        )?;
        for (i, span) in self.log.iter().enumerate() {
            let parent = span.parent.map_or(-1, i64::from);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { "," },
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new();
        spans.enter("root");
        spans.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total_us = spans.exit_as("root") as f64 / 1e3;
        let child = spans.median_self_us("child");
        let root_self = spans.median_self_us("root");
        assert!(child >= 2000.0);
        assert!(root_self < child);
        assert!((total_us - child - root_self).abs() < 1e-2 * total_us);
        assert_eq!(spans.closed(), 2);
        assert_eq!(spans.log[1].parent, Some(0));
    }

    #[test]
    fn log_is_capped_but_statistics_are_not() {
        let mut spans = Spans::new();
        for _ in 0..LOG_CAP + 10 {
            spans.time("leaf", || ());
        }
        assert_eq!(spans.log.len(), LOG_CAP);
        assert_eq!(spans.self_us["leaf"].len(), LOG_CAP + 10);
    }
}

//! The benchmark's own span recorder.
//!
//! Spans are taken around calls into the program's public functions from
//! the benchmark's files only: a name, start and end (ns since the
//! recorder was created), the parent span and the pass the span belongs
//! to. They are kept in memory and written as JSONL when the run ends.
//! Self time is a span's duration minus the part of it its children cover.

use serde::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub pass: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread, so a callee (the traced
    /// structure provider) can parent its spans without a handle.
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; recorded when [`Tracer::close`] is called.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    pass: u64,
    name: String,
    start_ns: u64,
    restore: Option<u64>,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent` (or under the thread's current span when
    /// `parent` is `None`) and makes it the thread's current span.
    pub fn open(&self, name: impl Into<String>, parent: Option<u64>, pass: u64) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let restore = CURRENT.with(|c| c.replace(Some(id)));
        Open {
            id,
            parent: parent.or(restore),
            pass,
            name: name.into(),
            start_ns: self.now_ns(),
            restore,
        }
    }

    /// Closes a span, restoring the thread's previous current span, and
    /// returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(open.restore));
        let span = Span {
            id: open.id,
            parent: open.parent,
            pass: open.pass,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        let secs = span.dur_ns() as f64 * 1e-9;
        self.spans.lock().expect("span buffer").push(span);
        secs
    }

    /// Runs `f` inside a span named `name` under the thread's current span.
    pub fn time<R>(&self, name: &str, pass: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, None, pass);
        let out = f();
        self.close(open);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans() {
            let line = Value::Object(vec![
                ("id".into(), Value::Uint(span.id)),
                (
                    "parent".into(),
                    span.parent.map_or(Value::Null, Value::Uint),
                ),
                ("pass".into(), Value::Uint(span.pass)),
                ("name".into(), Value::Str(span.name.clone())),
                ("start_ns".into(), Value::Uint(span.start_ns)),
                ("end_ns".into(), Value::Uint(span.end_ns)),
            ]);
            writeln!(
                out,
                "{}",
                serde_json::to_string(&line).expect("serializable span")
            )?;
        }
        out.flush()
    }

    /// Per span name: (count, total seconds, self seconds). A child's
    /// interval is clipped to its parent's before it is subtracted, and
    /// overlapping children are merged so parallel children are not
    /// subtracted twice.
    pub fn self_times(&self) -> BTreeMap<String, (usize, f64, f64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for span in &spans {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut cursor = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(cursor);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            let entry = out.entry(span.name.clone()).or_insert((0, 0.0, 0.0));
            entry.0 += 1;
            entry.1 += span.dur_ns() as f64 * 1e-9;
            entry.2 += (span.dur_ns() - covered) as f64 * 1e-9;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let tracer = Tracer::new();
        let root = tracer.open("root", None, 1);
        let child = tracer.open("child", None, 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        tracer.close(child);
        tracer.close(root);
        let times = tracer.self_times();
        let (count, total, own) = times["root"];
        assert_eq!(count, 1);
        assert!(own < total);
        let child_total = times["child"].1;
        assert!((total - own - child_total).abs() < 1e-6);
        let spans = tracer.spans();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        assert_eq!(
            child.parent,
            Some(spans.iter().find(|s| s.name == "root").unwrap().id)
        );
    }
}

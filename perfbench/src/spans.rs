//! The traced run's span recorder: name, start, end, parent and
//! request id per span, kept in memory and written out once at the end.
//!
//! Spans are recorded only around calls the benchmark makes into the
//! crates' public functions; nothing inside the program is traced.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// What a root span stands for. Only `Request` roots are a replayed
/// request's own path (coverage and per-request counts); `Detail` roots
/// re-run parts of a request to split the optimizer's time by layer;
/// `Check` roots are the answer checks; `Setup` roots are untimed
/// preparation that still contributes per-call layer timings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Root {
    Setup,
    Request,
    Detail,
    Check,
}

impl Root {
    fn name(self) -> &'static str {
        match self {
            Root::Setup => "setup",
            Root::Request => "request",
            Root::Detail => "detail",
            Root::Check => "check",
        }
    }
}

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub root: Root,
    pub children: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Work counters of `Request`/`Detail` roots, summed over the run.
    counts: BTreeMap<&'static str, f64>,
    /// The same counters over every root, set-up included.
    all_counts: BTreeMap<&'static str, f64>,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a new root span of kind `root` for `request`.
    pub fn root<T>(&self, root: Root, request: u64, f: impl FnOnce() -> T) -> T {
        self.open(root.name(), Some((root, request)), f)
    }

    /// Runs `f` under a span named `name`, child of the innermost open
    /// span. A no-op wrapper when tracing is off.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name, None, f)
    }

    fn open<T>(&self, name: &'static str, root: Option<(Root, u64)>, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut inner = self.inner.borrow_mut();
            let parent = inner.stack.last().copied();
            let (kind, request) = match (root, parent) {
                (Some(r), _) => r,
                (None, Some(p)) => (inner.spans[p].root, inner.spans[p].request),
                (None, None) => (Root::Setup, 0),
            };
            if let Some(p) = parent {
                inner.spans[p].children += 1;
            }
            let idx = inner.spans.len();
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
                root: kind,
                children: 0,
            });
            inner.stack.push(idx);
            idx
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.stack.pop();
        let span = &mut inner.spans[idx];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Adds `value` to the counter `name` when the innermost open span
    /// belongs to a request (its own path or its detail re-run).
    pub fn count(&self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let Some(&top) = inner.stack.last() else {
            return;
        };
        *inner.all_counts.entry(name).or_insert(0.0) += value;
        if matches!(inner.spans[top].root, Root::Request | Root::Detail) {
            *inner.counts.entry(name).or_insert(0.0) += value;
        }
    }

    pub fn counts(&self) -> BTreeMap<&'static str, f64> {
        self.inner.borrow().counts.clone()
    }

    pub fn all_counts(&self) -> BTreeMap<&'static str, f64> {
        self.inner.borrow().all_counts.clone()
    }

    /// Calls-and-time per span name over every recorded span:
    /// `(calls, total seconds)`.
    pub fn per_name(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in &self.inner.borrow().spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns() as f64 * 1e-9;
        }
        out
    }

    /// Wall time of every `Request` root and the part of it covered by
    /// the self time of its leaf spans: `(wall_s, leaf_s)` per request.
    pub fn request_coverage(&self) -> Vec<(f64, f64)> {
        let inner = self.inner.borrow();
        let mut roots: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for (i, s) in inner.spans.iter().enumerate() {
            if s.parent.is_none() && s.root == Root::Request {
                roots.insert(i, (s.dur_ns() as f64 * 1e-9, 0.0));
            }
        }
        for s in &inner.spans {
            if s.children > 0 || s.root != Root::Request || s.parent.is_none() {
                continue;
            }
            let mut top = s.parent.expect("checked above");
            while let Some(p) = inner.spans[top].parent {
                top = p;
            }
            if let Some(r) = roots.get_mut(&top) {
                r.1 += s.dur_ns() as f64 * 1e-9;
            }
        }
        roots.into_values().collect()
    }

    /// Writes every span as one JSON line:
    /// `{"name", "start_ns", "end_ns", "parent", "request", "root"}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let inner = self.inner.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"root\":\"{}\"}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                s.root.name()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_leaf_time_of_request_roots_only() {
        let rec = Recorder::new(true);
        let spin = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        rec.root(Root::Request, 1, || {
            rec.span("outer", || {
                rec.span("leaf.a", || spin(5));
                rec.count("work", 2.0);
            });
            rec.span("leaf.b", || spin(5));
        });
        rec.root(Root::Setup, 0, || {
            rec.span("leaf.a", || spin(1));
            rec.count("work", 5.0);
        });
        let cov = rec.request_coverage();
        assert_eq!(cov.len(), 1);
        let (wall, leaf) = cov[0];
        assert!(leaf <= wall && leaf > 0.009, "leaf {leaf} wall {wall}");
        assert_eq!(rec.per_name()["leaf.a"].0, 2);
        assert_eq!(rec.counts()["work"], 2.0);
        assert_eq!(rec.all_counts()["work"], 7.0);
    }

    #[test]
    fn disabled_recorder_only_runs_the_closures() {
        let rec = Recorder::new(false);
        assert_eq!(rec.root(Root::Request, 1, || rec.span("x", || 3)), 3);
        rec.count("work", 1.0);
        assert!(rec.per_name().is_empty() && rec.counts().is_empty());
    }
}

//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (never inside the program), kept in memory and
//! written once at exit as Chrome trace-event JSON, which opens in
//! Perfetto. With tracing off every method is a plain call-through, so the
//! untraced run measures the same code without the bookkeeping.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use xtalk::sta::serve::Json;

/// Layer name of the spans that delimit a timed region.
pub const REGION: &str = "region";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Run id, or the request id for spans under one client request.
    pub id: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    run_id: u64,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(on: bool, run_id: u64) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            run_id,
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Records `f` as a span of `layer`, nested under the current span and
    /// sharing its id.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.open(layer, name);
        let out = f();
        self.close(open);
        out
    }

    /// [`span`](Self::span) with an explicit id (one per client request).
    pub fn span_id<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open_id(layer, name, id);
        let out = f();
        self.close(open);
        out
    }

    /// Opens a span that [`close`](Self::close) ends, for regions whose
    /// values outlive a closure (an analyzer borrowing the loaded design).
    pub fn open(&self, layer: &'static str, name: &'static str) -> Option<usize> {
        let id = {
            let inner = self.inner.borrow();
            inner
                .stack
                .last()
                .map_or(self.run_id, |&p| inner.spans[p].id)
        };
        self.open_id(layer, name, id)
    }

    fn open_id(&self, layer: &'static str, name: &'static str, id: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.stack.last().copied();
        let start = self.epoch.elapsed().as_secs_f64();
        inner.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent,
            id,
        });
        let idx = inner.spans.len() - 1;
        inner.stack.push(idx);
        Some(idx)
    }

    /// Ends a span from [`open`](Self::open); spans close innermost first.
    pub fn close(&self, open: Option<usize>) {
        let Some(idx) = open else {
            return;
        };
        let mut inner = self.inner.borrow_mut();
        inner.spans[idx].end = self.epoch.elapsed().as_secs_f64();
        debug_assert_eq!(
            inner.stack.last(),
            Some(&idx),
            "spans close innermost first"
        );
        inner.stack.pop();
    }

    /// A timed region: the unit the coverage figure is computed over.
    pub fn region<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(REGION, name, f)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self time per layer: each span's duration minus the part its child
    /// spans cover, summed by layer. Regions are excluded.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child) {
            if s.layer != REGION {
                *out.entry(s.layer).or_insert(0.0) += (s.dur() - c).max(0.0);
            }
        }
        out
    }

    /// Share of each timed region its child spans cover, per region
    /// instance, in recording order.
    pub fn coverage(&self) -> Vec<(&'static str, f64)> {
        let spans = self.spans();
        let mut child = vec![0.0; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        spans
            .iter()
            .zip(&child)
            .filter(|(s, _)| s.layer == REGION && s.dur() > 0.0)
            .map(|(s, c)| (s.name, c / s.dur()))
            .collect()
    }

    /// Writes every span as Chrome trace-event JSON (complete events, one
    /// track), with the parent index and run or request id as arguments.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let events: Vec<Json> = self
            .spans()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::num(s.start * 1e6)),
                    ("dur", Json::num(s.dur() * 1e6)),
                    ("pid", Json::num(1.0)),
                    ("tid", Json::num(1.0)),
                    (
                        "args",
                        Json::obj(vec![
                            ("span", Json::num(i as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                            ),
                            ("id", Json::num(s.id as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.write())
    }
}

/// Seconds one recorded span costs the caller, measured on a scratch
/// tracer: the per-span part of the tracing overhead.
pub fn span_cost() -> f64 {
    const N: usize = 20_000;
    let t = Tracer::new(true, 0);
    let t0 = Instant::now();
    for _ in 0..N {
        t.span("probe", "probe", || std::hint::black_box(0u64));
    }
    t0.elapsed().as_secs_f64() / N as f64
}

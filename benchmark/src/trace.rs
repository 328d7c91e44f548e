//! Benchmark-side spans. Nothing under `crates/` is edited: spans are
//! recorded here, around the calls into each layer, and the tuner's own
//! stage boundaries arrive through its public `SessionObserver` hooks.
//!
//! Spans stay in memory and are written out once, at exit.

use crate::json::Json;
use dta::advisor::{ShardSnapshot, SpanName};
use dta::prelude::*;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One span: a name, when it ran, the span that caused it, and the
/// session (one traced tuning session, or one fleet run) it belongs to.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: String,
    pub session: u32,
    pub parent: Option<usize>,
    pub start_ns: u128,
    /// `None` while the span is open.
    pub end_ns: Option<u128>,
}

struct State {
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
    session: u32,
}

/// Records spans on one clock. Enter/exit must nest; every call site is
/// serial code (the tuner emits stage spans only from its coordination
/// thread), so the mutex is uncontended.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State { spans: Vec::new(), open: Vec::new(), session: 0 }),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("no span call site panics while recording")
    }

    /// Start a new session; spans entered from now on carry its id.
    pub fn begin_session(&self) -> u32 {
        let mut s = self.lock();
        s.session += 1;
        s.session
    }

    pub fn enter(&self, name: &str) {
        let now = self.origin.elapsed().as_nanos();
        let mut s = self.lock();
        let record = SpanRecord {
            name: name.to_string(),
            session: s.session,
            parent: s.open.last().copied(),
            start_ns: now,
            end_ns: None,
        };
        let id = s.spans.len();
        s.spans.push(record);
        s.open.push(id);
    }

    pub fn exit(&self) {
        let now = self.origin.elapsed().as_nanos();
        let mut s = self.lock();
        if let Some(id) = s.open.pop() {
            s.spans[id].end_ns = Some(now);
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.lock().spans.clone()
    }
}

fn duration_ms(span: &SpanRecord) -> f64 {
    span.end_ns.map_or(0.0, |end| (end - span.start_ns) as f64 / 1e6)
}

/// Total milliseconds of the spans called `name` in `sessions`.
pub fn total_ms(spans: &[SpanRecord], sessions: &[u32], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name && sessions.contains(&s.session)).map(duration_ms).sum()
}

/// Self time of the spans called `name` in `sessions`: their duration
/// minus the part their direct children cover.
pub fn self_ms(spans: &[SpanRecord], sessions: &[u32], name: &str) -> f64 {
    let mut total = 0.0;
    let named = |s: &SpanRecord| s.name == name && sessions.contains(&s.session);
    for (id, span) in spans.iter().enumerate().filter(|(_, s)| named(s)) {
        let children: f64 = spans.iter().filter(|c| c.parent == Some(id)).map(duration_ms).sum();
        total += duration_ms(span) - children;
    }
    total
}

/// The trace file: one object per span, in start order.
pub fn to_json(spans: &[SpanRecord]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("session", Json::Num(s.session as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", s.end_ns.map_or(Json::Null, |e| Json::Num(e as f64))),
                ])
            })
            .collect(),
    )
}

/// The observer handed to `tune_with_observer` for a traced session:
/// stage boundaries become [`Tracer`] spans (so they nest under the
/// benchmark's own `tune` span, with real start and end times), and
/// everything else goes to a `RecordingObserver`, whose summary carries
/// the session's counters.
pub struct TracingObserver<'t> {
    tracer: &'t Tracer,
    inner: RecordingObserver,
}

impl<'t> TracingObserver<'t> {
    pub fn new(tracer: &'t Tracer) -> Self {
        TracingObserver { tracer, inner: RecordingObserver::new() }
    }
}

impl SessionObserver for TracingObserver<'_> {
    fn attach_counters(&self, counters: &Arc<CounterSet>) {
        self.inner.attach_counters(counters);
    }

    fn span_enter(&self, name: SpanName) {
        self.tracer.enter(name.as_str());
        self.inner.span_enter(name);
    }

    fn span_exit(&self, name: SpanName) {
        self.inner.span_exit(name);
        self.tracer.exit();
    }

    fn event(&self, kind: &str, detail: &str) {
        self.inner.event(kind, detail);
    }

    fn record_cache_shards(&self, shards: &[ShardSnapshot]) {
        self.inner.record_cache_shards(shards);
    }

    fn summary(&self) -> Option<ObserverSummary> {
        self.inner.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let tracer = Tracer::default();
        let session = tracer.begin_session();
        tracer.span("outer", || {
            tracer.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            tracer.span("inner", || ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.session == session && s.end_ns.is_some()));
        let outer = total_ms(&spans, &[session], "outer");
        let inner = total_ms(&spans, &[session], "inner");
        assert!(inner >= 5.0 && outer >= inner);
        assert!((self_ms(&spans, &[session], "outer") - (outer - inner)).abs() < 1e-9);
        assert_eq!(total_ms(&spans, &[session + 1], "outer"), 0.0);
    }
}

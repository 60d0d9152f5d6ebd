//! The structured event recorder: spans, instant events and counter
//! series, timestamped in whatever deterministic unit the caller owns
//! (the simulator records device cycles; host-side phases such as SQL
//! planning and the cost-model search use the recorder's logical clock).
//!
//! A [`Recorder`] is a cheap `Rc` handle so one recorder threads through
//! every layer of a single-threaded run (planner → optimizer → executor
//! → simulator). Recording is `Option`-gated at every instrumentation
//! site: an absent recorder costs a branch, never an allocation.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A recorded field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Bool(bool),
    Int(i64),
    F64(f64),
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// A track (Chrome-trace thread) a span or event renders on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TrackId(pub(crate) u32);

/// Handle to an open span; pass back to [`Recorder::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u32);

/// Handle to a counter series defined with [`Recorder::define_counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// One completed (or still-open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub track: TrackId,
    pub cat: &'static str,
    /// Interned: callers that already hold an `Arc<str>` (the simulator's
    /// per-launch kernel names) record spans without allocating.
    pub name: Arc<str>,
    pub start: u64,
    /// `None` while the span is open; exporters treat it as zero-length.
    pub end: Option<u64>,
    pub args: Vec<(&'static str, Value)>,
}

/// One instant event.
#[derive(Debug, Clone)]
pub struct Event {
    pub track: TrackId,
    pub cat: &'static str,
    pub name: Arc<str>,
    pub ts: u64,
    pub args: Vec<(&'static str, Value)>,
}

/// A named counter series (Chrome-trace `ph:"C"` samples).
#[derive(Debug, Clone)]
pub struct CounterSeries {
    pub name: String,
    pub samples: Vec<(u64, f64)>,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub(crate) tracks: Vec<String>,
    pub(crate) spans: Vec<Span>,
    pub(crate) events: Vec<Event>,
    pub(crate) counters: Vec<CounterSeries>,
    logical: u64,
}

/// The shared recorder handle. Cloning shares the underlying buffers.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub(crate) inner: Rc<RefCell<Inner>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a track by name; repeated calls return the same id, and
    /// track order is the order of first registration (deterministic).
    pub fn track(&self, name: &str) -> TrackId {
        let mut inner = self.inner.borrow_mut();
        if let Some(i) = inner.tracks.iter().position(|t| t == name) {
            return TrackId(i as u32);
        }
        inner.tracks.push(name.to_string());
        TrackId((inner.tracks.len() - 1) as u32)
    }

    /// Open a span at `ts`.
    pub fn begin(
        &self,
        track: TrackId,
        cat: &'static str,
        name: impl Into<Arc<str>>,
        ts: u64,
    ) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        inner.spans.push(Span {
            track,
            cat,
            name: name.into(),
            start: ts,
            end: None,
            args: Vec::new(),
        });
        SpanId((inner.spans.len() - 1) as u32)
    }

    /// Close a span at `ts`.
    pub fn end(&self, id: SpanId, ts: u64) {
        let mut inner = self.inner.borrow_mut();
        let span = &mut inner.spans[id.0 as usize];
        span.end = Some(ts.max(span.start));
    }

    /// Attach a field to an open or closed span.
    pub fn arg(&self, id: SpanId, key: &'static str, value: impl Into<Value>) {
        self.inner.borrow_mut().spans[id.0 as usize]
            .args
            .push((key, value.into()));
    }

    /// Record a fully-formed span in one call.
    pub fn span(
        &self,
        track: TrackId,
        cat: &'static str,
        name: impl Into<Arc<str>>,
        start: u64,
        end: u64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.inner.borrow_mut().spans.push(Span {
            track,
            cat,
            name: name.into(),
            start,
            end: Some(end.max(start)),
            args,
        });
    }

    /// Record an instant event.
    pub fn instant(
        &self,
        track: TrackId,
        cat: &'static str,
        name: impl Into<Arc<str>>,
        ts: u64,
        args: Vec<(&'static str, Value)>,
    ) {
        self.inner.borrow_mut().events.push(Event {
            track,
            cat,
            name: name.into(),
            ts,
            args,
        });
    }

    /// Define a counter series; samples attach to it without allocating.
    pub fn define_counter(&self, name: &str) -> CounterId {
        let mut inner = self.inner.borrow_mut();
        inner.counters.push(CounterSeries {
            name: name.to_string(),
            samples: Vec::new(),
        });
        CounterId((inner.counters.len() - 1) as u32)
    }

    /// Append one sample to a counter series.
    pub fn sample(&self, id: CounterId, ts: u64, value: f64) {
        self.inner.borrow_mut().counters[id.0 as usize]
            .samples
            .push((ts, value));
    }

    /// Advance and return the logical clock — a deterministic timestamp
    /// source for host-side phases that have no simulated cycle count
    /// (SQL planning, the parameter search). Logical time shares the
    /// trace's time axis, so host tracks cluster near the origin.
    pub fn tick(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.logical += 1;
        inner.logical
    }

    /// Snapshot accessors for exporters and assertions.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    pub fn events(&self) -> Vec<Event> {
        self.inner.borrow().events.clone()
    }

    pub fn counters(&self) -> Vec<CounterSeries> {
        self.inner.borrow().counters.clone()
    }

    pub fn track_names(&self) -> Vec<String> {
        self.inner.borrow().tracks.clone()
    }

    /// Snapshot everything into a plain-data [`RecorderDump`].
    ///
    /// `Recorder` itself is an `Rc` handle and deliberately not `Send`;
    /// a dump is just vectors, so worker threads record locally and ship
    /// the dump back with their response.
    pub fn dump(&self) -> RecorderDump {
        let inner = self.inner.borrow();
        RecorderDump {
            tracks: inner.tracks.clone(),
            spans: inner.spans.clone(),
            events: inner.events.clone(),
            counters: inner.counters.clone(),
        }
    }
}

/// Plain-data snapshot of a recorder: no `Rc`, no interior mutability,
/// `Send`. The bridge from a serving worker's per-query recorder to the
/// thread that collects its response.
#[derive(Debug, Clone, Default)]
pub struct RecorderDump {
    pub tracks: Vec<String>,
    pub spans: Vec<Span>,
    pub events: Vec<Event>,
    pub counters: Vec<CounterSeries>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_intern_by_name() {
        let r = Recorder::new();
        let a = r.track("engine");
        let b = r.track("cu0");
        let a2 = r.track("engine");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(
            r.track_names(),
            vec!["engine".to_string(), "cu0".to_string()]
        );
    }

    #[test]
    fn spans_nest_and_carry_args() {
        let r = Recorder::new();
        let t = r.track("t");
        let outer = r.begin(t, "exec", "query", 10);
        let inner = r.begin(t, "exec", "stage", 20);
        r.arg(inner, "tile_bytes", 1u64 << 20);
        r.end(inner, 90);
        r.end(outer, 100);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start, spans[0].end), (10, Some(100)));
        assert_eq!(spans[1].args, vec![("tile_bytes", Value::Int(1 << 20))]);
    }

    #[test]
    fn end_clamps_to_start() {
        let r = Recorder::new();
        let t = r.track("t");
        let s = r.begin(t, "c", "backwards", 50);
        r.end(s, 10);
        assert_eq!(r.spans()[0].end, Some(50));
    }

    #[test]
    fn counters_accumulate_samples() {
        let r = Recorder::new();
        let c = r.define_counter("channel0.packets");
        r.sample(c, 0, 0.0);
        r.sample(c, 5, 12.0);
        let series = r.counters();
        assert_eq!(series[0].name, "channel0.packets");
        assert_eq!(series[0].samples, vec![(0, 0.0), (5, 12.0)]);
    }

    #[test]
    fn logical_clock_is_monotone() {
        let r = Recorder::new();
        assert!(r.tick() < r.tick());
    }

    #[test]
    fn dump_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RecorderDump>();
    }

    #[test]
    fn clones_share_the_buffers() {
        let r = Recorder::new();
        let r2 = r.clone();
        let t = r2.track("shared");
        r2.instant(t, "c", "e", 1, vec![]);
        assert_eq!(r.events().len(), 1);
    }
}

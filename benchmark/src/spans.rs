//! The traced run's in-memory span recorder.
//!
//! Each span wraps one call into a layer's public API. Its name starts
//! with the layer (`sim.simulate`, `ml.fit.gbdt`, …); the parent is the
//! span open on the same thread, or one passed explicitly when the call
//! runs on a worker thread. Spans stay in memory until the run ends, then
//! export as Chrome trace-event JSON and fold into per-layer self time:
//! a span's duration minus the part of it its children cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use wdt_types::JsonValue;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, assigned at open.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `layer.call`.
    pub name: &'static str,
    /// Recorder thread number.
    pub tid: u64,
    /// Open time, ns.
    pub start_ns: u64,
    /// Close time, ns.
    pub end_ns: u64,
    /// Chunk, request, or edge the call worked on.
    pub item: Option<u64>,
}

impl Span {
    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration, seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects spans from any thread.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<u64> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Open a span under the innermost span open on this thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.span_under(name, self.current())
    }

    /// Open a span under an explicit parent (for calls on worker threads).
    pub fn span_under(&self, name: &'static str, parent: Option<u64>) -> Guard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|o| o.borrow_mut().push(id));
        Guard { rec: self, id, parent, name, item: None, start_ns: self.now_ns() }
    }

    /// Every closed span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// An open span; closes on drop.
#[must_use = "a span measures the scope it is bound to"]
pub struct Guard<'a> {
    rec: &'a Recorder,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    item: Option<u64>,
    start_ns: u64,
}

impl Guard<'_> {
    /// This span's id (pass it to worker threads as their parent).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Tag the span with the chunk, request, or edge it worked on.
    pub fn item(mut self, item: u64) -> Self {
        self.item = Some(item);
        self
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let end_ns = self.rec.now_ns();
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            if let Some(pos) = o.iter().rposition(|&id| id == self.id) {
                o.remove(pos);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            tid: TID.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
            item: self.item,
        };
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals (clipped to it), seconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// Self time summed per layer, seconds.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.layer()).or_insert(0.0) += own[&s.id];
    }
    out
}

/// Total duration of the spans named `name`, seconds.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

/// Durations of the spans named `name`, seconds, in close order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
}

/// Chrome trace-event document: one complete (`X`) event per span on
/// pid 1, one track per recorder thread. Times are whole microseconds,
/// floored at both ends so nesting survives the rounding.
pub fn chrome_trace(spans: &[Span]) -> JsonValue {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.tid, s.start_ns / 1000, std::cmp::Reverse(s.end_ns / 1000)));
    let mut events = Vec::with_capacity(sorted.len());
    for s in sorted {
        let ts = s.start_ns / 1000;
        let mut args = vec![("id", JsonValue::Num(s.id as f64))];
        if let Some(p) = s.parent {
            args.push(("parent", JsonValue::Num(p as f64)));
        }
        if let Some(i) = s.item {
            args.push(("item", JsonValue::Num(i as f64)));
        }
        events.push(JsonValue::obj([
            ("name", JsonValue::Str(s.name.into())),
            ("cat", JsonValue::Str(s.layer().into())),
            ("ph", JsonValue::Str("X".into())),
            ("pid", JsonValue::Num(1.0)),
            ("tid", JsonValue::Num(s.tid as f64)),
            ("ts", JsonValue::Num(ts as f64)),
            ("dur", JsonValue::Num((s.end_ns / 1000 - ts) as f64)),
            ("args", JsonValue::obj(args)),
        ]));
    }
    JsonValue::obj([
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", JsonValue::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, tid: u64, a: u64, b: u64) -> Span {
        Span { id, parent, name, tid, start_ns: a, end_ns: b, item: None }
    }

    /// root [0, 100] with children a [10, 40] and b [30, 60] (overlapping,
    /// as parallel workers would), b has a child c [35, 45]; d [90, 120]
    /// sticks out of root and is clipped to [90, 100].
    fn tree() -> Vec<Span> {
        vec![
            sp(1, None, "model.per_edge", 1, 0, 100),
            sp(2, Some(1), "ml.fit.gbdt", 2, 10, 40),
            sp(3, Some(1), "ml.fit.gbdt", 3, 30, 60),
            sp(4, Some(3), "ml.evaluate", 3, 35, 45),
            sp(5, Some(1), "check.digest", 1, 90, 120),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let own = self_times(&tree());
        let ns = |s: f64| (s * 1e9).round() as u64;
        assert_eq!(ns(own[&1]), 100 - 50 - 10); // children cover [10,60] and [90,100]
        assert_eq!(ns(own[&2]), 30);
        assert_eq!(ns(own[&3]), 30 - 10);
        assert_eq!(ns(own[&4]), 10);
        assert_eq!(ns(own[&5]), 30);
        let layers = layer_self_times(&tree());
        assert_eq!((layers["model"] * 1e9).round() as u64, 40);
        assert_eq!((layers["ml"] * 1e9).round() as u64, 60);
        assert_eq!((layers["check"] * 1e9).round() as u64, 30);
    }

    #[test]
    fn recorder_nests_on_a_thread_and_links_workers_explicitly() {
        let rec = Recorder::new();
        {
            let outer = rec.span("model.per_edge");
            let parent = outer.id();
            {
                let _inner = rec.span("features.threshold_filter");
            }
            std::thread::scope(|s| {
                s.spawn(|| {
                    let _w = rec.span_under("model.run_one_edge", Some(parent)).item(7);
                    let _fit = rec.span("ml.fit.linear");
                });
            });
        }
        let spans = rec.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let outer = by_name("model.per_edge");
        assert_eq!(outer.parent, None);
        assert_eq!(by_name("features.threshold_filter").parent, Some(outer.id));
        let worker = by_name("model.run_one_edge");
        assert_eq!(worker.parent, Some(outer.id));
        assert_eq!(worker.item, Some(7));
        assert_ne!(worker.tid, outer.tid);
        assert_eq!(by_name("ml.fit.linear").parent, Some(worker.id));
        assert_eq!(rec.current(), None);
    }

    #[test]
    fn export_is_a_valid_chrome_trace() {
        let rec = Recorder::new();
        for i in 0..3 {
            let _a = rec.span("ingest.window.push").item(i);
            let _b = rec.span("features.extract");
        }
        let mut spans = rec.spans();
        spans.extend(tree());
        let text = chrome_trace(&spans).to_string();
        let summary = wdt_obs::validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(summary.spans, spans.len());
    }
}

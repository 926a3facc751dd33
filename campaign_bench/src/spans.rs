//! The span recorder of the traced run.
//!
//! Each call the benchmark makes into a layer is one span: name, start,
//! end, parent span, and workload. Spans stay in memory and are written
//! out as JSON lines when the run ends. A span's *self time* is its
//! duration minus the part of it that its children cover; children may
//! overlap (cells run on several host threads), so coverage is the
//! length of the union of their intervals clipped to the parent.

use std::sync::Mutex;
use std::time::Instant;

use cochar_store::json::Json;

/// One recorded call. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub workload: &'static str,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Thread-safe, in-memory span log. Span ids are indices into the log.
pub struct Recorder {
    epoch: Instant,
    workload: &'static str,
    /// Off in timed runs: spans are neither timed nor kept.
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            epoch: Instant::now(),
            workload,
            enabled: true,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that records nothing, for runs with tracing off.
    pub fn off() -> Self {
        Recorder {
            enabled: false,
            ..Recorder::new("")
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; its id can parent spans opened before it closes.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            workload: self.workload,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned")[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Self time of every span, in nanoseconds, by span id.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Summed self time of the spans whose name is or starts with `prefix`,
/// in seconds.
pub fn self_seconds(spans: &[Span], selfs: &[u64], prefix: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == prefix || s.layer() == prefix)
        .map(|(_, &ns)| ns as f64 / 1e9)
        .sum()
}

/// Summed duration of the spans named exactly `name`, in seconds, with
/// their count.
pub fn total_seconds(spans: &[Span], name: &str) -> (f64, usize) {
    let hits: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
    (
        hits.iter().map(|s| s.duration_ns() as f64 / 1e9).sum(),
        hits.len(),
    )
}

/// Durations of the spans named exactly `name`, in seconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect()
}

/// One JSON line per span.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(Json::Null, |p| Json::u64(p as u64));
        let line = Json::Obj(vec![
            ("id".into(), Json::u64(id as u64)),
            ("name".into(), Json::str(s.name)),
            ("workload".into(), Json::str(s.workload)),
            ("start_ns".into(), Json::u64(s.start_ns)),
            ("end_ns".into(), Json::u64(s.end_ns)),
            ("parent".into(), parent),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            workload: "w",
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", 0, 10, None),
            // Two overlapping children (two host threads): union [1, 5].
            span("colocation.pair", 1, 3, Some(0)),
            span("colocation.pair", 2, 5, Some(0)),
            // A child running past its parent counts only inside it.
            span("store.open", 8, 12, Some(0)),
            // A grandchild is its parent's business, not the root's.
            span("machine.run", 2, 3, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![4, 2, 2, 4, 1]);
        assert_eq!(self_seconds(&spans, &selfs, "colocation"), 4e-9);
        assert_eq!(self_seconds(&spans, &selfs, "job"), 4e-9);
        assert_eq!(total_seconds(&spans, "colocation.pair"), (5e-9, 2));
    }

    #[test]
    fn nested_children_are_not_double_counted() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 20, 30, Some(0)),
            span("c", 50, 60, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50);
    }

    #[test]
    fn recorder_nests_and_writes_out() {
        let r = Recorder::new("heatmap-cold");
        let root = r.open("job", None);
        let v = r.time("store.open", Some(root), || 7);
        r.close(root);
        assert_eq!(v, 7);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = render_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains(r#""name":"store.open""#) && text.contains(r#""parent":0"#));

        let off = Recorder::off();
        let id = off.open("job", None);
        assert_eq!(off.time("store.open", Some(id), || 3), 3);
        off.close(id);
        assert!(off.spans().is_empty());
    }
}

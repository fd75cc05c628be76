//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into the
//! repository's public functions (no span lives inside the program). Each
//! records its name, CPU-time start and end, and the span that was open
//! when it started; the list is written out once, when the run ends.

use std::collections::BTreeMap;

use crate::clock::cpu_ns;

/// One closed or open span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run_for`.
    pub name: &'static str,
    /// Process CPU time at open (ns).
    pub start_ns: u64,
    /// Process CPU time at close (ns); 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Records spans when enabled; every call is a no-op otherwise, so the
/// timed run and the traced run share one code path.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer that records (`true`) or ignores (`false`) spans.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: cpu_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(i) = id.0 else { return };
        self.spans[i].end_ns = cpu_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(i), "spans close innermost first");
    }

    /// Records an empty span for each layer in `names` that this workload
    /// bypasses, so the traced run reads the layer's cost there as the
    /// clock's own overhead instead of a missing value.
    pub fn bypass(&mut self, names: &[&'static str]) {
        for &name in names {
            let id = self.open(name);
            self.close(id);
        }
    }

    /// Index the next span will get; spans recorded after this mark belong
    /// to the caller's section.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total CPU milliseconds per span name among the spans recorded since
    /// `mark`.
    pub fn totals_ms_since(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans[mark..] {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of every span named `name` recorded since `mark`.
    pub fn durations_ms_since(&self, mark: usize, name: &str) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// The recorded spans as a JSON array of
    /// `{"name","start_ns","end_ns","parent"}` objects.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                    s.name, s.start_ns, s.end_ns, parent
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let m = t.mark();
        t.bypass(&["outer"]);
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.close(inner);
        t.close(outer);
        assert_eq!(t.spans[m + 2].parent, Some(m + 1));
        assert_eq!(t.durations_ms_since(m, "outer").len(), 2);
        assert_eq!(t.totals_ms_since(m).len(), 2);
        assert!(t.to_json().contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        let id = off.open("x");
        off.close(id);
        assert_eq!(off.mark(), 0);
    }
}

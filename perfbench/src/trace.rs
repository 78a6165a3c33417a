//! In-memory spans around the calls the benchmark makes into each
//! layer. Spans are recorded per thread, merged at the end and written
//! out once, so tracing does no I/O while the work runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. The layer is the name's prefix before the first `.`.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Cell, request or grid id the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace epoch.
    pub start: u64,
    /// Nanoseconds since the trace epoch (0 while open).
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer the span times.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One thread's span recorder, plus named samples (image sizes,
/// occupancies, hit counts) taken at the same boundaries.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    /// Named sample values.
    pub values: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A recorder timing against `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// A fresh recorder on the same clock, for another thread.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch)
    }

    /// Nanoseconds since the epoch for `at`.
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let start = self.stamp(Instant::now());
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.stamp(Instant::now());
    }

    /// Closes span `id` under a name chosen after the call returned
    /// (a cell lookup becomes a hit or a miss).
    pub fn end_as(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
        self.end(id);
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        from: Instant,
        to: Instant,
    ) -> usize {
        let (start, end) = (self.stamp(from), self.stamp(to));
        self.spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Adds one sample of `name`.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// Moves `other`'s spans and samples into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.merge(other, None);
    }

    /// Like [`absorb`](Self::absorb), with `other`'s root spans placed
    /// under span `parent` of this recorder (worker threads' cells
    /// under their grid).
    pub fn absorb_under(&mut self, other: Tracer, parent: usize) {
        self.merge(other, Some(parent));
    }

    fn merge(&mut self, other: Tracer, root_parent: Option<usize>) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(root_parent);
            s
        }));
        for (name, mut values) in other.values {
            self.values.entry(name).or_default().append(&mut values);
        }
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total nanoseconds of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Samples of `name` (empty when none were taken).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the part its child spans cover, summed by layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer()).or_insert(0) += s.ns().saturating_sub(children);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_survives_a_merge() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(epoch);
        let mut other = tr.fork();
        let t = |ns| epoch + std::time::Duration::from_nanos(ns);
        let root = other.record("core.run", None, 1, t(0), t(100));
        other.record("ckpt.save", Some(root), 1, t(10), t(40));
        other.record("ckpt.encode", Some(root), 1, t(50), t(60));
        let grid = tr.record("bench.grid", None, 0, t(0), t(50));
        tr.record("exp.append", Some(grid), 0, t(0), t(5));
        tr.absorb_under(other, grid);
        let layers = tr.self_time_by_layer();
        assert_eq!(layers["core"], 60);
        assert_eq!(layers["ckpt"], 40);
        assert_eq!(layers["exp"], 5);
        // Children of a span may overlap (parallel workers): its self
        // time then floors at 0.
        assert_eq!(layers["bench"], 0);
        assert_eq!(tr.spans[2].parent, Some(0), "a root lands under the grid");
        assert_eq!(
            tr.spans[3].parent,
            Some(2),
            "inner parents shift by the offset"
        );
        assert_eq!(tr.total_ns("ckpt.save"), 30.0);
        assert_eq!(tr.to_jsonl().lines().count(), 5);
    }
}

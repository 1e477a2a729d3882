//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a start, an end and a parent; every span of one
//! request carries that request's id. Spans stay in memory until the
//! run ends. A span's self time is its duration minus the part of it
//! that its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// The span store of one run. Times are seconds since `epoch`.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Records a finished span from two instants.
    pub fn span(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start, end) = (self.at(start), self.at(end));
        self.push(name, request, parent, start, end)
    }

    /// Records a span from times already in seconds since the epoch.
    pub fn push(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<SpanId>,
        start: f64,
        end: f64,
    ) -> SpanId {
        self.spans.push(Span {
            name: name.to_owned(),
            request,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// Writes every span as a Chrome trace-event JSON array (complete
    /// events in µs; `tid` is the request id, `args.parent` the parent
    /// span's index).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}{}",
                s.name,
                s.request,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }

    fn children(&self) -> Vec<Vec<SpanId>> {
        let mut kids = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                kids[p].push(id);
            }
        }
        kids
    }

    /// Seconds of `id` covered by the union of its children.
    fn covered(&self, id: SpanId, kids: &[Vec<SpanId>]) -> f64 {
        let span = &self.spans[id];
        let mut iv: Vec<(f64, f64)> = kids[id]
            .iter()
            .map(|&k| {
                let c = &self.spans[k];
                (c.start.max(span.start), c.end.min(span.end))
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut total = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((ca, cb)) = cur {
            total += cb - ca;
        }
        total
    }

    /// Per span name: occurrences, total ms and total self ms.
    pub fn by_name(&self) -> Layers {
        let kids = self.children();
        let mut out: BTreeMap<String, (usize, f64, f64)> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - self.covered(id, &kids) * 1e3;
        }
        Layers(out)
    }

    /// Share of the root spans named `root` that their child (layer)
    /// spans cover, over all such roots.
    pub fn coverage(&self, root: &str) -> f64 {
        let kids = self.children();
        let (mut total, mut covered) = (0.0, 0.0);
        for (id, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && s.name == root {
                total += s.end - s.start;
                covered += self.covered(id, &kids);
            }
        }
        if total > 0.0 {
            covered / total
        } else {
            0.0
        }
    }
}

/// Span totals per name.
pub struct Layers(BTreeMap<String, (usize, f64, f64)>);

impl Layers {
    /// Mean duration in ms of the spans named `name` (0 when absent).
    pub fn mean_ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.1 / e.0 as f64)
    }

    /// Mean self time in ms of the spans named `name` (0 when absent).
    pub fn mean_self_ms(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.2 / e.0 as f64)
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.0.get(name).map_or(0, |e| e.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let root = t.push("request", 1, None, 0.0, 1.0);
        t.push("a", 1, Some(root), 0.0, 0.5);
        t.push("b", 1, Some(root), 0.25, 0.75);
        let names = t.by_name();
        assert!((names.mean_self_ms("request") - 250.0).abs() < 1e-9);
        assert!((t.coverage("request") - 0.75).abs() < 1e-12);
    }
}

//! In-memory span recorder for the traced run.
//!
//! A span is a named host-time interval with an optional parent span and
//! the workload call it belongs to. Spans stay in memory while the run
//! measures and are written out as TSV when it ends; [`Spans::self_ns`]
//! gives each span name's self time (duration minus the part covered by its
//! child spans).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (a layer call, `call`, or `replay`).
    pub name: &'static str,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// The workload call id the span belongs to, if any.
    pub call_id: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Units of work inside the span (e.g. evaluations in a batch).
    pub ops: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close). Returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        call_id: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            call_id,
            start_ns,
            end_ns: start_ns,
            ops: 1,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` after `ops` units of work; returns its duration, ns.
    pub fn close(&mut self, id: usize, ops: u64) -> u64 {
        let end_ns = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end_ns;
        s.ops = ops;
        s.dur_ns()
    }

    /// Records `f` as one span of `ops` units; returns its result.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        call_id: Option<usize>,
        ops: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, call_id);
        let r = f();
        self.close(id, ops);
        r
    }

    /// Every recorded span, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Median over spans named `name` of ns per op — robust to a span
    /// that a host hiccup stretched; `None` if none ran.
    pub fn median_ns_per_op(&self, name: &str) -> Option<f64> {
        let per: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.ops > 0)
            .map(|s| s.dur_ns() as f64 / s.ops as f64)
            .collect();
        (!per.is_empty()).then(|| crate::median(&per))
    }

    /// Self time per span name, ns: each span's duration minus the time its
    /// direct children cover, summed by name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The spans as TSV: `id, parent, call_id, name, start_ns, end_ns, ops`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tcall_id\tname\tstart_ns\tend_ns\tops\n");
        let opt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{id}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                opt(s.parent),
                opt(s.call_id),
                s.name,
                s.start_ns,
                s.end_ns,
                s.ops
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Spans::new();
        let p = t.open("replay", None, Some(0));
        t.record("child", Some(p), Some(0), 4, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(p, 1);
        let selfs = t.self_ns();
        let child = t.all()[p + 1].dur_ns();
        assert_eq!(t.all()[p + 1].ops, 4);
        assert!(child >= 2_000_000);
        assert!((t.median_ns_per_op("child").unwrap() - child as f64 / 4.0).abs() < 1.0);
        assert_eq!(selfs["replay"], t.all()[p].dur_ns() - child);
        assert!(t.to_tsv().lines().count() == 3);
    }
}

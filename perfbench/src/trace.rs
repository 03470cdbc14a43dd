//! The traced run's span ledger.
//!
//! The benchmark opens a span around each call it makes into a layer; a
//! span's name is `<layer>.<call>`. Spans keep name, start, end, parent and
//! request id in memory and are written out when the run ends. A span's
//! self time is its duration minus the time its child spans cover; the
//! ledger totals self time and span count per name, for every span, while
//! only the first `SPAN_CAP` spans per thread are kept for the file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const SPAN_CAP: usize = 20_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    stored: Option<usize>,
}

/// Per-name totals: spans closed and their summed self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    pub count: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, req: u64) {
        let start_ns = self.now_ns();
        let parent = self.open.last().and_then(|o| o.stored);
        let stored = (self.spans.len() < SPAN_CAP).then(|| {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            stored,
        });
    }

    pub fn end(&mut self) {
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("end() matches a begin()");
        let dur = end_ns - open.start_ns;
        if let Some(i) = open.stored {
            self.spans[i].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.self_ns += dur.saturating_sub(open.child_ns);
    }

    /// A span around `f`, which may open child spans of its own.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.begin(name, req);
        let r = f(self);
        self.end();
        r
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per span of `name`, in nanoseconds.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let t = self.total(name);
        t.self_ns as f64 / t.count.max(1) as f64
    }

    /// Folds another thread's ledger into this one.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorb a tracer with no open spans");
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.self_ns += t.self_ns;
        }
    }

    /// Self time summed per layer (the span name's prefix), in ns.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (name, t) in &self.totals {
            let layer = name.split('.').next().unwrap_or(name);
            *out.entry(layer).or_insert(0) += t.self_ns;
        }
        out
    }

    /// The kept spans as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"name":"{}","start_ns":{},"end_ns":{},"parent":{},"req":{}}}"#,
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut tr = Tracer::new(Instant::now());
        tr.span("svc.read", 7, |tr| {
            spin(200_000);
            tr.span("obs.record", 7, |_| spin(300_000));
        });
        let parent = tr.total("svc.read");
        let child = tr.total("obs.record");
        assert_eq!((parent.count, child.count), (1, 1));
        assert!(child.self_ns >= 300_000);
        assert!(parent.self_ns >= 200_000 && parent.self_ns < 300_000 + 200_000);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].req, 7);
        let layers = tr.layer_self_ns();
        assert_eq!(layers["svc"], parent.self_ns);
        assert!(tr.to_jsonl().lines().count() == 2);
    }
}

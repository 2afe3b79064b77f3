//! In-memory span recording around calls into the library's layers.
//!
//! A span carries its name, start and end (nanoseconds since the
//! tracer's origin), its parent span and a request id. Spans stay in
//! memory during the run and are written out at its end. A disabled
//! tracer records nothing and reads no clock, so the untraced runs that
//! produce end-to-end metrics pay nothing for it.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A begun span; hand it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self::new(false, Instant::now())
    }

    /// An empty tracer on the same clock, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn child(&self) -> Self {
        Self::new(self.on, self.origin)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 4G spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.stack.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop().expect("end without begin");
        assert_eq!(top, open.0, "spans must close innermost first");
        let end = self.now_ns();
        self.spans[top as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, req);
        let r = f();
        self.end(open);
        r
    }

    /// Appends another tracer's spans (e.g. a reader thread's), keeping
    /// their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        let base = u32::try_from(self.spans.len()).expect("fewer than 4G spans");
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for sp in self.spans.iter().filter(|sp| sp.name == name) {
            s.push(sp.dur_ns() as f64 / 1e3);
        }
        s
    }

    /// Per request id accepted by `keep`, the summed durations of the
    /// spans named in `names`, in microseconds (requests without such
    /// spans omitted).
    pub fn per_request_us(&self, names: &[&str], keep: impl Fn(u64) -> bool) -> Samples {
        let mut by_req: BTreeMap<u64, u64> = BTreeMap::new();
        let hits = self
            .spans
            .iter()
            .filter(|sp| names.contains(&sp.name) && keep(sp.req));
        for sp in hits {
            *by_req.entry(sp.req).or_default() += sp.dur_ns();
        }
        let mut s = Samples::new();
        for ns in by_req.values() {
            s.push(*ns as f64 / 1e3);
        }
        s
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for sp in &self.spans {
            if sp.parent != NO_PARENT {
                covered[sp.parent as usize] += sp.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(sp, c)| sp.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per span name: count, total and self time (ns), name-ordered.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (sp, own) in self.spans.iter().zip(self.self_ns()) {
            let e = acc.entry(sp.name).or_default();
            e.0 += 1;
            e.1 += sp.dur_ns();
            e.2 += own;
        }
        acc.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect()
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent req self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\treq\tself_ns")?;
        for (i, (sp, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if sp.parent == NO_PARENT {
                "-".to_string()
            } else {
                sp.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
                sp.name, sp.start_ns, sp.end_ns, sp.req
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", 7);
        let inner = t.begin("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[0].parent, NO_PARENT);
        let own = t.self_ns();
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns());
        assert_eq!(t.per_request_us(&["inner"], |_| true).len(), 1);
        assert!(t.per_request_us(&["inner"], |r| r != 7).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let v = t.span("x", 0, || 5);
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("a", 0, || ());
        let mut b = Tracer::new(true, origin);
        let o = b.begin("b", 1);
        b.span("c", 1, || ());
        b.end(o);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.summary().len(), 3);
    }
}

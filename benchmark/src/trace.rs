//! In-memory spans recorded around the benchmark's calls into each
//! layer. Disabled tracers record nothing and read no clock, so the
//! timed (untraced) run pays only a branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Repetition, slice or serve command id the span belongs to.
    pub tag: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `NONE` when tracing is off.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

const NONE: SpanId = SpanId(usize::MAX);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between spans (the traced run
    /// alternates traced and untraced repetitions).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled with a span open");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, tag: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            tag,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if id.0 == usize::MAX {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, tag: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name, tag);
        let r = f(self);
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Checks that the named child layers cover the root spans that
    /// have children, summed per root name: the roots' self time, the
    /// part of their wall time that no child accounts for, may be at
    /// most `max_share` of it (or `floor_ns` per root, whichever is
    /// larger, so that clock reads around very short roots do not
    /// count). Summing over every root of a name catches work that is
    /// left outside the layer spans each time, but not a single root
    /// whose thread the host stalled between two child spans. Returns
    /// the root names that fail.
    pub fn unattributed_roots(&self, max_share: f64, floor_ns: u64) -> Vec<String> {
        let selfs = self.self_times();
        let mut has_children = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_children[p] = true;
            }
        }
        // Per root name: roots, summed wall time and summed self time.
        let mut roots: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() && has_children[i] {
                let e = roots.entry(s.name).or_default();
                e.0 += 1;
                e.1 += s.dur_ns();
                e.2 += selfs[i];
            }
        }
        roots
            .into_iter()
            .filter(|(_, (n, total, own))| {
                *own as f64 > (*total as f64 * max_share).max((n * floor_ns) as f64)
            })
            .map(|(name, (n, total, own))| {
                format!("{name} (x{n}): {own} of {total} ns outside any child span")
            })
            .collect()
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Per span name: count, total and self time (ns).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// Writes every span as one JSON line, parents before children.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_subtract_children() {
        let mut t = Tracer::new(true);
        t.span("setup", 0, |t| {
            t.span("gen", 0, |_| spin(2));
            t.span("build", 0, |t| t.span("inner", 0, |_| spin(2)));
        });
        t.span("run", 0, |_| ());
        let selfs = t.self_times();
        assert_eq!(selfs.len(), 5);
        let sum: u64 = selfs[..4].iter().sum();
        assert_eq!(sum, t.spans()[0].dur_ns());
        assert!(selfs[2] < selfs[3], "build's time is its child's");
        assert_eq!(t.by_name()["gen"].0, 1);
    }

    #[test]
    fn covered_roots_pass_and_uncovered_work_fails() {
        let mut t = Tracer::new(true);
        t.span("setup", 0, |t| {
            t.span("gen", 0, |_| spin(5));
            t.span("build", 0, |_| spin(5));
        });
        // A root without children is a layer of its own.
        t.span("check", 0, |_| spin(2));
        assert!(t.unattributed_roots(0.1, 20_000).is_empty());

        // Work done inside a root but outside every child is caught.
        t.span("probe", 7, |t| {
            spin(10);
            t.span("call", 0, |_| spin(1));
        });
        let bad = t.unattributed_roots(0.1, 20_000);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("probe (x1)"), "{bad:?}");
    }

    #[test]
    fn coverage_is_summed_over_roots_of_a_name() {
        // One stalled gap among many covered roots passes...
        let mut t = Tracer::new(true);
        for i in 0..20 {
            t.span("run", i, |t| {
                if i == 3 {
                    spin(1);
                }
                t.span("slice", i, |_| spin(2));
            });
        }
        assert!(t.unattributed_roots(0.05, 5_000).is_empty());

        // ...but the same uncovered work in every root fails.
        let mut t = Tracer::new(true);
        for i in 0..20 {
            t.span("run", i, |t| {
                spin(1);
                t.span("slice", i, |_| spin(2));
            });
        }
        let bad = t.unattributed_roots(0.05, 5_000);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].starts_with("run (x20)"), "{bad:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.span("x", 0, |t| t.span("y", 0, |_| ()));
        assert!(t.spans().is_empty());
    }
}

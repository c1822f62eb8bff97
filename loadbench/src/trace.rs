//! In-memory span trace. Spans are recorded around the benchmark's own
//! calls into each layer (the library is not instrumented for this),
//! kept in memory while the run lasts and written out when it ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifies the request a span belongs to: the connection index and
/// the frame id the client sent the request under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReqId {
    pub conn: u32,
    pub frame: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the trace origin.
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same trace.
    pub parent: Option<usize>,
    pub req: ReqId,
}

/// A span recorder. Several recorders (one per client thread) share
/// one origin so their spans can be merged onto one time axis.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: ReqId) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: ReqId,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent, req);
        let out = f();
        self.close(idx);
        out
    }

    /// Appends another recorder's spans, keeping parent links valid.
    pub fn absorb(&mut self, other: Trace) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time of every span, in span order.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Self times in microseconds grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(t as f64 / 1e3);
        }
        out
    }

    /// Writes one tab-separated line per span: index, name, start and
    /// end in ns since the origin, parent index (`-` for a root),
    /// connection, frame id and self time in ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "idx\tname\tstart_ns\tend_ns\tparent\tconn\tframe\tself_ns"
        )?;
        for (i, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{t}",
                s.name, s.start, s.end, s.req.conn, s.req.frame
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval (so
/// overlapping or overhanging children are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start, spans[p].end);
            let (cs, ce) = (s.start.max(ps), s.end.min(pe));
            if cs < ce {
                children[p].push((cs, ce));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            req: ReqId::default(),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            // Grandchild: counted against `b`, not against `root`.
            span("b.inner", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 60, Some(0)),
            // Starts before and ends after its parent: clipped to it.
            span("c", 90, 150, Some(0)),
        ];
        // covered = [10, 60) + [90, 100) = 60
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let origin = Instant::now();
        let mut a = Trace::new(origin);
        let root = a.open("root", None, ReqId::default());
        a.close(root);
        let mut b = Trace::new(origin);
        let r = b.open("req", None, ReqId { conn: 1, frame: 7 });
        b.time("child", Some(r), ReqId { conn: 1, frame: 7 }, || ());
        b.close(r);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[2].req.frame, 7);
        let by_name = a.self_us_by_name();
        assert_eq!(by_name["child"].len(), 1);
    }
}

//! Spans of the traced run: one record per call the harness makes into a
//! layer, kept in memory and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span that has none.
pub const ROOT: u32 = 0;

/// One timed call. `id`s start at 1; times are nanoseconds since the
/// log was created.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Span {
    /// The request the call served (for `reactor.poll`: the turn).
    pub trace: u64,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Frames, envelopes or operations the call covered.
    pub count: u32,
    /// `reactor.poll` only: the turn's `PollStats` as
    /// `[frames, served, shed, batches]`.
    pub stats: [u32; 4],
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(spans: Vec<Span>) -> SpanLog {
        SpanLog { epoch: Instant::now(), spans }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a span that ran from `start` for `ns` nanoseconds.
    pub fn record(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        start: Instant,
        ns: u64,
        count: u32,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.since_epoch(start);
        let end_ns = start_ns + ns;
        self.spans.push(Span { trace, id, parent, name, start_ns, end_ns, count, stats: [0; 4] });
        id
    }

    /// Attaches a turn's `PollStats` to its `reactor.poll` span.
    pub fn set_stats(&mut self, id: u32, stats: [u32; 4]) {
        self.spans[id as usize - 1].stats = stats;
    }

    /// Times `call` as a child of `parent` and returns its result with
    /// the new span's id.
    pub fn time<R>(
        &mut self,
        trace: u64,
        parent: u32,
        name: &'static str,
        count: u32,
        call: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let result = call();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let id = self.record(trace, parent, name, start, ns, count);
        (result, id)
    }

    /// Opens a per-request root that [`SpanLog::close_roots`] later
    /// stretches over the children recorded under it.
    pub fn open_root(&mut self, trace: u64, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            trace,
            id,
            parent: ROOT,
            name,
            start_ns: u64::MAX,
            end_ns: 0,
            count: 1,
            stats: [0; 4],
        });
        id
    }

    /// Stretches every root opened by [`SpanLog::open_root`] from its
    /// first child's start to its last child's end.
    pub fn close_roots(&mut self) {
        let open: Vec<bool> = self.spans.iter().map(|s| s.start_ns == u64::MAX).collect();
        for i in 0..self.spans.len() {
            let child = self.spans[i];
            if child.parent != ROOT && open[child.parent as usize - 1] {
                let root = &mut self.spans[child.parent as usize - 1];
                root.start_ns = root.start_ns.min(child.start_ns);
                root.end_ns = root.end_ns.max(child.end_ns);
            }
        }
        for root in self.spans.iter_mut().filter(|s| s.start_ns == u64::MAX) {
            root.start_ns = 0;
        }
    }

    /// Writes the log as CSV.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "trace,span,parent,name,start_ns,end_ns,count,frames,served,shed,batches")?;
        for s in &self.spans {
            let [frames, served, shed, batches] = s.stats;
            writeln!(
                out,
                "{},{},{},{},{},{},{},{frames},{served},{shed},{batches}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, indexed like `spans`: the span's duration
/// minus the part of it its children account for.
///
/// A child nested in its parent's interval accounts for the part of the
/// interval it covers, overlapping siblings counted once. A child that
/// starts at or after its parent's end is a stand-alone re-run of work
/// the parent did inside itself — the harness cannot put a span inside
/// the program, so it repeats the inner call on its own afterwards — and
/// accounts for its whole duration. Self time never goes below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != ROOT {
            children[s.parent as usize - 1].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(parent, kids)| {
            let mut nested: Vec<(u64, u64)> = Vec::new();
            let mut accounted = 0u64;
            for &k in kids {
                let kid = &spans[k];
                if kid.start_ns >= parent.end_ns {
                    accounted += kid.ns();
                } else {
                    let (lo, hi) =
                        (kid.start_ns.max(parent.start_ns), kid.end_ns.min(parent.end_ns));
                    if lo < hi {
                        nested.push((lo, hi));
                    }
                }
            }
            nested.sort_unstable();
            let mut covered_to = 0u64;
            for (lo, hi) in nested {
                let lo = lo.max(covered_to);
                if lo < hi {
                    accounted += hi - lo;
                    covered_to = hi;
                }
            }
            parent.ns().saturating_sub(accounted)
        })
        .collect()
}

/// The median duration per covered item of the spans called `name`, in
/// nanoseconds; 0 when there are none.
pub fn median_ns(spans: &[Span], name: &str) -> f64 {
    let mut per_item: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64 / f64::from(s.count.max(1)))
        .collect();
    if per_item.is_empty() {
        0.0
    } else {
        crate::stats::median(&mut per_item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span { trace: 1, id, parent, name: "t", start_ns, end_ns, count: 1, stats: [0; 4] }
    }

    #[test]
    fn nested_children_are_subtracted_once_each() {
        // parent 0..100; children 10..30 and 50..70; grandchild 12..20.
        let spans =
            [span(1, ROOT, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 70), span(4, 2, 12, 20)];
        assert_eq!(self_times(&spans), [60, 12, 20, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped_to_the_parent() {
        // children 10..40 and 30..60 cover 10..60; a third sticks out of
        // the parent's end and counts only to it.
        let spans =
            [span(1, ROOT, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60), span(4, 1, 90, 130)];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn stand_alone_children_are_subtracted_in_full_and_never_below_zero() {
        // A store call 0..100 whose inner plan (30 ns) and append (50 ns)
        // were re-run on their own after it returned.
        let spans = [span(1, ROOT, 0, 100), span(2, 1, 100, 130), span(3, 1, 140, 190)];
        assert_eq!(self_times(&spans)[0], 20);
        let slower_alone = [span(1, ROOT, 0, 100), span(2, 1, 100, 260)];
        assert_eq!(self_times(&slower_alone)[0], 0);
    }

    #[test]
    fn roots_stretch_over_their_children() {
        let mut log = SpanLog::with_capacity(Vec::new());
        let root = log.open_root(9, "request");
        let t0 = Instant::now();
        log.record(9, root, "a", t0, 10, 1);
        log.record(9, root, "b", t0 + std::time::Duration::from_nanos(50), 25, 1);
        log.close_roots();
        let r = log.spans()[0];
        assert_eq!(r.end_ns - r.start_ns, 75);
        assert_eq!(self_times(log.spans())[0], 40);
    }

    #[test]
    fn median_is_per_covered_item() {
        let mut spans = vec![span(1, ROOT, 0, 100), span(2, ROOT, 0, 300)];
        spans[1].count = 2;
        assert_eq!(median_ns(&spans, "t"), 125.0);
        assert_eq!(median_ns(&spans, "absent"), 0.0);
    }
}

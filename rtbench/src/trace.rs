//! In-memory span recorder for the traced runs.
//!
//! Spans (name, start, end, parent) are recorded by the benchmark around
//! its calls into each layer's public functions, kept in memory, and
//! written out once the run ends. A root span (a coupled step, an
//! assimilation cycle) groups the layer spans it caused; a layer's share
//! of its root is how the per-layer metrics are derived.

use crate::stats::median;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds from the tracer's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder: nesting follows call order (a span begun while another
/// is open is its child).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// For every root span named `root`: its duration and the summed
    /// duration of its direct children per child name (ns).
    pub fn breakdown(&self, root: &str) -> Vec<(u64, BTreeMap<&'static str, u64>)> {
        let mut index = BTreeMap::new();
        let mut out: Vec<(u64, BTreeMap<&'static str, u64>)> = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == root {
                index.insert(id, out.len());
                out.push((s.duration_ns(), BTreeMap::new()));
            } else if let Some(&k) = s.parent.and_then(|p| index.get(&p)) {
                *out[k].1.entry(s.name).or_insert(0) += s.duration_ns();
            }
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent name start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => writeln!(w, "{id}\t{p}\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?,
                None => writeln!(w, "{id}\t-\t{}\t{}\t{}", s.name, s.start_ns, s.end_ns)?,
            }
        }
        w.flush()
    }
}

/// Share of the summed root durations that their direct children cover.
/// Children of one root run one after another, so their durations add.
pub fn coverage(breakdown: &[(u64, BTreeMap<&'static str, u64>)]) -> f64 {
    let total: u64 = breakdown.iter().map(|(d, _)| d).sum();
    let covered: u64 = breakdown.iter().map(|(_, c)| c.values().sum::<u64>()).sum();
    if total == 0 {
        return 0.0;
    }
    covered as f64 / total as f64
}

/// Per-root time (s) spent in children named `child`, one entry per root.
pub fn per_root_seconds(breakdown: &[(u64, BTreeMap<&'static str, u64>)], child: &str) -> Vec<f64> {
    breakdown
        .iter()
        .map(|(_, c)| c.get(child).copied().unwrap_or(0) as f64 * 1e-9)
        .collect()
}

/// Tracing overhead: median traced over median untraced end-to-end time,
/// minus one.
pub fn overhead_frac(untraced: &[f64], traced: &[f64]) -> f64 {
    match (median(untraced), median(traced)) {
        (Some(u), Some(t)) if u > 0.0 => (t - u) / u,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_follows_call_order_and_coverage_adds_children() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            let root = t.begin("step");
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", || {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            t.end(root);
        }
        let outer = t.begin("other");
        t.span("a", || ());
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        let b = t.breakdown("step");
        assert_eq!(b.len(), 2);
        // Children of the unrelated root are not attributed to "step".
        for (dur, children) in &b {
            assert_eq!(children.len(), 2);
            assert!(children.values().sum::<u64>() <= *dur);
        }
        let cov = coverage(&b);
        assert!(cov > 0.5 && cov <= 1.0, "coverage {cov}");
        let a = per_root_seconds(&b, "a");
        assert!(a.iter().all(|&s| s >= 0.002));
        assert_eq!(per_root_seconds(&b, "missing"), vec![0.0, 0.0]);
    }
}

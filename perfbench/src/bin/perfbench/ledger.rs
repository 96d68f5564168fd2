//! In-memory span ledger for traced runs.
//!
//! Spans are recorded by the benchmark around calls into public entry
//! points of the workspace crates (no instrumentation lives inside the
//! crates). They stay in memory while the workload runs and are written
//! out once at exit. A layer's self time is its total span time minus
//! the time covered by its direct child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a top-level span.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    key: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Aggregate of all spans sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub total_s: f64,
    pub self_s: f64,
    pub count: u64,
}

pub struct Ledger {
    t0: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    counters: BTreeMap<String, f64>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger {
            t0: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Adds `v` to a named counter recorded at a span boundary.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// A counter's value (0 when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Interns a span name.
    pub fn key(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Ledger::close`].
    pub fn open(&mut self, key: u32, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            key,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        let end = self.now_ns();
        self.spans[span as usize].end_ns = end;
    }

    /// Records a finished span.
    pub fn record(&mut self, key: u32, parent: u32, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            key,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Records a finished span measured with `Instant`s.
    pub fn record_between(&mut self, key: u32, parent: u32, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.t0).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.record(key, parent, start_ns, end_ns);
    }

    /// Per-name totals, counts and self times.
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns) as f64 * 1e-9;
            let e = out.entry(self.names[s.key as usize].clone()).or_default();
            e.total_s += dur;
            e.self_s += dur - child_ns[i] as f64 * 1e-9;
            e.count += 1;
        }
        out
    }

    /// Writes every span as `name parent start_ns end_ns`, one per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{} {} {} {}",
                self.names[s.key as usize], parent, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut l = Ledger::new();
        let run = l.key("run");
        let cb = l.key("cb");
        l.record(run, ROOT, 0, 1_000_000_000);
        l.record(cb, 0, 100, 250_000_100);
        l.record(cb, 0, 300_000_000, 550_000_000);
        let layers = l.layers();
        assert!((layers["run"].total_s - 1.0).abs() < 1e-9);
        assert!((layers["run"].self_s - 0.5).abs() < 1e-9);
        assert_eq!(layers["cb"].count, 2);
        assert!((layers["cb"].self_s - 0.5).abs() < 1e-9);
    }
}

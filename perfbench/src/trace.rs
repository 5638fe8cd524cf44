//! Spans recorded around the benchmark's calls into each crate.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span it
//! is attributed to, and the op it belongs to. Spans stay in memory and
//! are written out when the run ends. A layer's self time is the summed
//! duration of its spans minus the durations of the spans attributed to
//! them. Attribution is by parent id, not by interval: the traced run
//! reruns `run_cosim`'s stages (compile, flatten, extract, bridge,
//! machine) on the same inputs right after the call and attributes them
//! to the `run_cosim` span, whose self time is then what is left of it:
//! switch stepping plus checks.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What a span counts toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Part of the op's work; root spans of this role sum to the op time.
    Work,
    /// A standalone sample (one switch settle, input generation) that is
    /// reported on its own and counted in no op time.
    Probe,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: usize,
    pub role: Role,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder. When disabled it records nothing and only
/// runs the closures.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    /// Durations the program reports about itself (`PassTimings`), summed
    /// per name; kept apart from the spans, which the benchmark measures.
    pub reported: BTreeMap<&'static str, Duration>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            reported: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span and returns its result with the span id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: Option<usize>,
        role: Role,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        if !self.enabled {
            return (f(), usize::MAX);
        }
        let start = self.origin.elapsed();
        let r = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
            role,
        });
        (r, self.spans.len() - 1)
    }

    /// A work span with no parent.
    pub fn root<R>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> R) -> (R, usize) {
        self.span(name, op, None, Role::Work, f)
    }

    /// A work span attributed to `parent`.
    pub fn child<R>(
        &mut self,
        name: &'static str,
        op: usize,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span(name, op, Some(parent), Role::Work, f).0
    }

    /// Adds a program-reported duration.
    pub fn report(&mut self, name: &'static str, d: Duration) {
        if self.enabled {
            *self.reported.entry(name).or_default() += d;
        }
    }

    /// Tab-separated spans: id, op, name, start_ns, end_ns, parent, role.
    pub fn to_tsv(&self) -> String {
        let mut s = String::from("id\top\tname\tstart_ns\tend_ns\tparent\trole\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{i}\t{}\t{}\t{}\t{}\t{parent}\t{:?}",
                sp.op,
                sp.name,
                sp.start.as_nanos(),
                sp.end.as_nanos(),
                sp.role
            );
        }
        s
    }
}

/// Per-name sums over a finished trace.
pub struct Summary {
    /// Total duration per span name.
    pub total: BTreeMap<&'static str, Duration>,
    /// Number of spans per name.
    pub count: BTreeMap<&'static str, usize>,
    /// Self time per work span name.
    pub own: BTreeMap<&'static str, Duration>,
    /// Summed op time: the durations of all root work spans.
    pub op_time: Duration,
}

impl Summary {
    /// Self time of a layer: its span names are `<layer>.<call>`.
    pub fn layer_self(&self, layer: &str) -> Duration {
        self.own
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, d)| *d)
            .sum()
    }
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_time = vec![Duration::ZERO; spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            child_time[p] += sp.dur();
        }
    }
    let mut s = Summary {
        total: BTreeMap::new(),
        count: BTreeMap::new(),
        own: BTreeMap::new(),
        op_time: Duration::ZERO,
    };
    for (i, sp) in spans.iter().enumerate() {
        *s.total.entry(sp.name).or_default() += sp.dur();
        *s.count.entry(sp.name).or_default() += 1;
        if sp.role == Role::Work {
            // A rerun stage can run a little longer than its share of
            // the original call; self time saturates at zero.
            *s.own.entry(sp.name).or_default() += sp.dur().saturating_sub(child_time[i]);
            if sp.parent.is_none() {
                s.op_time += sp.dur();
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>, role: Role) -> Span {
        Span {
            name,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent,
            op: 0,
            role,
        }
    }

    #[test]
    fn self_time_subtracts_attributed_children() {
        let spans = vec![
            sp("verify.cosim", 0, 100, None, Role::Work),
            sp("core.compile", 100, 130, Some(0), Role::Work),
            sp("extract.run", 130, 180, Some(0), Role::Work),
            sp("sim.settle", 180, 185, None, Role::Probe),
        ];
        let s = summarize(&spans);
        assert_eq!(s.op_time, Duration::from_micros(100));
        assert_eq!(s.own["verify.cosim"], Duration::from_micros(20));
        assert_eq!(s.layer_self("core"), Duration::from_micros(30));
        assert_eq!(s.layer_self("extract"), Duration::from_micros(50));
        assert_eq!(s.layer_self("sim"), Duration::ZERO);
        assert_eq!(s.total["sim.settle"], Duration::from_micros(5));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, _) = t.root("core.compile", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}

//! In-memory span recorder for the traced replay.
//!
//! A span is one call into a layer: name, start, end, the span it ran
//! under, and the flow it worked for (0 when it belongs to no flow). Spans
//! stay in memory while the replay runs and are written out once at the
//! end, so recording costs two clock reads and one push per call.

use std::io::Write;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `classify` or `x86.decode`.
    pub name: &'static str,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch (`>= start`).
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Identifier shared by one flow's spans (0: none).
    pub flow: u64,
}

/// Span recorder. When disabled, `enter`/`exit` read no clock and record
/// nothing, which gives the untraced baseline for `trace.overhead_ratio`.
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Spans {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, flow: u64) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            flow,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let idx = self.stack.pop().expect("exit without a matching enter") as usize;
        self.spans[idx].end = end;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Close every span opened above `depth` (after a contained panic
    /// skipped their `exit`).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            self.exit();
        }
    }

    /// Record finished children of the innermost open span from
    /// durations a layer measured itself: they are laid end to end from
    /// the open span's start. Used for decode, lift and match, which
    /// `Analyzer::analyze_frame_timed` times internally.
    pub fn children_from_durations(&mut self, parts: &[(&'static str, u64)], flow: u64) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let mut at = self.spans[parent as usize].start;
        for &(name, nanos) in parts {
            self.spans.push(Span {
                name,
                start: at,
                end: at + nanos,
                parent,
                flow,
            });
            at += nanos;
        }
    }

    /// Every recorded span, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as tab-separated `name start end parent flow`
    /// lines (parent `-` for a root).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tflow")?;
        for s in &self.spans {
            if s.parent == ROOT {
                writeln!(out, "{}\t{}\t{}\t-\t{}", s.name, s.start, s.end, s.flow)?;
            } else {
                writeln!(
                    out,
                    "{}\t{}\t{}\t{}\t{}",
                    s.name, s.start, s.end, s.parent, s.flow
                )?;
            }
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children are counted once, and a
/// child reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end);
                let b = b.clamp(a, s.end);
                covered += b - a;
                reach = reach.max(b);
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            flow: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        let spans = [
            span("root", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("a.inner", 15, 25, 1),
            span("b", 50, 60, 0),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", 0, 100, ROOT),
            span("x", 10, 50, 0),
            span("y", 30, 70, 0),
            span("z", 35, 45, 0),
        ];
        // Children cover [10, 70): 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_outside_the_parent_count_only_inside_it() {
        let spans = [
            span("root", 20, 80, ROOT),
            span("early", 0, 30, 0),
            span("late", 70, 200, 0),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let spans = [
            span("root", 0, 1000, ROOT),
            span("a", 0, 300, 0),
            span("a.x", 100, 200, 1),
            span("a.y", 200, 250, 1),
            span("b", 500, 900, 0),
            span("b.x", 500, 900, 4),
        ];
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn recorder_nests_and_lays_out_measured_children() {
        let mut rec = Spans::new(true);
        rec.enter("outer", 7);
        rec.enter("frame", 7);
        rec.children_from_durations(&[("d", 5), ("l", 6)], 7);
        rec.exit();
        rec.exit();
        let s = rec.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (ROOT, 0, 1, 1)
        );
        assert_eq!(s[2].end - s[2].start, 5);
        assert_eq!(s[3].start, s[2].end);
        assert!(s.iter().all(|x| x.flow == 7));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Spans::new(false);
        rec.enter("x", 0);
        rec.children_from_durations(&[("d", 5)], 0);
        rec.exit();
        assert!(rec.spans().is_empty());
    }
}

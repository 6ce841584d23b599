//! Span/counter instrumentation: phase trees and Perfetto export.
//!
//! The repo's *model* costs (work/depth charges) are deterministic and
//! regression-pinned, but the *physical* behaviour of a run — wall time per
//! pass, workspace churn — used to be visible only through ad-hoc `Instant`
//! printlns.  This module is the structured replacement: RAII **spans**
//! ([`Ctx::span`]) opened at every engine pass and pipeline phase, recorded
//! into an in-memory ring on the context.
//!
//! ## Disabled-cost contract
//!
//! Like the per-context fault injector ([`crate::faults`]), tracing is
//! dependency-free and **zero-cost when disabled**: [`Ctx::span`] performs a
//! single relaxed atomic load and returns a no-op guard.  In *any* state the
//! layer charges nothing to the cost model — span open/close only reads the
//! tracker, workspace counters, and the monotonic clock — so tracked
//! work/depth is bit-identical with tracing on or off
//! (`tests/charge_determinism.rs` pins this).  Engine passes
//! open their spans through [`Ctx::pass`], which fires the fault injector's
//! engine-pass hook first, so every pass an injection can target is in the
//! phase tree.
//!
//! ## Span model
//!
//! A span is opened with `ctx.span("name")` and closed when the returned
//! [`Span`] guard drops.  Spans opened while another is open nest: the
//! recorder keeps an open-span stack, so the closed records form a forest
//! (the *phase tree*).  Each closed span records wall time, the charge delta
//! ([`Tracker::since`]), workspace deltas (checkouts, misses, and the
//! `pooled_bytes` high-water), and optional structured attributes
//! ([`Span::attr`]).
//!
//! Recovery ([`Ctx::recover`] / [`Ctx::reset_stats`]) **invalidates** open
//! spans: the recorder epoch is bumped, and a guard whose epoch is stale
//! discards itself at close instead of recording garbage deltas against a
//! reset tracker (counted in [`TraceSnapshot::open_discarded`]).
//!
//! ## Sinks
//!
//! A [`TraceSnapshot`] (taken with [`Trace::snapshot`]) renders three ways:
//!
//! * [`TraceSnapshot::render_tree`] — a human-readable phase tree with
//!   total/self wall time and charges per node (what
//!   `examples/profile_decompose.rs` prints);
//! * [`TraceSnapshot::to_chrome_json`] — a Chrome/Perfetto-compatible
//!   `trace.json` (open it in `ui.perfetto.dev`); spans become complete
//!   (`"ph":"X"`) events;
//! * [`TraceSnapshot::summary`] — a compact machine-readable aggregation by
//!   span name ([`TraceSummary::to_json`]), which `bench_json` embeds per
//!   row.
//!
//! [`Ctx::span`]: crate::Ctx::span
//! [`Ctx::pass`]: crate::Ctx::pass
//! [`Ctx::recover`]: crate::Ctx::recover
//! [`Ctx::reset_stats`]: crate::Ctx::reset_stats
//! [`Tracker::since`]: crate::Tracker::since

use crate::tracker::{Stats, Tracker};
use crate::workspace::Workspace;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Default ring capacity: the recorder keeps at most this many closed spans,
/// dropping the oldest once full.  A warm 1e6 decompose emits well under a hundred spans, so the
/// default comfortably holds hundreds of traced runs.
pub const DEFAULT_RING_CAPACITY: usize = 8192;

/// One closed span: a node of the phase tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Recorder-unique id (monotonic per enable-epoch).
    pub id: u32,
    /// Id of the enclosing span, if one was open.
    pub parent: Option<u32>,
    /// Nesting depth at open time (0 for roots).
    pub depth: u16,
    /// Static span name (`"decompose"`, `"list_rank"`, …).
    pub name: &'static str,
    /// Open time in nanoseconds since the trace was enabled.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub wall_ns: u64,
    /// Work/depth charged between open and close ([`Tracker::since`]).
    pub charge: Stats,
    /// Workspace checkouts served between open and close.
    pub checkouts: u64,
    /// Checkouts that missed the pools (fresh allocations) in the span.
    pub misses: u64,
    /// High-water mark of `Workspace::pooled_bytes` observed at the span's
    /// endpoints (pool residency is accounted at return time, so the close
    /// value is the interesting one for warm-pool sizing).
    pub pooled_bytes_hw: u64,
    /// Structured attributes attached via [`Span::attr`].
    pub attrs: Vec<(&'static str, u64)>,
}

/// Everything the recorder needs under one lock.
#[derive(Debug)]
struct TraceState {
    /// Monotonic base set when tracing is enabled; all record timestamps are
    /// offsets from it.
    base: Option<Instant>,
    spans: VecDeque<SpanRecord>,
    /// Ids of currently open spans, innermost last.
    stack: Vec<u32>,
    next_id: u32,
    /// Bumped by `invalidate_open`; guards from an older epoch discard.
    epoch: u64,
    dropped_spans: u64,
    open_discarded: u64,
    capacity: usize,
}

/// The per-[`Ctx`](crate::Ctx) trace recorder: an enable flag plus a ring of
/// closed [`SpanRecord`]s.
#[derive(Debug)]
pub struct Trace {
    /// Fast-path gate: `Ctx::span` returns after one relaxed load while tracing is disabled, so hot paths never take the
    /// state lock.
    active: AtomicBool,
    state: Mutex<TraceState>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// A disabled recorder with the default ring capacity.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            active: AtomicBool::new(false),
            state: Mutex::new(TraceState {
                base: None,
                spans: VecDeque::new(),
                stack: Vec::new(),
                next_id: 0,
                epoch: 0,
                dropped_spans: 0,
                open_discarded: 0,
                capacity: DEFAULT_RING_CAPACITY,
            }),
        }
    }

    /// Whether spans are being recorded.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Start recording.  Sets the timestamp base if this is the first enable
    /// (timestamps of later records stay monotonic across disable/enable).
    pub fn enable(&self) {
        let mut st = self.state.lock();
        if st.base.is_none() {
            st.base = Some(Instant::now());
        }
        drop(st);
        self.active.store(true, Ordering::SeqCst);
    }

    /// Stop recording.  Spans currently open are invalidated (their close
    /// discards) — a half-traced pass would otherwise record a misleading
    /// fragment.
    pub fn disable(&self) {
        self.active.store(false, Ordering::SeqCst);
        self.invalidate_open();
    }

    /// Replace the ring capacity, dropping oldest records as needed to fit.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        let mut st = self.state.lock();
        st.capacity = capacity;
        while st.spans.len() > capacity {
            st.spans.pop_front();
            st.dropped_spans += 1;
        }
    }

    /// Discard all recorded spans (open spans are invalidated
    /// too; the enable flag is untouched).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.spans.clear();
        st.stack.clear();
        st.epoch += 1;
        st.dropped_spans = 0;
        st.open_discarded = 0;
    }

    /// Invalidate every currently open span: bump the recorder epoch and
    /// clear the open stack, so stale guards discard at close instead of
    /// recording deltas against reset counters (each discard is tallied in
    /// [`TraceSnapshot::open_discarded`] when the guard actually drops).
    /// Called by `Ctx::recover` and `Ctx::reset_stats`.
    pub fn invalidate_open(&self) {
        let mut st = self.state.lock();
        st.stack.clear();
        st.epoch += 1;
    }

    /// Open a span.  Internal: reached through `Ctx::span`, which performs
    /// the disabled fast-path check first.
    pub(crate) fn open<'a>(
        &'a self,
        name: &'static str,
        tracker: &'a Tracker,
        workspace: &'a Workspace,
    ) -> Span<'a> {
        let now = Instant::now();
        let mut st = self.state.lock();
        let base = *st.base.get_or_insert(now);
        let id = st.next_id;
        st.next_id = st.next_id.wrapping_add(1);
        let parent = st.stack.last().copied();
        let depth = st.stack.len().min(u16::MAX as usize) as u16;
        st.stack.push(id);
        let epoch = st.epoch;
        drop(st);
        let ws0 = workspace.stats();
        Span {
            inner: Some(OpenSpan {
                trace: self,
                tracker,
                workspace,
                name,
                id,
                parent,
                depth,
                epoch,
                start: now,
                start_ns: ns_since(base, now),
                charge0: tracker.stats(),
                checkouts0: ws0.checkouts,
                misses0: ws0.misses,
                pooled0: workspace.pooled_bytes(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Close a span (guard drop).
    fn close(&self, open: &OpenSpan<'_>) {
        let wall_ns = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let charge = open.tracker.since(open.charge0);
        let ws = open.workspace.stats();
        let pooled = open.workspace.pooled_bytes();
        let mut st = self.state.lock();
        if st.epoch != open.epoch {
            // Recovery (or disable/clear) invalidated this span while it was
            // open: the counters it snapshotted have been reset, so any
            // delta it could record would be garbage.
            st.open_discarded += 1;
            return;
        }
        // Pop our own id (nested guards close innermost-first, so this is
        // normally the top of the stack; tolerate out-of-order drops).
        if let Some(pos) = st.stack.iter().rposition(|&id| id == open.id) {
            st.stack.truncate(pos);
        }
        let rec = SpanRecord {
            id: open.id,
            parent: open.parent,
            depth: open.depth,
            name: open.name,
            start_ns: open.start_ns,
            wall_ns,
            charge,
            checkouts: ws.checkouts.saturating_sub(open.checkouts0),
            misses: ws.misses.saturating_sub(open.misses0),
            pooled_bytes_hw: pooled.max(open.pooled0),
            attrs: open.attrs.clone(),
        };
        if st.spans.len() == st.capacity {
            st.spans.pop_front();
            st.dropped_spans += 1;
        }
        st.spans.push_back(rec);
    }

    /// A point-in-time copy of everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> TraceSnapshot {
        let st = self.state.lock();
        TraceSnapshot {
            spans: st.spans.iter().cloned().collect(),
            dropped_spans: st.dropped_spans,
            open_discarded: st.open_discarded,
        }
    }
}

fn ns_since(base: Instant, now: Instant) -> u64 {
    u64::try_from(now.saturating_duration_since(base).as_nanos()).unwrap_or(u64::MAX)
}

/// The live data a span guard carries between open and close.
struct OpenSpan<'a> {
    trace: &'a Trace,
    tracker: &'a Tracker,
    workspace: &'a Workspace,
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    depth: u16,
    epoch: u64,
    start: Instant,
    start_ns: u64,
    charge0: Stats,
    checkouts0: u64,
    misses0: u64,
    pooled0: u64,
    attrs: Vec<(&'static str, u64)>,
}

/// RAII span guard returned by [`Ctx::span`](crate::Ctx::span).  Recording
/// happens when the guard drops; a guard from a disabled recorder is a
/// no-op shell.
pub struct Span<'a> {
    inner: Option<OpenSpan<'a>>,
}

impl Span<'_> {
    /// A guard that records nothing (what `Ctx::span` returns while tracing
    /// is disabled).
    #[must_use]
    pub fn disabled() -> Self {
        Span { inner: None }
    }

    /// Whether this guard will record a span at drop.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a structured `key = value` attribute to the span (no-op when
    /// not recording).  Used for per-pass facts: element counts, doubling
    /// round indices, bucket counts.
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if let Some(open) = &mut self.inner {
            open.attrs.push((key, value));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(open) = self.inner.take() {
            open.trace.close(&open);
        }
    }
}

impl std::fmt::Debug for Span<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("recording", &self.inner.is_some())
            .finish()
    }
}

/// A point-in-time copy of the recorder contents, plus the sinks.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Closed spans, oldest first (the ring may have dropped earlier ones).
    pub spans: Vec<SpanRecord>,
    /// Spans the ring evicted to stay within capacity.
    pub dropped_spans: u64,
    /// Open spans invalidated by recovery/disable and discarded at close.
    pub open_discarded: u64,
}

impl TraceSnapshot {
    /// Spans with the given name, in record order.
    #[must_use]
    pub fn spans_named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Render the phase tree: one line per span, children indented under
    /// parents, with total and self wall time, charges, and workspace
    /// checkouts.  Roots are ordered by start time.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "phase                                     total ms   self ms         work  rounds  checkouts\n",
        );
        // Children of each span id (usize::MAX collects the roots), in
        // record order, which open order preserves within a parent.
        let present: std::collections::HashSet<u32> = self.spans.iter().map(|s| s.id).collect();
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| self.spans[i].start_ns);
        let mut children: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for &i in &order {
            let s = &self.spans[i];
            let key = match s.parent {
                Some(p) if present.contains(&p) => u64::from(p),
                _ => u64::MAX,
            };
            children.entry(key).or_default().push(i);
        }
        let mut stack: Vec<(usize, usize)> = children
            .get(&u64::MAX)
            .map(|roots| roots.iter().rev().map(|&i| (i, 0)).collect())
            .unwrap_or_default();
        while let Some((i, indent)) = stack.pop() {
            let s = &self.spans[i];
            let child_ids = children.get(&u64::from(s.id));
            let child_ns: u64 = child_ids
                .map(|c| c.iter().map(|&j| self.spans[j].wall_ns).sum())
                .unwrap_or(0);
            let self_ns = s.wall_ns.saturating_sub(child_ns);
            let mut label = String::new();
            for _ in 0..indent {
                label.push_str("  ");
            }
            label.push_str(s.name);
            for (k, v) in &s.attrs {
                label.push_str(&format!(" {k}={v}"));
            }
            out.push_str(&format!(
                "{label:<40} {:>9.3} {:>9.3} {:>12} {:>7} {:>10}\n",
                s.wall_ns as f64 / 1e6,
                self_ns as f64 / 1e6,
                s.charge.work,
                s.charge.rounds,
                s.checkouts,
            ));
            if let Some(c) = child_ids {
                for &j in c.iter().rev() {
                    stack.push((j, indent + 1));
                }
            }
        }
        if self.dropped_spans > 0 || self.open_discarded > 0 {
            out.push_str(&format!(
                "\n({} span(s) evicted by the ring, {} open span(s) discarded by recovery)\n",
                self.dropped_spans, self.open_discarded
            ));
        }
        out
    }

    /// Export as Chrome trace-event JSON (the format `chrome://tracing` and
    /// `ui.perfetto.dev` load).  Spans are complete (`"ph":"X"`) events with
    /// microsecond timestamps.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":{},\"cat\":\"span\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"work\":{},\"rounds\":{},\
                 \"checkouts\":{},\"misses\":{},\"pooled_bytes_hw\":{}",
                json_str(s.name),
                s.start_ns as f64 / 1e3,
                s.wall_ns as f64 / 1e3,
                s.charge.work,
                s.charge.rounds,
                s.checkouts,
                s.misses,
                s.pooled_bytes_hw,
            ));
            for (k, v) in &s.attrs {
                out.push_str(&format!(",{}:{v}", json_str(k)));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}");
        out
    }

    /// Aggregate by span name (first-seen order) into the compact summary
    /// `bench_json` embeds per row.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        let mut rows: Vec<SummaryRow> = Vec::new();
        // Self time needs per-span child sums.
        let mut child_ns: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
        let present: std::collections::HashSet<u32> = self.spans.iter().map(|s| s.id).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                if present.contains(&p) {
                    *child_ns.entry(p).or_insert(0) += s.wall_ns;
                }
            }
        }
        for s in &self.spans {
            let self_ns = s
                .wall_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => {
                    r.count += 1;
                    r.wall_ns += s.wall_ns;
                    r.self_ns += self_ns;
                    r.work += s.charge.work;
                    r.rounds += s.charge.rounds;
                    r.checkouts += s.checkouts;
                }
                None => rows.push(SummaryRow {
                    name: s.name,
                    count: 1,
                    wall_ns: s.wall_ns,
                    self_ns,
                    work: s.charge.work,
                    rounds: s.charge.rounds,
                    checkouts: s.checkouts,
                }),
            }
        }
        TraceSummary { rows }
    }
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRow {
    /// Span name.
    pub name: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Total wall nanoseconds across those spans.
    pub wall_ns: u64,
    /// Total self (minus recorded children) wall nanoseconds.
    pub self_ns: u64,
    /// Total work charged inside those spans.
    pub work: u64,
    /// Total rounds charged inside those spans.
    pub rounds: u64,
    /// Total workspace checkouts inside those spans.
    pub checkouts: u64,
}

/// The machine-readable trace aggregation ([`TraceSnapshot::summary`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Per-name span aggregates, in first-seen order.
    pub rows: Vec<SummaryRow>,
}

impl TraceSummary {
    /// Serialize as one compact JSON object:
    /// `{"spans":[{"name":…,"count":…,"wall_ns":…,"self_ns":…,"work":…,
    /// "rounds":…,"checkouts":…},…]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"count\":{},\"wall_ns\":{},\"self_ns\":{},\
                 \"work\":{},\"rounds\":{},\"checkouts\":{}}}",
                json_str(r.name),
                r.count,
                r.wall_ns,
                r.self_ns,
                r.work,
                r.rounds,
                r.checkouts
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string quoting for the hand-rolled exporters (names are
/// static ASCII identifiers, but quote defensively).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Trace, Tracker, Workspace) {
        (Trace::new(), Tracker::new(), Workspace::new())
    }

    #[test]
    fn disabled_guard_is_inert() {
        let span = Span::disabled();
        assert!(!span.is_recording());
        drop(span);
    }

    #[test]
    fn spans_nest_into_a_tree_with_deltas() {
        let (trace, tracker, ws) = fixture();
        trace.enable();
        {
            let mut outer = trace.open("outer", &tracker, &ws);
            outer.attr("n", 42);
            tracker.charge_step(100);
            {
                let _inner = trace.open("inner", &tracker, &ws);
                tracker.charge_step(10);
                let buf = ws.take_u32(64);
                drop(buf);
            }
        }
        let snap = trace.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let inner = &snap.spans[0];
        let outer = &snap.spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.depth, 0);
        assert_eq!(
            inner.charge,
            Stats {
                work: 10,
                rounds: 1
            }
        );
        assert_eq!(
            outer.charge,
            Stats {
                work: 110,
                rounds: 2
            }
        );
        assert_eq!(inner.checkouts, 1);
        assert_eq!(outer.checkouts, 1);
        assert_eq!(outer.attrs, vec![("n", 42)]);
        assert!(outer.wall_ns >= inner.wall_ns);
    }

    #[test]
    fn invalidated_open_span_discards_instead_of_recording() {
        let (trace, tracker, ws) = fixture();
        trace.enable();
        let span = trace.open("orphan", &tracker, &ws);
        tracker.charge_step(50);
        trace.invalidate_open(); // what Ctx::recover / reset_stats call
        tracker.reset();
        drop(span);
        let snap = trace.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.open_discarded, 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let (trace, tracker, ws) = fixture();
        trace.set_capacity(4);
        trace.enable();
        for _ in 0..10 {
            drop(trace.open("s", &tracker, &ws));
        }
        let snap = trace.snapshot();
        assert_eq!(snap.spans.len(), 4);
        assert_eq!(snap.dropped_spans, 6);
    }

    #[test]
    fn sinks_render_without_panicking_and_contain_names() {
        let (trace, tracker, ws) = fixture();
        trace.enable();
        {
            let _outer = trace.open("decompose", &tracker, &ws);
            let _inner = trace.open("list_rank", &tracker, &ws);
        }
        let snap = trace.snapshot();
        let tree = snap.render_tree();
        assert!(tree.contains("decompose"));
        assert!(tree.contains("  list_rank"));
        let json = snap.to_chrome_json();
        assert!(json.contains("\"name\":\"decompose\""));
        assert!(json.contains("\"ph\":\"X\""));
        let summary = snap.summary();
        assert_eq!(summary.rows.len(), 2);
        let sj = summary.to_json();
        assert!(sj.starts_with("{\"spans\":["));
        assert!(sj.ends_with("]}"));
    }

    #[test]
    fn clear_resets_recorder_and_invalidates() {
        let (trace, tracker, ws) = fixture();
        trace.enable();
        let open = trace.open("stale", &tracker, &ws);
        drop(trace.open("done", &tracker, &ws));
        trace.clear();
        drop(open); // stale epoch: discarded, not recorded
        let snap = trace.snapshot();
        assert!(snap.spans.is_empty());
        assert_eq!(snap.open_discarded, 1);
    }

    #[test]
    fn json_str_escapes() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}

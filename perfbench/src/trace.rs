//! The benchmark's own tracing: spans around its calls into each crate,
//! plus a counting global allocator.
//!
//! Spans live in memory and are written out once, at the end of the run.
//! A disabled [`Tracer`] records nothing, and the allocator counts only
//! while [`arm`] has switched it on, so untraced runs pay one branch per
//! span and one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The process allocator: the system allocator plus two counters.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as `System.alloc`, which it forwards to.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as `System.dealloc`, which it forwards to.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as `System.realloc`, which it forwards to.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts or stops allocation counting.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes requested)` counted so far, all threads.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One traced interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    /// The pass of the run this span belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Allocations and bytes requested inside the span (all threads).
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle of an open span.
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<(usize, u64, u64)>);

/// An in-memory span recorder. Spans nest: a span opened while another is
/// open becomes its child.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Tags the spans opened from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            run: self.run,
            parent: self.stack.last().copied(),
            start,
            end: start,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.stack.push(idx);
        let (allocs, bytes) = alloc_counts();
        Open(Some((idx, allocs, bytes)))
    }

    pub fn end(&mut self, open: Open) {
        let Some((idx, allocs, bytes)) = open.0 else {
            return;
        };
        let (allocs_now, bytes_now) = alloc_counts();
        let end = self.now();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        let span = &mut self.spans[idx];
        span.end = end;
        span.allocs = allocs_now - allocs;
        span.alloc_bytes = bytes_now - bytes;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's duration minus the part of it its direct children cover.
pub fn self_time(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    parent.duration() - covered
}

/// Sum of self times of the spans of run `run` named `name`, in seconds.
pub fn self_seconds(spans: &[Span], run: u32, name: &str) -> f64 {
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.run == run && s.name == name)
        .map(|(i, _)| self_time(spans, i))
        .sum::<u64>() as f64
        / 1e9
}

/// `(allocations, bytes)` summed over the spans of run `run` named `name`.
pub fn span_allocs(spans: &[Span], run: u32, name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.run == run && s.name == name)
        .fold((0, 0), |(a, b), s| (a + s.allocs, b + s.alloc_bytes))
}

/// The spans as a JSON array (one object per span, with its self time).
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {i}, \"name\": {}, \"run\": {}, \"parent\": {parent}, \
             \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"allocs\": {}, \
             \"alloc_bytes\": {}}}{}\n",
            crate::json::string(&s.name),
            s.run,
            s.start,
            s.end,
            self_time(spans, i),
            s.allocs,
            s.alloc_bytes,
            if i + 1 == spans.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "s".to_string(),
            run: 0,
            parent,
            start,
            end,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_time(&spans, 0), 70);
        assert_eq!(self_time(&spans, 1), 20);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children overlap each other and one sticks out past the parent.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
            span(Some(0), 90, 120),
        ];
        assert_eq!(self_time(&spans, 0), 100 - 40 - 10);
    }

    #[test]
    fn grandchildren_belong_to_their_own_parent() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 0, 50),
            span(Some(1), 0, 50),
        ];
        assert_eq!(self_time(&spans, 0), 50);
        assert_eq!(self_time(&spans, 1), 0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_run(3);
        let outer = t.begin("outer");
        t.span("inner", || ());
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[1].parent, s[1].run), (Some(0), 3));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);

        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert!(off.spans().is_empty());
    }
}

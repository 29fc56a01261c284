//! Benchmark-side instruments: spans around calls into each layer, an
//! allocation counter and process CPU time.
//!
//! Spans are recorded only while [`set_spans`] is on and allocations are
//! counted only while [`set_counting`] is on (both only in the traced run);
//! the untraced run pays one relaxed load per call site and allocation. Each operation is a
//! root span ([`op`]) whose children are the layer calls made inside it
//! ([`span`]). A span's self time is its duration minus the part its child
//! spans cover; children run one after another on the recording thread, so
//! that part is the sum of their durations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static TRACING: AtomicBool = AtomicBool::new(false);
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Operations per root-span name whose raw spans are kept for the spans
/// file; aggregates cover every span.
const RAW_OPS_PER_NAME: usize = 2_000;

/// Turn span recording on or off.
pub fn set_spans(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// Turn allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Allocation counter behind the global allocator. It counts only while
/// counting is on, process-wide (every thread).
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// atomic statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (every
        // allocation above is forwarded there).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// CPU time consumed by every thread of this process, in nanoseconds.
#[cfg(target_os = "linux")]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(not(target_os = "linux"))]
pub fn process_cpu_ns() -> u64 {
    0
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process's first span.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One finished span.
#[derive(Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    op: u64,
    name: &'static str,
    start: u64,
    end: u64,
    /// Duration minus the part child spans cover.
    self_ns: u64,
}

#[derive(Default)]
struct Recorder {
    next_id: u32,
    /// Open spans: (id, name, start, summed child durations).
    stack: Vec<(u32, &'static str, u64, u64)>,
    op: u64,
    /// Finished spans of the current operation.
    current: Vec<Span>,
    raw: Vec<Span>,
    raw_ops: BTreeMap<&'static str, usize>,
    durations: BTreeMap<&'static str, Vec<f64>>,
    self_times: BTreeMap<&'static str, Vec<f64>>,
    /// Per operation: summed span self time ÷ the operation's wall time.
    cover: Vec<f64>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

impl Recorder {
    fn enter(&mut self, name: &'static str) {
        self.next_id += 1;
        self.stack.push((self.next_id, name, now_ns(), 0));
    }

    fn exit(&mut self) {
        let end = now_ns();
        let (id, name, start, children) = self.stack.pop().expect("exit matches enter");
        let parent = self.stack.last_mut().map_or(0, |p| {
            p.3 += end - start;
            p.0
        });
        let dur = end - start;
        let self_ns = dur.saturating_sub(children);
        self.durations
            .entry(name)
            .or_default()
            .push(dur as f64 / 1e3);
        self.self_times
            .entry(name)
            .or_default()
            .push(self_ns as f64 / 1e3);
        self.current.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start,
            end,
            self_ns,
        });
    }
}

/// Run `f` as a child span named `name` of the open operation.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    REC.with(|r| r.borrow_mut().enter(name));
    let out = f();
    REC.with(|r| r.borrow_mut().exit());
    out
}

/// Run `f` as operation `op_id`, a root span named `name`.
pub fn op<T>(name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    let wall0 = Instant::now();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.op = op_id;
        r.enter(name);
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.exit();
        let spans = std::mem::take(&mut r.current);
        // The self times of an operation's spans should account for the
        // wall time seen from outside its root span; what they miss is the
        // span bookkeeping itself.
        let self_sum: u64 = spans.iter().map(|s| s.self_ns).sum();
        let wall = wall0.elapsed().as_nanos() as f64;
        if wall > 0.0 {
            r.cover.push(self_sum as f64 / wall);
        }
        let kept = r.raw_ops.entry(name).or_default();
        if *kept < RAW_OPS_PER_NAME {
            *kept += 1;
            r.raw.extend(spans);
        }
    });
    out
}

/// Span durations (µs) recorded on this thread under `name`.
pub fn durations(name: &str) -> Vec<f64> {
    REC.with(|r| r.borrow().durations.get(name).cloned().unwrap_or_default())
}

/// Per-operation cover ratios recorded on this thread.
pub fn cover_ratios() -> Vec<f64> {
    REC.with(|r| r.borrow().cover.clone())
}

/// Median self time (µs) of every span name recorded on this thread.
pub fn self_time_medians() -> BTreeMap<&'static str, f64> {
    REC.with(|r| {
        r.borrow()
            .self_times
            .iter()
            .map(|(k, v)| (*k, crate::stats::median(v)))
            .collect()
    })
}

/// Forget this thread's per-name span aggregates (raw spans and cover
/// ratios are kept for the whole run).
pub fn reset_aggregates() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.durations.clear();
        r.self_times.clear();
    });
}

/// Write this thread's raw spans as JSON lines: name, start and end (ns
/// since the first span), span id, parent span id (0 for a root) and op id.
pub fn write_spans(path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    REC.with(|r| -> std::io::Result<()> {
        for s in &r.borrow().raw {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start, s.end, s.id, s.parent, s.op
            )?;
        }
        Ok(())
    })?;
    out.flush()
}

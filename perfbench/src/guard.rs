//! Failure accounting and the wedge guard.
//!
//! Every operation the origin issues is counted as attempted, and as failed
//! when it returns an error, delivers wrong bytes or misses its deadline. A
//! call that does not come back at all is caught by a watchdog thread: after
//! [`STALL_LIMIT`] without a completed operation it counts the stuck
//! operation as failed, prints the result line and ends the process, so a
//! wedge ends the run instead of hanging it.

use portals_obs::Registry;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// An operation slower than this counts as failed (it still completed).
pub const OP_DEADLINE: Duration = Duration::from_secs(1);
/// Bound handed to every blocking call that takes a timeout; running into
/// it ends the run.
pub const CALL_TIMEOUT: Duration = Duration::from_secs(20);
/// No completed operation for this long ends the run.
pub const STALL_LIMIT: Duration = Duration::from_secs(40);

static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);
static WRONG: AtomicBool = AtomicBool::new(false);
static HEARTBEAT_MS: AtomicU64 = AtomicU64::new(0);
static STOP: AtomicBool = AtomicBool::new(false);

/// Metric names and units the result line must carry, for a run that ends
/// early.
static EXPECTED: OnceLock<&'static [(&'static str, &'static str)]> = OnceLock::new();
/// The registry of the world in use, dumped when the run ends early.
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);
/// Serializes the result line between the watchdog and the main thread.
static PRINT: Mutex<bool> = Mutex::new(false);

fn start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

fn beat() {
    HEARTBEAT_MS.store(start().elapsed().as_millis() as u64, Ordering::Relaxed);
}

/// Record one finished operation. `correct` is false when it delivered
/// wrong bytes or returned an error.
pub fn record(elapsed: Duration, correct: bool) -> bool {
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    if !correct {
        WRONG.store(true, Ordering::Relaxed);
    }
    let ok = correct && elapsed <= OP_DEADLINE;
    if !ok {
        FAILED.fetch_add(1, Ordering::Relaxed);
    }
    beat();
    ok
}

/// Record a failed end-of-phase check (wrong final state).
pub fn record_wrong(what: &str) {
    eprintln!("check failed: {what}");
    WRONG.store(true, Ordering::Relaxed);
    FAILED.fetch_add(1, Ordering::Relaxed);
}

pub fn attempted() -> u64 {
    ATTEMPTED.load(Ordering::Relaxed)
}

pub fn failed() -> u64 {
    FAILED.load(Ordering::Relaxed)
}

/// True when every output checked so far was correct.
pub fn all_correct() -> bool {
    !WRONG.load(Ordering::Relaxed)
}

/// Print the contract's last line: each metric's name, value and unit.
/// Printed at most once per process.
pub fn print_result(correct: bool, metrics: &[(&str, f64, &str)]) {
    let mut printed = PRINT.lock().expect("result printer poisoned");
    if *printed {
        return;
    }
    *printed = true;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted().max(1),
        failed(),
        body.join(", ")
    );
    let _ = out.flush();
}

/// End the run now: the operation in flight failed with `why`.
pub fn abort(why: &str) -> ! {
    eprintln!("run ended early: {why}");
    if let Some(reg) = REGISTRY.lock().ok().and_then(|r| r.clone()) {
        eprintln!("counters of the world in use:");
        for s in reg.snapshot() {
            if let Some(v) = s.as_counter().filter(|v| *v > 0) {
                eprintln!("  {} {:?} = {v}", s.name, s.labels);
            }
        }
    }
    ATTEMPTED.fetch_add(1, Ordering::Relaxed);
    FAILED.fetch_add(1, Ordering::Relaxed);
    let expected: &[(&str, &str)] = EXPECTED.get().copied().unwrap_or_default();
    let metrics: Vec<(&str, f64, &str)> = expected.iter().map(|&(n, u)| (n, 0.0, u)).collect();
    print_result(false, &metrics);
    std::process::exit(0);
}

/// Unwrap a call's result or end the run.
pub fn must<T, E: std::fmt::Debug>(r: Result<T, E>, what: &str) -> T {
    r.unwrap_or_else(|e| abort(&format!("{what}: {e:?}")))
}

/// Unwrap a call's option (a timed-out wait) or end the run.
pub fn must_some<T>(v: Option<T>, what: &str) -> T {
    v.unwrap_or_else(|| abort(&format!("{what}: timed out after {CALL_TIMEOUT:?}")))
}

/// Start the watchdog. `expected` names the metrics of this run's result
/// line. Call [`stop_watchdog`] and join the handle before exiting.
pub fn start_watchdog(
    expected: &'static [(&'static str, &'static str)],
) -> std::thread::JoinHandle<()> {
    let _ = EXPECTED.set(expected);
    beat();
    std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(|| {
            while !STOP.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                let now = start().elapsed().as_millis() as u64;
                let last = HEARTBEAT_MS.load(Ordering::Relaxed);
                if now.saturating_sub(last) > STALL_LIMIT.as_millis() as u64 {
                    abort(&format!("no operation completed for {STALL_LIMIT:?}"));
                }
            }
        })
        .expect("spawn watchdog")
}

pub fn stop_watchdog(handle: std::thread::JoinHandle<()>) {
    STOP.store(true, Ordering::Relaxed);
    handle.join().expect("watchdog thread");
}

/// Name the registry to dump if the run ends early.
pub fn watch(reg: &Registry) {
    if let Ok(mut r) = REGISTRY.lock() {
        *r = Some(reg.clone());
    }
}

/// Mark progress outside an operation (set-up steps, phase boundaries).
pub fn progress() {
    beat();
}

//! Allocation budget of the threadless small-message path.
//!
//! A counting global allocator wraps the system one, and two ranks on the
//! in-process fabric run MPI 8-byte ping-pongs in caller-driven progress
//! (one thread per rank, nothing else running). The test asserts a ceiling
//! on heap allocations per round trip, counted over both threads, so a
//! change that regrows the hot path's per-message allocations fails here
//! rather than showing up only as a slower benchmark.
//!
//! The binary holds this one test on purpose: the allocator counts every
//! thread of the process, and a concurrently running test would pollute the
//! count.

use portals_mpi::MpiConfig;
use portals_runtime::{Job, JobConfig};
use portals_transport::TransportConfig;
use portals_types::{ProgressMode, Rank, Region};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the counter
// is a relaxed atomic, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Round trips timed by the budget.
const ROUND_TRIPS: u64 = 500;
/// Round trips run first so pools, maps and queues reach steady state.
const WARMUP: u64 = 200;
/// Ceiling on heap allocations per round trip (both ranks together).
const BUDGET_PER_ROUND_TRIP: f64 = 40.0;
const TAG: u32 = 7;

#[test]
fn threadless_pingpong_stays_within_allocation_budget() {
    let (job, envs) = Job::build(
        2,
        JobConfig {
            transport: TransportConfig {
                progress_mode: ProgressMode::CallerDriven,
                ..Default::default()
            },
            mpi: MpiConfig::default(),
            ..Default::default()
        },
    );
    let mut envs = envs.into_iter();
    let (r0, r1) = (envs.next().expect("rank 0"), envs.next().expect("rank 1"));
    let total = WARMUP + ROUND_TRIPS;

    let echo = std::thread::spawn(move || {
        let comm = &r1.comm;
        let buf = Region::zeroed(8);
        let mut ping = [0u8; 8];
        for _ in 0..total {
            let req = comm.irecv(Some(Rank(0)), Some(TAG), buf.clone());
            comm.wait(req);
            buf.read_into(0, &mut ping);
            let req = comm.isend(Rank(0), TAG, &ping);
            comm.wait(req);
        }
        r1
    });

    let comm = &r0.comm;
    let landing = Region::zeroed(8);
    let mut pong = [0u8; 8];
    let mut counted = 0;
    for i in 0..total {
        if i == WARMUP {
            counted = ALLOCATIONS.load(Ordering::Relaxed);
        }
        let ping = i.to_le_bytes();
        let reply = comm.irecv(Some(Rank(1)), Some(TAG), landing.clone());
        let req = comm.isend(Rank(1), TAG, &ping);
        comm.wait(req);
        comm.wait(reply);
        landing.read_into(0, &mut pong);
        assert_eq!(pong, ping, "round trip {i} echoed the wrong bytes");
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - counted;
    let r1 = echo.join().expect("echo rank");

    let per_round_trip = allocations as f64 / ROUND_TRIPS as f64;
    println!("allocations per 8-byte round trip: {per_round_trip:.1}");
    assert!(
        per_round_trip <= BUDGET_PER_ROUND_TRIP,
        "{per_round_trip:.1} allocations per round trip, budget {BUDGET_PER_ROUND_TRIP}"
    );
    drop((r0, r1));
    drop(job);
}

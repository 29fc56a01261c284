//! One benchmark for the whole Portals stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds a two-rank world (rank 0 on the main thread, rank 1 on a helper
//! thread, caller-driven progress), runs seven closed-loop phases through
//! the public calls of `runtime`, `mpi`, `mpi::osc` and `portals`, checks
//! every received byte, and prints one JSON result line last on stdout.
//!
//! * `--trace 0` measures the end-to-end metrics with all instruments off.
//! * `--trace 1` measures the per-layer metrics: counter passes of a fixed
//!   operation count (so counts repeat exactly for a seed), spans around
//!   every layer call, and the latency ladder that drives the same 8-byte
//!   ping-pong at each level of the stack (`net`, `transport`, `portals`,
//!   `mpi`) to attribute its round trip.
//!
//! See `perfbench/README.md` for the workloads, the metrics and why each
//! was chosen.

mod guard;
mod ladder;
mod payload;
mod phases;
mod report;
mod stats;
mod trace;
mod world;

use payload::Inputs;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use world::{Workload, STREAM_WINDOW};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Target length of one phase's slot in a round of an untraced run. Outside
/// load on a shared host shifts speed from one second to the next; short
/// slots let every phase sample many of those states.
const SLOT: Duration = Duration::from_millis(60);

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub commit: String,
    pub source_hash: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = PathBuf::from("perfbench/results");
    let mut commit = "unknown".to_string();
    let mut source_hash = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::by_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--commit" => commit = value()?,
            "--source-hash" => source_hash = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out_dir,
        commit,
        source_hash,
    })
}

/// Build a world and time it, in seconds.
fn timed_build(w: &Workload, inputs: &Inputs) -> (world::World, f64) {
    let t0 = Instant::now();
    let built = world::build(w, inputs);
    let secs = t0.elapsed().as_secs_f64();
    guard::progress();
    guard::watch(&built.obs.registry);
    (built, secs)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <small_inproc|bulk_inproc> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let watchdog = guard::start_watchdog(if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    });
    let w = args.workload;
    let inputs = Inputs::generate(args.seed, w.transfer, STREAM_WINDOW);
    let budget = Duration::from_secs_f64(args.seconds);

    let result = if args.trace {
        let (mut world, _) = timed_build(&w, &inputs);
        ladder::traced_run(&w, &mut world, &inputs, budget)
    } else {
        // Rounds interleave the phases, so a burst of outside load lands on
        // every phase alike instead of on whichever ran at the time. Each
        // round sets up a fresh world; `setup_s` is the median of those.
        let slots = phases::PHASES.len() as u32;
        let rounds = (budget.as_secs_f64() / (SLOT * slots).as_secs_f64())
            .round()
            .max(3.0) as u32;
        let per_phase = budget / (rounds * slots);
        let mut setups = Vec::new();
        let mut results: Vec<phases::PhaseResult> = Vec::new();
        for _ in 0..rounds {
            let (mut world, secs) = timed_build(&w, &inputs);
            setups.push(secs);
            for (k, p) in phases::PHASES.iter().enumerate() {
                let r = phases::run(
                    p,
                    &mut world,
                    &inputs,
                    phases::Plan::For(per_phase),
                    w.transfer,
                );
                match results.get_mut(k) {
                    Some(acc) => acc.absorb(r),
                    None => results.push(r),
                }
            }
        }
        report::end_to_end(&setups, &results)
    };
    guard::stop_watchdog(watchdog);
    if args.trace {
        let path = args
            .out_dir
            .join(format!("{}-seed{}.spans.jsonl", w.name, args.seed));
        match std::fs::create_dir_all(&args.out_dir).and_then(|_| trace::write_spans(&path)) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    report::finish(&args, result);
}

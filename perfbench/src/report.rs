//! Metric definitions and the result outputs.
//!
//! A run prints its contract line last on stdout (every metric of its mode,
//! by name, value and unit) and writes a fuller result file under
//! `--out-dir`: provenance, each metric's sample count, median and
//! quartiles, and whether the metric is an exact count (one that must repeat
//! exactly for a seed).

use crate::phases::PhaseResult;
use crate::stats::{self, Summary};
use crate::world::{FABRIC_MTU, UDP_BATCH, UDP_MAX_PAYLOAD};
use crate::{guard, Args};
use std::fmt::Write as _;

/// `--trace 0` metrics: what a user of the stack sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rtt_p50_us", "us"),
    ("rtt_p90_us", "us"),
    ("msg_rate_per_s", "msg/s"),
    ("fetch_add_p50_us", "us"),
    ("put_mib_s", "MiB/s"),
    ("get_mib_s", "MiB/s"),
    ("sendrecv_mib_s", "MiB/s"),
    ("rput_mib_s", "MiB/s"),
];

/// `--trace 1` metrics: one layer each.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mpi.rtt_us", "us"),
    ("mpi.self_us", "us"),
    ("mpi.send_us", "us"),
    ("mpi.wait_us", "us"),
    ("mpi.sendrecv_wait_us", "us"),
    ("mpi.portals_msgs_per_msg", "count"),
    ("mpi.pool_hit_ratio", "ratio"),
    ("mpi.osc.fetch_add_submit_us", "us"),
    ("mpi.osc.fetch_add_wait_us", "us"),
    ("mpi.osc.flush_us", "us"),
    ("portals.rtt_us", "us"),
    ("portals.self_us", "us"),
    ("portals.submit_us", "us"),
    ("portals.wait_us", "us"),
    ("portals.put_wait_us", "us"),
    ("portals.get_wait_us", "us"),
    ("portals.copies_per_msg", "count"),
    ("transport.rtt_us", "us"),
    ("transport.self_us", "us"),
    ("transport.acks_per_msg", "count"),
    ("transport.mib_s", "MiB/s"),
    ("transport.packets_per_msg", "count"),
    ("transport.retransmissions", "count"),
    ("transport.credit_stalls", "count"),
    ("net.rtt_us", "us"),
    ("net.datagrams_per_msg", "count"),
    ("netudp.rtt_us", "us"),
    ("netudp.transport_mib_s", "MiB/s"),
    ("netudp.datagrams_per_msg", "count"),
    ("netudp.send_syscalls_per_mib", "1/MiB"),
    ("netudp.recv_syscalls_per_mib", "1/MiB"),
    ("netudp.avg_send_batch", "count"),
    ("netudp.avg_recv_batch", "count"),
    ("netudp.wouldblock_retries", "count"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.crc_ns_per_kib", "ns/KiB"),
    ("process.pingpong.cpu_us_per_op", "us"),
    ("process.pingpong.allocs_per_op", "count"),
    ("process.stream.cpu_us_per_op", "us"),
    ("process.stream.allocs_per_op", "count"),
    ("process.fetch_add.cpu_us_per_op", "us"),
    ("process.fetch_add.allocs_per_op", "count"),
    ("process.put.cpu_us_per_op", "us"),
    ("process.put.allocs_per_op", "count"),
    ("process.get.cpu_us_per_op", "us"),
    ("process.get.allocs_per_op", "count"),
    ("process.sendrecv.cpu_us_per_op", "us"),
    ("process.sendrecv.allocs_per_op", "count"),
    ("process.rput.cpu_us_per_op", "us"),
    ("process.rput.allocs_per_op", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.span_cover_frac", "ratio"),
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// Exact counts must repeat exactly for a seed; timings need not.
    pub exact: bool,
    /// The samples behind a timing, when it summarizes many.
    pub dist: Option<Summary>,
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Extra facts for the result file (operation counts per phase etc.).
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// A value that varies from run to run (timings, and counts that
    /// depend on timing).
    pub fn measured(&mut self, name: &'static str, value: f64, dist: Option<Summary>) {
        self.metrics.push(Metric {
            name,
            value,
            exact: false,
            dist,
        });
    }

    /// A count that repeats exactly for a seed.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            exact: true,
            dist: None,
        });
    }

    pub fn fact(&mut self, key: impl Into<String>, value: impl ToString) {
        self.facts.push((key.into(), value.to_string()));
    }
}

fn phase<'a>(results: &'a [PhaseResult], name: &str) -> &'a PhaseResult {
    results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("phase {name} ran"))
}

/// The `--trace 0` report from the set-up times and the timed phases.
pub fn end_to_end(setups: &[f64], results: &[PhaseResult]) -> Report {
    let mut r = Report::default();
    let setup = stats::summarize(setups);
    r.measured("setup_s", setup.median, Some(setup));
    let pp = stats::summarize(&phase(results, "pingpong").samples);
    r.measured("rtt_p50_us", pp.median, Some(pp));
    r.measured("rtt_p90_us", pp.p90, Some(pp));
    let fa = stats::summarize(&phase(results, "fetch_add").samples);
    r.measured("fetch_add_p50_us", fa.median, Some(fa));
    for (metric, name) in [
        ("msg_rate_per_s", "stream"),
        ("put_mib_s", "put"),
        ("get_mib_s", "get"),
        ("sendrecv_mib_s", "sendrecv"),
        ("rput_mib_s", "rput"),
    ] {
        let s = stats::summarize(&phase(results, name).samples);
        r.measured(metric, s.median, Some(s));
    }
    for p in results {
        r.fact(format!("ops.{}", p.name), p.ops);
    }
    r
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Write the result file, print a readable table on stderr, and print the
/// contract line last on stdout.
pub fn finish(args: &Args, report: Report) {
    let w = &args.workload;
    let mode = if args.trace { PER_LAYER } else { END_TO_END };
    let unit_of = |name: &str| {
        mode.iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
    };
    for (name, _) in mode {
        assert!(
            report.metrics.iter().any(|m| m.name == *name),
            "metric {name} was not measured"
        );
    }
    let correct = guard::all_correct();

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut f = String::new();
    let _ = writeln!(f, "{{");
    let _ = writeln!(f, "  \"provenance\": {{");
    let prov = [
        ("commit", json_str(&args.commit)),
        ("source_hash", json_str(&args.source_hash)),
        ("nproc", nproc.to_string()),
        ("progress_mode", json_str("caller_driven")),
        ("wire", json_str("inproc_ideal_fabric")),
        ("mtu_bytes", FABRIC_MTU.to_string()),
        ("udp_rung_max_payload", UDP_MAX_PAYLOAD.to_string()),
        ("udp_rung_batch", UDP_BATCH.to_string()),
        ("transfer_bytes", w.transfer.to_string()),
        ("mpi_protocol", json_str(&format!("{:?}", w.mpi.protocol))),
        ("workload", json_str(w.name)),
        ("seed", args.seed.to_string()),
        ("seconds", num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
    ];
    for (i, (k, v)) in prov.iter().enumerate() {
        let comma = if i + 1 < prov.len() { "," } else { "" };
        let _ = writeln!(f, "    {}: {v}{comma}", json_str(k));
    }
    let _ = writeln!(f, "  }},");
    let _ = writeln!(f, "  \"correct\": {correct},");
    let _ = writeln!(f, "  \"attempted\": {},", guard::attempted());
    let _ = writeln!(f, "  \"failed\": {},", guard::failed());
    let _ = writeln!(f, "  \"metrics\": {{");
    for (i, m) in report.metrics.iter().enumerate() {
        let mut line = format!(
            "    {}: {{\"value\": {}, \"unit\": {}, \"exact\": {}",
            json_str(m.name),
            num(m.value),
            json_str(unit_of(m.name)),
            m.exact
        );
        if let Some(d) = m.dist {
            let _ = write!(
                line,
                ", \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}",
                d.n,
                num(d.median),
                num(d.q1),
                num(d.q3)
            );
        }
        let comma = if i + 1 < report.metrics.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(f, "{line}}}{comma}");
    }
    let _ = writeln!(f, "  }},");
    let _ = writeln!(f, "  \"facts\": {{");
    for (i, (k, v)) in report.facts.iter().enumerate() {
        let comma = if i + 1 < report.facts.len() { "," } else { "" };
        let _ = writeln!(f, "    {}: {}{comma}", json_str(k), json_str(v));
    }
    let _ = writeln!(f, "  }}");
    let _ = writeln!(f, "}}");
    let file = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        w.name, args.seed, args.trace as u8
    ));
    match std::fs::create_dir_all(&args.out_dir).and_then(|_| std::fs::write(&file, &f)) {
        Ok(()) => eprintln!("wrote {}", file.display()),
        Err(e) => eprintln!("could not write {}: {e}", file.display()),
    }

    eprintln!(
        "{} seed {} ({}): attempted {} failed {} correct {correct}",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        guard::attempted(),
        guard::failed()
    );
    for m in &report.metrics {
        let spread = m.dist.map_or(String::new(), |d| {
            format!("  (n={} q1={:.3} q3={:.3})", d.n, d.q1, d.q3)
        });
        eprintln!(
            "  {:<34} {:>14.3} {:<7}{}{spread}",
            m.name,
            m.value,
            unit_of(m.name),
            if m.exact { " exact" } else { "" }
        );
    }
    let line: Vec<(&str, f64, &str)> = mode
        .iter()
        .map(|&(name, unit)| {
            let m = report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .expect("checked above");
            (name, m.value, unit)
        })
        .collect();
    guard::print_result(correct, &line);
}

//! The traced run: counter passes, spans over every phase, and the latency
//! ladder.
//!
//! The ladder drives the same 8-byte ping-pong at each level of the stack
//! and subtracts neighbouring round trips, so each layer's share of the MPI
//! round trip is measured rather than guessed:
//!
//! | level | calls | echo side |
//! |---|---|---|
//! | `net` | `Link::send` / inbound channel | raw link echo |
//! | `transport` | `Endpoint::send` / `recv_timeout` | endpoint echo |
//! | `portals` | `put_op().submit()` / `eq_poll` | put back on each Put event |
//! | `mpi` | `isend` / `irecv` + wait | the `pingpong` phase |
//!
//! `net` and `transport` run on links of their own (extra nodes on the
//! fabric); `portals` and `mpi` run on the world's nodes. The transport level
//! also moves one transfer per operation (`transport.mib_s`), the bulk rung
//! under the put phase.
//!
//! A side rung repeats the `net` and `transport` levels over two loopback
//! UDP links (`netudp.*`), so the socket wire stays measured although no
//! end-to-end workload crosses it (its rates are bimodal on two CPUs; see
//! the README).

use crate::guard::{self, must, must_some, CALL_TIMEOUT};
use crate::payload::{Checker, Inputs};
use crate::phases::{self, wait_event, PhaseResult, Plan, COUNTERS, PHASES};
use crate::report::Report;
use crate::stats::{self, ratio};
use crate::trace::{self, op, span};
use crate::world::{self, Workload, World, FABRIC_MTU, PING_BITS, PORTAL};
use portals::EventKind;
use portals_net::Link;
use portals_obs::Obs;
use portals_transport::Endpoint;
use portals_types::{Gather, MatchBits, NodeId, PtlError, Region};
use portals_wire::Packet;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Operations per phase in the counter pass: fixed, so counts repeat.
fn counted_ops(phase: &str, transfer: usize) -> u64 {
    match phase {
        "pingpong" => 2000,
        "stream" => 100,
        "fetch_add" => 1000,
        _ => ((64 << 20) / transfer).clamp(20, 1000) as u64,
    }
}

/// Time-boxed closed loop on the calling thread; returns one sample per
/// operation (µs round trip, or MiB/s for transfers).
fn closed_loop(budget: Duration, warmup: u64, mut one: impl FnMut(u64) -> (f64, bool)) -> Vec<f64> {
    let mut samples = Vec::with_capacity(4096);
    let t0 = Instant::now();
    let mut i = 0u64;
    while i < warmup || t0.elapsed() < budget {
        let t = Instant::now();
        let (sample, ok) = one(i);
        guard::record(t.elapsed(), ok);
        if i >= warmup {
            samples.push(sample);
        }
        i += 1;
    }
    samples
}

/// How long a raw-link receiver polls before it blocks, matching the
/// spin-then-park waits of the layers above (none on a one-CPU host, as
/// there).
fn link_spin() -> Duration {
    if portals_types::spin_budget(1) > 0 {
        Duration::from_micros(50)
    } else {
        Duration::ZERO
    }
}

/// Raw link ping-pong: `a` sends, `b` echoes every datagram back. Both
/// receivers poll the inbound channel briefly before blocking on it.
fn net_level<L: Link>(a: L, b: L, inputs: &Inputs, budget: Duration) -> Vec<f64> {
    let stop = AtomicBool::new(false);
    let (a_rx, b_rx) = (a.inbound_receiver(), b.inbound_receiver());
    let (a_nid, b_nid) = (a.nid(), b.nid());
    let spin = link_spin();
    let mut check = Checker::new(8);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let mut got = b_rx.try_recv().ok();
                while got.is_none() && t0.elapsed() < spin {
                    std::hint::spin_loop();
                    got = b_rx.try_recv().ok();
                }
                if got.is_none() {
                    got = b_rx.recv_timeout(Duration::from_millis(10)).ok();
                }
                if let Some(d) = got {
                    b.send(a_nid, d.payload);
                }
            }
        });
        let landing = Region::zeroed(8);
        let samples = closed_loop(budget, 200, |i| {
            let ping = &inputs.ping[(i % inputs.ping.len() as u64) as usize];
            let t0 = Instant::now();
            let pong = op("op.ladder.net", i, || {
                span("net.send", || a.send(b_nid, Gather::copy_from_slice(ping)));
                span("net.recv", || {
                    let t0 = Instant::now();
                    loop {
                        if let Ok(d) = a_rx.try_recv() {
                            return Some(d);
                        }
                        if t0.elapsed() >= spin {
                            return a_rx.recv_timeout(CALL_TIMEOUT).ok();
                        }
                        std::hint::spin_loop();
                    }
                })
            });
            let rtt = t0.elapsed();
            let pong = must_some(pong, "net-level pong");
            pong.payload.copy_to_region(&landing, 0);
            (rtt.as_secs_f64() * 1e6, check.holds(&landing, ping))
        });
        stop.store(true, Ordering::Relaxed);
        samples
    })
}

/// What the transport level measured: ping-pong round trips (µs), transfer
/// rates (MiB/s), and registry deltas over the transfers.
struct TransportRung {
    rtt: Vec<f64>,
    bulk: Vec<f64>,
    bulk_counters: Vec<u64>,
}

impl TransportRung {
    fn counter(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|c| *c == name)
            .map_or(0, |i| self.bulk_counters[i])
    }
}

/// Transport ping-pong, then one-transfer sends answered by a 1-byte token.
fn transport_level<L: Link>(
    a: L,
    b: L,
    inputs: &Inputs,
    budget: Duration,
    obs: &Obs,
) -> TransportRung {
    let cfg = world::transport_config();
    let ea = Endpoint::with_obs(a, cfg, obs.clone());
    let eb = Endpoint::with_obs(b, cfg, obs.clone());
    let (a_nid, b_nid) = (ea.nid(), eb.nid());
    let transfer = inputs.bulk_bytes[0].len();
    let stop = AtomicBool::new(false);
    let wrong = AtomicBool::new(false);
    let mut check = Checker::new(transfer.max(8));
    let landing = Region::zeroed(transfer.max(8));
    let out = std::thread::scope(|s| {
        s.spawn(|| {
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let Some(m) = eb.recv_timeout(Duration::from_millis(10)) else {
                    continue;
                };
                if m.payload.len() == transfer {
                    eb.send(a_nid, Gather::copy_from_slice(&[1]));
                    let expected = &inputs.bulk_bytes[Inputs::variant(k)];
                    if m.payload.to_vec() != *expected {
                        wrong.store(true, Ordering::Relaxed);
                    }
                    k += 1;
                } else {
                    eb.send(a_nid, m.payload);
                }
            }
        });
        let rtt = closed_loop(budget / 2, 200, |i| {
            let ping = &inputs.ping[(i % inputs.ping.len() as u64) as usize];
            let t0 = Instant::now();
            let pong = op("op.ladder.transport", i, || {
                span("transport.send", || {
                    ea.send(b_nid, Gather::copy_from_slice(ping))
                });
                span("transport.recv", || ea.recv_timeout(CALL_TIMEOUT))
            });
            let rtt = t0.elapsed();
            let pong = must_some(pong, "transport-level pong");
            pong.payload.copy_to_region(&landing, 0);
            (rtt.as_secs_f64() * 1e6, check.holds(&landing.clone(), ping))
        });
        let before = phases::snapshot(&obs.registry);
        let bulk = closed_loop(budget / 2, 10, |i| {
            let data = &inputs.bulk[Inputs::variant(i)];
            let t0 = Instant::now();
            let token = op("op.ladder.transport_bulk", i, || {
                span("transport.send", || {
                    ea.send(b_nid, Gather::from_bytes(data.slice(0, transfer)))
                });
                span("transport.recv", || ea.recv_timeout(CALL_TIMEOUT))
            });
            let dt = t0.elapsed();
            let token = must_some(token, "transport-level token");
            (
                transfer as f64 / MIB / dt.as_secs_f64(),
                token.payload.len() == 1,
            )
        });
        let after = phases::snapshot(&obs.registry);
        stop.store(true, Ordering::Relaxed);
        TransportRung {
            rtt,
            bulk,
            bulk_counters: after.iter().zip(&before).map(|(a, b)| a - b).collect(),
        }
    });
    if wrong.load(Ordering::Relaxed) {
        guard::record_wrong("transport-level transfer delivered wrong bytes");
    }
    out
}

/// Portals put ping-pong on the world's auxiliary interfaces: rank 1 puts
/// its landing zone back on every Put event.
fn portals_level(world: &mut World, inputs: &Inputs, budget: Duration) -> Vec<f64> {
    let (o, t) = (&world.origin, &world.target);
    let (o_id, t_id) = (o.aux.id(), t.aux.id());
    let stop = AtomicBool::new(false);
    let mut check = Checker::new(8);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                match t.aux.eq_poll(t.ping.eq, Duration::from_millis(10)) {
                    Ok(ev) if ev.kind == EventKind::Put => must(
                        t.aux
                            .put_op(t.echo_md)
                            .target(o_id, PORTAL)
                            .bits(MatchBits::new(PING_BITS))
                            .submit(),
                        "echo put",
                    ),
                    Ok(_) | Err(PtlError::Timeout) | Err(PtlError::EqEmpty) => {}
                    Err(e) => guard::abort(&format!("echo event queue: {e:?}")),
                }
            }
        });
        let samples = closed_loop(budget, 200, |i| {
            let v = Inputs::variant(i);
            let t0 = Instant::now();
            let got = op("op.ladder.portals", i, || {
                span("portals.submit", || {
                    must(
                        o.aux
                            .put_op(o.ping_mds[v])
                            .target(t_id, PORTAL)
                            .bits(MatchBits::new(PING_BITS))
                            .submit(),
                        "ping put",
                    )
                });
                span("portals.wait", || {
                    wait_event(&o.aux, o.ping.eq, EventKind::Put)
                })
            });
            let rtt = t0.elapsed();
            (
                rtt.as_secs_f64() * 1e6,
                got && check.holds(&o.ping.landing, &inputs.ping[v]),
            )
        });
        stop.store(true, Ordering::Relaxed);
        samples
    })
}

/// Encode and decode cost of this workload's own DATA packet shape (a full
/// fragment; the in-process fabric leaves the body out of the CRC), and the
/// CRC-32C cost per KiB that a socket wire pays over every body.
fn wire_costs(w: &Workload) -> (f64, f64, f64) {
    let body = Gather::from_vec(vec![0x5a; w.transfer.min(FABRIC_MTU)]);
    let pkt = Packet::data(7, 3, 0, 0, 1, body);
    let encoded = pkt.encode_with(false);
    const ITERS: u32 = 2000;
    let per_call = |f: &mut dyn FnMut()| {
        let batches: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..ITERS {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / ITERS as f64
            })
            .collect();
        stats::median(&batches)
    };
    let encode = per_call(&mut || {
        black_box(black_box(&pkt).encode_with(false));
    });
    let decode = per_call(&mut || {
        black_box(Packet::decode_gather(black_box(&encoded)).expect("decodes"));
    });
    let buf = vec![0xa5u8; 64 * 1024];
    let crc = per_call(&mut || {
        black_box(portals_wire::checksum::crc32(black_box(&buf)));
    }) / 64.0;
    (encode, decode, crc)
}

/// What the spans pass over the seven phases recorded.
struct Spans {
    /// Median duration (µs) of each span name, keyed `phase/span`.
    medians: BTreeMap<String, f64>,
    /// Median self time (µs) of each span name, keyed `self_us.phase.span`.
    self_times: Vec<(String, f64)>,
    /// The traced MPI ping-pong round trips: the ladder's `mpi` level.
    pingpong_rtt: Vec<f64>,
}

impl Spans {
    fn median(&self, phase: &str, span: &str) -> f64 {
        self.medians
            .get(&format!("{phase}/{span}"))
            .copied()
            .unwrap_or(0.0)
    }
}

fn spans_pass(w: &Workload, world: &mut World, inputs: &Inputs, budget: Duration) -> Spans {
    let per = budget / PHASES.len() as u32;
    let mut out = Spans {
        medians: BTreeMap::new(),
        self_times: Vec::new(),
        pingpong_rtt: Vec::new(),
    };
    for name in PHASES {
        trace::reset_aggregates();
        let r = phases::run(name, world, inputs, Plan::For(per), w.transfer);
        for (span, us) in trace::self_time_medians() {
            out.self_times.push((format!("self_us.{name}.{span}"), us));
            let median = stats::median(&trace::durations(span));
            out.medians.insert(format!("{name}/{span}"), median);
        }
        if name == "pingpong" {
            out.pingpong_rtt = r.samples;
        }
    }
    out
}

/// The whole `--trace 1` run.
pub fn traced_run(w: &Workload, world: &mut World, inputs: &Inputs, budget: Duration) -> Report {
    let mut r = Report::default();

    // 1. Counter pass: fixed operation counts, allocations counted.
    trace::set_counting(true);
    let counted: Vec<PhaseResult> = PHASES
        .iter()
        .map(|p| {
            phases::run(
                p,
                world,
                inputs,
                Plan::Count(counted_ops(p, w.transfer)),
                w.transfer,
            )
        })
        .collect();
    trace::set_counting(false);
    let c = |phase: &str| counted.iter().find(|r| r.name == phase).expect("phase ran");

    // 2. Spans over every phase, then the ladder, all with spans on.
    trace::set_spans(true);
    let spans = spans_pass(w, world, inputs, budget.mul_f64(0.4));
    let rung = budget.mul_f64(0.12);
    let fabric = world.fabric();
    let net = net_level(
        fabric.attach(NodeId(10)),
        fabric.attach(NodeId(11)),
        inputs,
        rung,
    );
    let tr = transport_level(
        fabric.attach(NodeId(20)),
        fabric.attach(NodeId(21)),
        inputs,
        rung * 2,
        &world.obs,
    );
    let udp_obs = Obs::default();
    let (a, b) = (world::udp_link(30, &udp_obs), world::udp_link(31, &udp_obs));
    world::pair_udp(&a, &b);
    let udp_net = net_level(a, b, inputs, rung / 2);
    let (a, b) = (world::udp_link(40, &udp_obs), world::udp_link(41, &udp_obs));
    world::pair_udp(&a, &b);
    let udp_tr = transport_level(a, b, inputs, rung, &udp_obs);
    trace::reset_aggregates();
    let portals = portals_level(world, inputs, rung);
    let (p_submit, p_wait) = (
        stats::median(&trace::durations("portals.submit")),
        stats::median(&trace::durations("portals.wait")),
    );

    // 3. Tracing overhead: the MPI ping-pong with spans off and on,
    // alternating so drift hits both sides alike.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let slot = budget.mul_f64(0.2) / 8;
    for k in 0..8 {
        trace::set_spans(k % 2 == 1);
        let pp = phases::run("pingpong", world, inputs, Plan::For(slot), w.transfer);
        let p50 = stats::median(&pp.samples);
        if k % 2 == 1 { &mut on } else { &mut off }.push(p50);
    }
    trace::set_spans(false);
    let (wire_enc, wire_dec, wire_crc) = wire_costs(w);

    // Ladder metrics.
    let rtt = |v: &[f64]| stats::summarize(v);
    let (net_s, tr_s, po_s, mpi_s) = (
        rtt(&net),
        rtt(&tr.rtt),
        rtt(&portals),
        rtt(&spans.pingpong_rtt),
    );
    let ladder = [net_s.median, tr_s.median, po_s.median, mpi_s.median];
    if !ladder.windows(2).all(|p| p[0] <= p[1]) {
        eprintln!("note: ladder round trips do not rise from net to mpi: {ladder:?}");
    }
    r.measured("mpi.rtt_us", mpi_s.median, Some(mpi_s));
    r.measured("mpi.self_us", mpi_s.median - po_s.median, None);
    r.measured("mpi.send_us", spans.median("pingpong", "mpi.send"), None);
    r.measured("mpi.wait_us", spans.median("pingpong", "mpi.wait"), None);
    r.measured(
        "mpi.sendrecv_wait_us",
        spans.median("sendrecv", "mpi.send"),
        None,
    );
    let sr = c("sendrecv");
    r.exact(
        "mpi.portals_msgs_per_msg",
        ratio(sr.counter("portals.messages_sent"), sr.mpi_msgs),
    );
    let pp = c("pingpong");
    let pooled = pp.counter("mpi.regions_pooled");
    r.exact(
        "mpi.pool_hit_ratio",
        ratio(pooled, pooled + pp.counter("mpi.regions_allocated")),
    );
    r.measured(
        "mpi.osc.fetch_add_submit_us",
        spans.median("fetch_add", "mpi.osc.submit"),
        None,
    );
    r.measured(
        "mpi.osc.fetch_add_wait_us",
        spans.median("fetch_add", "mpi.osc.wait"),
        None,
    );
    r.measured(
        "mpi.osc.flush_us",
        spans.median("rput", "mpi.osc.flush"),
        None,
    );
    r.measured("portals.rtt_us", po_s.median, Some(po_s));
    r.measured("portals.self_us", po_s.median - tr_s.median, None);
    r.measured("portals.submit_us", p_submit, None);
    r.measured("portals.wait_us", p_wait, None);
    r.measured(
        "portals.put_wait_us",
        spans.median("put", "portals.wait"),
        None,
    );
    r.measured(
        "portals.get_wait_us",
        spans.median("get", "portals.wait"),
        None,
    );
    let put = c("put");
    r.exact(
        "portals.copies_per_msg",
        ratio(
            put.counter("portals.payload_copies"),
            put.counter("portals.payload_messages"),
        ),
    );
    r.measured("transport.rtt_us", tr_s.median, Some(tr_s));
    r.measured("transport.self_us", tr_s.median - net_s.median, None);
    r.measured(
        "transport.acks_per_msg",
        ratio(
            pp.counter("transport.acks_sent"),
            pp.counter("transport.messages_delivered"),
        ),
        None,
    );
    let tb = stats::summarize(&tr.bulk);
    r.measured("transport.mib_s", tb.median, Some(tb));
    r.exact(
        "transport.packets_per_msg",
        ratio(
            put.counter("transport.data_packets_sent"),
            put.counter("transport.messages_sent"),
        ),
    );
    let total = |name: &str| counted.iter().map(|p| p.counter(name)).sum::<u64>();
    r.exact(
        "transport.retransmissions",
        total("transport.retransmissions") as f64,
    );
    r.exact(
        "transport.credit_stalls",
        total("flow.credit_stalls") as f64,
    );
    r.measured("net.rtt_us", net_s.median, Some(net_s));
    r.measured(
        "net.datagrams_per_msg",
        ratio(
            put.counter("fabric.packets_sent"),
            put.counter("transport.messages_sent"),
        ),
        None,
    );
    let udp_rtt = stats::summarize(&udp_net);
    r.measured("netudp.rtt_us", udp_rtt.median, Some(udp_rtt));
    let ub = stats::summarize(&udp_tr.bulk);
    r.measured("netudp.transport_mib_s", ub.median, Some(ub));
    // Batching depends on timing, so none of the socket figures is exact.
    let udp = |name: &str| udp_tr.counter(name);
    r.measured(
        "netudp.datagrams_per_msg",
        ratio(
            udp("net.udp.datagrams_sent"),
            udp("transport.messages_sent"),
        ),
        None,
    );
    let udp_mib = (udp_tr.bulk.len() * w.transfer) as f64 / MIB;
    let per_mib = |n: u64| {
        if udp_mib > 0.0 {
            n as f64 / udp_mib
        } else {
            0.0
        }
    };
    r.measured(
        "netudp.send_syscalls_per_mib",
        per_mib(udp("net.udp.batches_sent")),
        None,
    );
    r.measured(
        "netudp.recv_syscalls_per_mib",
        per_mib(udp("net.udp.batches_recv")),
        None,
    );
    r.measured(
        "netudp.avg_send_batch",
        ratio(udp("net.udp.datagrams_sent"), udp("net.udp.batches_sent")),
        None,
    );
    r.measured(
        "netudp.avg_recv_batch",
        ratio(
            udp("net.udp.datagrams_received"),
            udp("net.udp.batches_recv"),
        ),
        None,
    );
    r.measured(
        "netudp.wouldblock_retries",
        udp("net.udp.wouldblock_retries") as f64,
        None,
    );
    r.measured("wire.encode_ns", wire_enc, None);
    r.measured("wire.decode_ns", wire_dec, None);
    r.measured("wire.crc_ns_per_kib", wire_crc, None);
    for p in &counted {
        let ops = p.ops.max(1) as f64;
        let (cpu, allocs) = process_names(p.name);
        r.measured(cpu, p.cpu_ns as f64 / 1e3 / ops, None);
        // Parks, wake-ups and queue growth allocate, and their number
        // depends on timing, so allocations per op are not exact either.
        r.measured(allocs, p.allocs as f64 / ops, None);
        r.fact(format!("counted_ops.{}", p.name), p.ops);
    }
    let (off_p50, on_p50) = (stats::median(&off), stats::median(&on));
    r.measured(
        "obs.trace_overhead_frac",
        (on_p50 - off_p50) / off_p50,
        None,
    );
    let cover = stats::summarize(&trace::cover_ratios());
    r.measured("obs.span_cover_frac", cover.median, Some(cover));
    if cover.median < 0.9 {
        eprintln!(
            "note: span self times cover {:.3} of traced op wall time",
            cover.median
        );
    }
    r.fact(
        "ladder_rtt_us.net_transport_portals_mpi",
        format!("{ladder:?}"),
    );
    for (k, v) in spans.self_times {
        r.fact(k, format!("{v:?}"));
    }
    r.fact(
        "untraced_vs_traced_pingpong_p50_us",
        format!("{off_p50:?} {on_p50:?}"),
    );
    r
}

fn process_names(phase: &str) -> (&'static str, &'static str) {
    match phase {
        "pingpong" => (
            "process.pingpong.cpu_us_per_op",
            "process.pingpong.allocs_per_op",
        ),
        "stream" => (
            "process.stream.cpu_us_per_op",
            "process.stream.allocs_per_op",
        ),
        "fetch_add" => (
            "process.fetch_add.cpu_us_per_op",
            "process.fetch_add.allocs_per_op",
        ),
        "put" => ("process.put.cpu_us_per_op", "process.put.allocs_per_op"),
        "get" => ("process.get.cpu_us_per_op", "process.get.allocs_per_op"),
        "sendrecv" => (
            "process.sendrecv.cpu_us_per_op",
            "process.sendrecv.allocs_per_op",
        ),
        "rput" => ("process.rput.cpu_us_per_op", "process.rput.allocs_per_op"),
        other => panic!("unknown phase {other}"),
    }
}

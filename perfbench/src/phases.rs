//! The seven closed-loop phases every workload runs.
//!
//! Rank 0 drives each phase from the calling thread and rank 1 serves it
//! from a scoped helper thread. A phase runs in batches: before each batch
//! the origin tells an echoing target how many operations follow (a count of
//! zero ends the phase), so a phase fills its time budget without either
//! side guessing. Targets of one-sided phases only wait for a done message;
//! their blocked wait is what drives their node's progress.
//!
//! Every received byte is checked by rank 0 after the operation's timer has
//! stopped (both ranks share this process, so rank 0 reads rank 1's memory
//! directly).

use crate::guard::{self, must, must_some, CALL_TIMEOUT};
use crate::payload::{Checker, Inputs};
use crate::trace::{self, op, span};
use crate::world::{Origin, Peek, Target, World, GET_BITS, PORTAL, PUT_BITS, STREAM_WINDOW};
use portals::{AckRequest, EqHandle, EventKind, NetworkInterface};
use portals_mpi::{AtomicDatatype, AtomicOp, Communicator, Completion, Request};
use portals_obs::Registry;
use portals_types::{MatchBits, ProcessId, Rank, Region};
use std::cell::Cell;
use std::time::{Duration, Instant};

const TAG_PINGPONG: u32 = 1;
const TAG_STREAM: u32 = 2;
const TAG_READY: u32 = 3;
const TAG_SENDRECV: u32 = 4;
const TAG_TOKEN: u32 = 5;
const TAG_BATCH: u32 = 6;
const TAG_DONE: u32 = 7;
const TAG_BATCH_READY: u32 = 8;

const MIB: f64 = 1024.0 * 1024.0;
/// Target wall time of one batch of an echo phase.
const BATCH_TIME: Duration = Duration::from_millis(50);

/// Phase names, in run order.
pub const PHASES: [&str; 7] = [
    "pingpong",
    "stream",
    "fetch_add",
    "put",
    "get",
    "sendrecv",
    "rput",
];

/// How long a phase runs after its warm-up.
#[derive(Clone, Copy)]
pub enum Plan {
    /// As many operations as fit.
    For(Duration),
    /// Exactly this many (counter passes, so counts repeat exactly).
    Count(u64),
}

/// Registry series read around every phase.
pub const COUNTERS: [&str; 17] = [
    "portals.payload_copies",
    "portals.payload_messages",
    "portals.messages_sent",
    "transport.messages_sent",
    "transport.messages_delivered",
    "transport.data_packets_sent",
    "transport.acks_sent",
    "transport.retransmissions",
    "flow.credit_stalls",
    "mpi.regions_pooled",
    "mpi.regions_allocated",
    "fabric.packets_sent",
    "net.udp.datagrams_sent",
    "net.udp.batches_sent",
    "net.udp.batches_recv",
    "net.udp.datagrams_received",
    "net.udp.wouldblock_retries",
];

/// What one phase measured.
pub struct PhaseResult {
    pub name: &'static str,
    /// One value per timed operation (or stream window): µs for latency
    /// phases, MiB/s or msg/s for throughput phases.
    pub samples: Vec<f64>,
    /// Timed operations (after warm-up).
    pub ops: u64,
    /// Messages the phase's measured operations moved at the MPI level.
    pub mpi_msgs: u64,
    /// Registry deltas over the timed operations, in [`COUNTERS`] order.
    pub counters: Vec<u64>,
    pub cpu_ns: u64,
    pub allocs: u64,
}

impl PhaseResult {
    /// Fold another run of the same phase into this one.
    pub fn absorb(&mut self, other: PhaseResult) {
        assert_eq!(self.name, other.name, "absorbing a different phase");
        self.samples.extend(other.samples);
        self.ops += other.ops;
        self.mpi_msgs += other.mpi_msgs;
        for (a, b) in self.counters.iter_mut().zip(other.counters) {
            *a += b;
        }
        self.cpu_ns += other.cpu_ns;
        self.allocs += other.allocs;
    }

    pub fn counter(&self, name: &str) -> u64 {
        COUNTERS
            .iter()
            .position(|c| *c == name)
            .map_or(0, |i| self.counters[i])
    }
}

pub fn snapshot(reg: &Registry) -> Vec<u64> {
    COUNTERS.iter().map(|c| reg.sum_counters(c)).collect()
}

/// Where an operation sits in its batch: protocols pre-post the next
/// operation's receive only when one follows in the same batch, so no
/// receive is left posted when a phase ends.
#[derive(Clone, Copy)]
pub struct Batch {
    pub last: bool,
}

impl Batch {
    fn at(k: u64, n: u64) -> Batch {
        Batch { last: k + 1 == n }
    }
}

/// Samples, timed operations, and the instruments read when timing began.
type Outcome = (Vec<f64>, u64, Snap);

/// Operation budget and bookkeeping on the origin side.
struct Driver {
    plan: Plan,
    warmup: u64,
    /// Operations issued so far (warm-up included); the op id.
    next: u64,
    samples: Vec<f64>,
    timed: u64,
    start: Option<Snap>,
}

struct Snap {
    counters: Vec<u64>,
    cpu: u64,
    allocs: u64,
}

impl Snap {
    fn take(reg: &Registry) -> Snap {
        Snap {
            counters: snapshot(reg),
            cpu: trace::process_cpu_ns(),
            allocs: trace::allocations(),
        }
    }
}

impl Driver {
    fn new(plan: Plan, warmup: u64) -> Driver {
        let cap = match plan {
            Plan::Count(n) => n as usize,
            Plan::For(_) => 4096,
        };
        Driver {
            plan,
            warmup,
            next: 0,
            samples: Vec::with_capacity(cap),
            timed: 0,
            start: None,
        }
    }

    /// Run the phase: warm-up, then batches until the plan is spent.
    /// `announce(n)` tells the target a batch of `n` follows (0 = end);
    /// `one(i, Batch)` runs operation `i` and returns (sample, elapsed,
    /// correct).
    fn run(
        mut self,
        reg: &Registry,
        mut announce: impl FnMut(u64),
        mut one: impl FnMut(u64, Batch) -> (f64, Duration, bool),
    ) -> Outcome {
        announce(self.warmup);
        let t_warm = Instant::now();
        for k in 0..self.warmup {
            let (_, elapsed, ok) = one(self.next, Batch::at(k, self.warmup));
            guard::record(elapsed, ok);
            self.next += 1;
        }
        let per_op = t_warm.elapsed().as_secs_f64() / self.warmup.max(1) as f64;
        self.start = Some(Snap::take(reg));
        let t0 = Instant::now();
        loop {
            let n = match self.plan {
                Plan::Count(n) => n - self.timed,
                Plan::For(budget) => {
                    let left = budget.saturating_sub(t0.elapsed());
                    if left.is_zero() {
                        0
                    } else {
                        let per = if self.timed > 0 {
                            t0.elapsed().as_secs_f64() / self.timed as f64
                        } else {
                            per_op
                        };
                        let want = BATCH_TIME.min(left).as_secs_f64() / per.max(1e-9);
                        (want as u64).clamp(1, 100_000)
                    }
                }
            };
            if n == 0 {
                break;
            }
            announce(n);
            for k in 0..n {
                let (sample, elapsed, ok) = one(self.next, Batch::at(k, n));
                guard::record(elapsed, ok);
                self.samples.push(sample);
                self.next += 1;
                self.timed += 1;
            }
        }
        announce(0);
        let start = self.start.take().expect("taken after warm-up");
        (self.samples, self.timed, start)
    }
}

fn wait_mpi(comm: &Communicator, req: Request, what: &str) -> Completion {
    must_some(comm.engine().wait_timeout(req, CALL_TIMEOUT), what)
}

fn send_u64(comm: &Communicator, tag: u32, v: u64) {
    let req = comm.isend(Rank(1 - comm.rank().0), tag, &v.to_le_bytes());
    wait_mpi(comm, req, "control send");
}

fn recv_u64(comm: &Communicator, tag: u32, timeout: Duration) -> u64 {
    let buf = Region::zeroed(8);
    let req = comm.irecv(Some(Rank(1 - comm.rank().0)), Some(tag), buf.clone());
    must_some(comm.engine().wait_timeout(req, timeout), "control receive");
    u64::from_le_bytes(buf.read_vec(0, 8).try_into().expect("8 bytes"))
}

/// The origin's side of a batch announcement: tell the target `n`
/// operations follow, then wait until it has posted the first receive, so
/// every timed message meets a posted receive.
fn announce(comm: &Communicator, n: u64) {
    send_u64(comm, TAG_BATCH, n);
    if n > 0 {
        recv_u64(comm, TAG_BATCH_READY, CALL_TIMEOUT);
    }
}

/// What the target does next in an echo phase.
enum Step {
    /// Post the receive for operation `i`, the first of a batch.
    Post,
    /// Serve operation `i`.
    Run(Batch),
}

/// Serve batches announced by the origin until it announces zero.
fn serve(comm: &Communicator, mut step: impl FnMut(u64, Step)) {
    let mut i = 0;
    loop {
        let n = recv_u64(comm, TAG_BATCH, CALL_TIMEOUT);
        if n == 0 {
            return;
        }
        step(i, Step::Post);
        send_u64(comm, TAG_BATCH_READY, n);
        for k in 0..n {
            step(i, Step::Run(Batch::at(k, n)));
            i += 1;
        }
    }
}

/// A one-sided phase's target: block (driving progress) until done.
fn idle(comm: &Communicator, budget: Duration) {
    recv_u64(comm, TAG_DONE, budget + CALL_TIMEOUT);
}

/// Wait for an event of `kind` on `eq`, skipping others (Sent precedes Ack).
pub fn wait_event(ni: &NetworkInterface, eq: EqHandle, kind: EventKind) -> bool {
    loop {
        let ev = must(ni.eq_poll(eq, CALL_TIMEOUT), "event wait");
        if ev.kind == kind {
            return ev.mlength > 0;
        }
    }
}

/// Run one phase by name.
pub fn run(
    name: &str,
    world: &mut World,
    inputs: &Inputs,
    plan: Plan,
    transfer: usize,
) -> PhaseResult {
    guard::progress();
    let World {
        origin,
        target,
        peek,
        obs,
        ..
    } = world;
    let reg = &obs.registry;
    let budget = match plan {
        Plan::For(d) => d,
        Plan::Count(_) => Duration::ZERO,
    };
    let (name, (samples, ops, start), mpi_per_op) = std::thread::scope(|s| match name {
        "pingpong" => {
            s.spawn(|| serve_pingpong(target));
            ("pingpong", pingpong(origin, inputs, reg, plan), 2)
        }
        "stream" => {
            s.spawn(|| serve_stream(target));
            let r = stream(origin, peek, inputs, reg, plan);
            ("stream", r, STREAM_WINDOW as u64 + 1)
        }
        "fetch_add" => {
            s.spawn(|| idle(&target.comm, budget));
            ("fetch_add", fetch_add(origin, peek, reg, plan), 0)
        }
        "put" => {
            s.spawn(|| idle(&target.comm, budget));
            let r = put(origin, peek, inputs, reg, plan, transfer, target.aux.id());
            ("put", r, 0)
        }
        "get" => {
            s.spawn(|| idle(&target.comm, budget));
            let r = get(origin, inputs, reg, plan, transfer, target.aux.id());
            ("get", r, 0)
        }
        "sendrecv" => {
            s.spawn(|| serve_sendrecv(target));
            ("sendrecv", sendrecv(origin, peek, inputs, reg, plan), 2)
        }
        "rput" => {
            s.spawn(|| idle(&target.comm, budget));
            ("rput", rput(origin, peek, inputs, reg, plan), 0)
        }
        other => panic!("unknown phase {other}"),
    });
    // Read after the target has returned, so the phase's last messages
    // are counted on both sides.
    let end = Snap::take(reg);
    PhaseResult {
        name,
        samples,
        ops,
        mpi_msgs: ops * mpi_per_op,
        counters: end
            .counters
            .iter()
            .zip(&start.counters)
            .map(|(e, s)| e - s)
            .collect(),
        cpu_ns: end.cpu - start.cpu,
        allocs: end.allocs - start.allocs,
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// 8-byte MPI ping-pong. The reply's receive is posted before the ping is
/// sent, so every message meets a posted receive.
fn pingpong(o: &mut Origin, inputs: &Inputs, reg: &Registry, plan: Plan) -> Outcome {
    let comm = &o.comm;
    let landing = Region::zeroed(8);
    let mut check = Checker::new(8);
    Driver::new(plan, 50).run(
        reg,
        |n| announce(comm, n),
        |i, _| {
            let ping = &inputs.ping[(i % inputs.ping.len() as u64) as usize];
            let t0 = Instant::now();
            op("op.pingpong", i, || {
                let reply = comm.irecv(Some(Rank(1)), Some(TAG_PINGPONG), landing.clone());
                span("mpi.send", || {
                    let req = comm.isend(Rank(1), TAG_PINGPONG, ping);
                    wait_mpi(comm, req, "ping send");
                });
                span("mpi.wait", || wait_mpi(comm, reply, "pong receive"));
            });
            let elapsed = t0.elapsed();
            (us(elapsed), elapsed, check.holds(&landing, ping))
        },
    )
}

fn serve_pingpong(t: &mut Target) {
    let comm = &t.comm;
    let buf = Region::zeroed(8);
    let post = || comm.irecv(Some(Rank(0)), Some(TAG_PINGPONG), buf.clone());
    let mut pending: Option<Request> = None;
    serve(comm, |_, step| match step {
        Step::Post => pending = Some(post()),
        Step::Run(at) => {
            let req = pending.take().expect("posted before the ping");
            wait_mpi(comm, req, "ping receive");
            let ping = buf.read_vec(0, 8);
            if !at.last {
                pending = Some(post());
            }
            let req = comm.isend(Rank(0), TAG_PINGPONG, &ping);
            wait_mpi(comm, req, "pong send");
        }
    });
}

/// 64-byte isend stream: per window the target pre-posts 32 receives and
/// sends a ready token; the origin times token wait + 32 sends to
/// completion, and reports messages per second.
fn stream(o: &mut Origin, peek: &Peek, inputs: &Inputs, reg: &Registry, plan: Plan) -> Outcome {
    let comm = &o.comm;
    let token = Region::zeroed(1);
    let mut check = Checker::new(64);
    // The ready token's receive is posted before each window's token can be
    // sent: before announcing a batch, then after each window but the last.
    let post_ready = || comm.irecv(Some(Rank(1)), Some(TAG_READY), token.clone());
    let ready: Cell<Option<Request>> = Cell::new(None);
    let mut sends = Vec::with_capacity(STREAM_WINDOW);
    Driver::new(plan, 2).run(
        reg,
        |n| {
            if n > 0 {
                ready.set(Some(post_ready()));
            }
            announce(comm, n)
        },
        |i, at| {
            let base = (i as usize % (inputs.stream.len() / STREAM_WINDOW)) * STREAM_WINDOW;
            let msgs = &inputs.stream[base..base + STREAM_WINDOW];
            let t0 = Instant::now();
            op("op.stream", i, || {
                let req = ready.take().expect("posted before the token");
                span("mpi.wait_ready", || wait_mpi(comm, req, "ready token"));
                span("mpi.isend", || {
                    sends.extend(msgs.iter().map(|m| comm.isend(Rank(1), TAG_STREAM, m)));
                });
                span("mpi.wait_all", || {
                    for req in sends.drain(..) {
                        wait_mpi(comm, req, "stream send");
                    }
                });
            });
            let elapsed = t0.elapsed();
            if !at.last {
                ready.set(Some(post_ready()));
            }
            let ok = msgs
                .iter()
                .zip(&peek.stream_bufs)
                .all(|(m, buf)| check.holds(buf, m));
            let rate = STREAM_WINDOW as f64 / elapsed.as_secs_f64();
            (rate, elapsed, ok)
        },
    )
}

fn serve_stream(t: &mut Target) {
    let comm = &t.comm;
    let mut recvs = Vec::with_capacity(STREAM_WINDOW);
    serve(comm, |_, step| {
        if let Step::Run(_) = step {
            recvs.extend(
                t.stream_bufs
                    .iter()
                    .map(|b| comm.irecv(Some(Rank(0)), Some(TAG_STREAM), b.clone())),
            );
            let req = comm.isend(Rank(0), TAG_READY, &[1]);
            wait_mpi(comm, req, "ready send");
            for req in recvs.drain(..) {
                wait_mpi(comm, req, "stream receive");
            }
        }
    });
}

/// `Window::rfetch_and_op(Sum, u64)` + `wait` on rank 1's counter. Each
/// fetched value must equal the number of adds before it, and the final
/// counter the number issued.
fn fetch_add(o: &mut Origin, peek: &Peek, reg: &Registry, plan: Plan) -> Outcome {
    let win = &mut o.counter_win;
    let issued0 = counter_value(&peek.counter);
    let mut issued = issued0;
    let out = Driver::new(plan, 50).run(
        reg,
        |_| {},
        |i, _| {
            let t0 = Instant::now();
            let fetched = op("op.fetch_add", i, || {
                let req = span("mpi.osc.submit", || {
                    must(
                        win.rfetch_and_op(
                            Rank(1),
                            0,
                            AtomicOp::Sum,
                            AtomicDatatype::U64,
                            1u64.to_le_bytes(),
                        ),
                        "fetch-add submit",
                    )
                });
                span("mpi.osc.wait", || must(win.wait(req), "fetch-add wait"))
            });
            let elapsed = t0.elapsed();
            let ok = fetched.is_some_and(|v| v[..] == issued.to_le_bytes());
            issued += 1;
            (us(elapsed), elapsed, ok)
        },
    );
    if counter_value(&peek.counter) != issued {
        guard::record_wrong("final fetch-add counter differs from the adds issued");
    }
    send_u64(&o.comm, TAG_DONE, issued - issued0);
    out
}

fn counter_value(region: &Region) -> u64 {
    u64::from_le_bytes(region.read_vec(0, 8).try_into().expect("8 bytes"))
}

/// Acked Portals put of one transfer into rank 1's matched region; MiB/s
/// per transfer.
fn put(
    o: &mut Origin,
    peek: &Peek,
    inputs: &Inputs,
    reg: &Registry,
    plan: Plan,
    transfer: usize,
    target: ProcessId,
) -> Outcome {
    let (ni, eq) = (&o.aux, o.eq);
    let mut check = Checker::new(transfer);
    let out = Driver::new(plan, 2).run(
        reg,
        |_| {},
        |i, _| {
            let v = Inputs::variant(i);
            let t0 = Instant::now();
            let acked = op("op.put", i, || {
                span("portals.submit", || {
                    must(
                        ni.put_op(o.put_mds[v])
                            .target(target, PORTAL)
                            .bits(MatchBits::new(PUT_BITS))
                            .ack(AckRequest::Ack)
                            .submit(),
                        "put submit",
                    )
                });
                span("portals.wait", || wait_event(ni, eq, EventKind::Ack))
            });
            let elapsed = t0.elapsed();
            let ok = acked && check.holds(&peek.put_target, &inputs.bulk_bytes[v]);
            (mib_s(transfer, elapsed), elapsed, ok)
        },
    );
    send_u64(&o.comm, TAG_DONE, 0);
    out
}

fn mib_s(bytes: usize, elapsed: Duration) -> f64 {
    bytes as f64 / MIB / elapsed.as_secs_f64()
}

/// Portals get of one transfer from rank 1 (one source per payload
/// variant); MiB/s per transfer.
fn get(
    o: &mut Origin,
    inputs: &Inputs,
    reg: &Registry,
    plan: Plan,
    transfer: usize,
    target: ProcessId,
) -> Outcome {
    let (ni, eq) = (&o.aux, o.eq);
    let mut check = Checker::new(transfer);
    let out = Driver::new(plan, 2).run(
        reg,
        |_| {},
        |i, _| {
            let v = Inputs::variant(i);
            let t0 = Instant::now();
            let replied = op("op.get", i, || {
                span("portals.submit", || {
                    must(
                        ni.get_op(o.get_md)
                            .target(target, PORTAL)
                            .bits(MatchBits::new(GET_BITS + v as u64))
                            .length(transfer as u64)
                            .submit(),
                        "get submit",
                    )
                });
                span("portals.wait", || wait_event(ni, eq, EventKind::Reply))
            });
            let elapsed = t0.elapsed();
            let ok = replied && check.holds(&o.get_landing, &inputs.bulk_bytes[v]);
            (mib_s(transfer, elapsed), elapsed, ok)
        },
    );
    send_u64(&o.comm, TAG_DONE, 0);
    out
}

/// MPI `isend_region` of one transfer + a 1-byte token back; MiB/s per
/// transfer. The token's receive is posted before the send.
fn sendrecv(o: &mut Origin, peek: &Peek, inputs: &Inputs, reg: &Registry, plan: Plan) -> Outcome {
    let comm = &o.comm;
    let token = Region::zeroed(1);
    let transfer = inputs.bulk_bytes[0].len();
    let mut check = Checker::new(transfer);
    Driver::new(plan, 2).run(
        reg,
        |n| announce(comm, n),
        |i, _| {
            let v = Inputs::variant(i);
            let t0 = Instant::now();
            op("op.sendrecv", i, || {
                let tok = comm.irecv(Some(Rank(1)), Some(TAG_TOKEN), token.clone());
                span("mpi.send", || {
                    let req = comm.isend_region(Rank(1), TAG_SENDRECV, inputs.bulk[v].clone());
                    wait_mpi(comm, req, "bulk send")
                });
                span("mpi.wait", || wait_mpi(comm, tok, "token receive"));
            });
            let elapsed = t0.elapsed();
            let landed = &peek.sendrecv_bufs[(i % 2) as usize];
            let ok = check.holds(landed, &inputs.bulk_bytes[v]);
            (mib_s(transfer, elapsed), elapsed, ok)
        },
    )
}

/// The bulk receive alternates two buffers and posts the next receive
/// before sending the token, so each transfer meets a posted receive and
/// rank 0 can still check the previous buffer.
fn serve_sendrecv(t: &mut Target) {
    let comm = &t.comm;
    let post = |i: u64| {
        let buf = t.sendrecv_bufs[(i % 2) as usize].clone();
        comm.irecv(Some(Rank(0)), Some(TAG_SENDRECV), buf)
    };
    let mut pending: Option<Request> = None;
    serve(comm, |i, step| match step {
        Step::Post => pending = Some(post(i)),
        Step::Run(at) => {
            let req = pending.take().expect("posted before the transfer");
            wait_mpi(comm, req, "bulk receive");
            if !at.last {
                pending = Some(post(i + 1));
            }
            let req = comm.isend(Rank(0), TAG_TOKEN, &[1]);
            wait_mpi(comm, req, "token send");
        }
    });
}

/// `Window` put of one transfer + `flush_all`; MiB/s per transfer.
fn rput(o: &mut Origin, peek: &Peek, inputs: &Inputs, reg: &Registry, plan: Plan) -> Outcome {
    let win = &mut o.bulk_win;
    let transfer = inputs.bulk_bytes[0].len();
    let mut check = Checker::new(transfer);
    let out = Driver::new(plan, 2).run(
        reg,
        |_| {},
        |i, _| {
            let v = Inputs::variant(i);
            let t0 = Instant::now();
            op("op.rput", i, || {
                let _req = span("mpi.osc.rput", || {
                    must(win.rput(Rank(1), 0, &inputs.bulk_bytes[v]), "rput")
                });
                span("mpi.osc.flush", || must(win.flush_all(), "flush_all"));
            });
            let elapsed = t0.elapsed();
            let ok = check.holds(&peek.bulk, &inputs.bulk_bytes[v]);
            (mib_s(transfer, elapsed), elapsed, ok)
        },
    );
    send_u64(&o.comm, TAG_DONE, 0);
    out
}

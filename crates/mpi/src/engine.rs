//! The MPI progress engine.
//!
//! One engine exists per process. It owns a Portals [`NetworkInterface`], one
//! event queue for all MPI traffic, and the per-process matching state:
//! posted receives (in posting order), unexpected arrivals and rendezvous
//! announcements (in wire-arrival order, totally ordered by a stamp so the
//! MPI non-overtaking rule holds even when the two protocols mix).
//!
//! Portal assignments:
//!
//! | portal | use |
//! |---|---|
//! | 0 (`PT_MSG`) | eager message data: posted receives + overflow slabs |
//! | 1 (`PT_CTRL`) | rendezvous request-to-send records |
//! | 2 (`PT_RDVZ`) | exposed send buffers awaiting the receiver's get |
//!
//! In [`Protocol::EagerDirect`] posted receives are *hardware* match entries:
//! the Portals receive engine steers data into user buffers with no MPI
//! involvement (application bypass). In [`Protocol::Rendezvous`] no hardware
//! entries exist: everything funnels through the slabs and is matched here,
//! inside MPI calls — the GM-style baseline.

use crate::bits::{self, Tag};
use crate::config::{MpiConfig, Protocol};
use crate::request::{Completion, ReqKind, Request, Status};
use parking_lot::Mutex;
use portals::{
    AckRequest, EqHandle, EventKind, MdHandle, MdOptions, MdSpec, MeHandle, MePos,
    NetworkInterface, PoolClassStats, PoolSet, Region, Threshold,
};
use portals_obs::{Counter, Layer, Stage, TraceEvent};
use portals_types::{MatchBits, MatchCriteria, ProcessId, PtlError, PtlResult, Rank};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const PT_MSG: u32 = 0;
const PT_CTRL: u32 = 1;
const PT_RDVZ: u32 = 2;
/// ACL cookie: entry 0 = same parallel application (§4.5).
const COOKIE: u32 = 0;
/// Size of one rendezvous RTS record on the wire.
const RTS_SIZE: usize = 16;
/// Control slab capacity (RTS records).
const CTRL_SLAB_RECORDS: usize = 4096;
/// Match-bit flag distinguishing the *final* sub-get of a pipelined
/// rendezvous pull from the bulk ones: the sender exposes two entries per
/// announcement (serial, serial | FINAL_BIT) and completes the send when the
/// final one is hit. Serials are sequential and never reach this bit.
const FINAL_BIT: u64 = 1 << 63;
/// Adaptive-protocol EWMA smoothing factor.
const EWMA_ALPHA: f64 = 0.25;
/// In the adaptive band, try the out-of-favor protocol once every this many
/// decisions so a stale EWMA can recover.
const EXPLORE_EVERY: u64 = 16;

/// A posted-but-unmatched receive.
struct PostedRecv {
    id: u64,
    criteria: MatchCriteria,
    buf: Region,
    cap: usize,
    /// `Some` when a hardware match entry backs this receive (EagerDirect).
    hw: Option<(MeHandle, MdHandle)>,
}

/// An eager message sitting in an overflow slab.
struct Arrival {
    stamp: u64,
    bits: MatchBits,
    buf: Region,
    offset: usize,
    mlength: usize,
    rlength: usize,
}

/// An in-flight put tracked for completion and, under flow control, re-issue
/// when the target nacks it (its portal was flow-disabled).
struct SendInfo {
    /// The user request this put completes, or `None` for an RTS record —
    /// its ack only confirms the announcement is buffered at the target.
    id: Option<u64>,
    dest: ProcessId,
    match_bits: MatchBits,
    portal: u32,
    /// The pooled slab backing this send, returned to the pool once the
    /// operation's final completion (ack or get) arrives. `None` for
    /// caller-owned and oversize buffers.
    pooled: Option<Region>,
    /// Message length, reported as the requested length on rendezvous
    /// completion (the final sub-get's own rlength covers only its chunk).
    total_len: u64,
    /// Submission time, for the adaptive protocol's cost EWMA.
    started: Instant,
    /// Which protocol arm this send took (feeds the matching EWMA).
    rendezvous: bool,
    /// For a rendezvous send keyed by its final-entry MD: the bulk entry
    /// torn down when the final sub-get lands.
    bulk: Option<(MdHandle, MeHandle)>,
}

/// A rendezvous announcement waiting for its receive.
struct RtsRecord {
    stamp: u64,
    bits: MatchBits,
    sender: ProcessId,
    serial: u64,
    total_len: u64,
}

/// An outstanding rendezvous pull: the receiver-side window of pipelined
/// sub-gets draining one announcement into the user buffer.
struct PullState {
    src: u16,
    tag: Tag,
    total_len: u64,
    cap: usize,
    /// Bytes actually pulled: `min(total_len, cap)` (§4.8 truncation,
    /// decided at match time from the announced length).
    pull_len: u64,
    /// Next chunk offset to issue.
    next_off: u64,
    /// The final sub-get has been issued (it is always issued last, so the
    /// per-pair FIFO delivers it to the sender after every bulk one).
    issued_final: bool,
    /// Outstanding sub-gets, bounded by [`MpiConfig::rdvz_window`].
    in_flight: usize,
    /// Bytes landed in the user buffer so far.
    received: u64,
    user: Region,
    sender: ProcessId,
    serial: u64,
}

/// One outstanding sub-get of a pull, keyed by its bound MD.
struct ChunkInfo {
    /// The receive request this chunk belongs to (key into `EngState::pulls`).
    pull_id: u64,
    /// Absolute offset of this chunk in the message payload.
    off: u64,
    /// Pooled bounce buffer the reply lands in before the copy to the user
    /// buffer at `off`. `None` when the chunk MD binds the user buffer
    /// directly (offset-zero chunks — replies land at an MD's region start).
    bounce: Option<Region>,
}

struct EngState {
    next_req: u64,
    next_serial: u64,
    next_stamp: u64,
    sends: HashMap<MdHandle, SendInfo>,
    send_done: HashMap<u64, (u64, u64)>,
    recvs: Vec<PostedRecv>,
    recv_done: HashMap<u64, Status>,
    pulls: HashMap<u64, PullState>,
    chunk_mds: HashMap<MdHandle, ChunkInfo>,
    /// Bytes pulled so far through each rendezvous send's bulk entry,
    /// keyed by the bulk MD; folded into the final sub-get's completion.
    bulk_pulled: HashMap<MdHandle, u64>,
    unexpected: VecDeque<Arrival>,
    rts_waiting: VecDeque<RtsRecord>,
    slab_me: MeHandle,
    slab_mds: HashMap<MdHandle, Region>,
    ctrl_me: MeHandle,
    ctrl_mds: HashMap<MdHandle, Region>,
}

/// Adaptive-protocol selector state (see [`Protocol::Adaptive`]).
struct AdaptiveState {
    /// EWMA of completion cost per arm, ns per byte; zero = no sample yet.
    eager_ns_per_byte: f64,
    rdvz_ns_per_byte: f64,
    eager_decisions: u64,
    rdvz_decisions: u64,
    explorations: u64,
    in_band: u64,
}

/// Snapshot of the adaptive selector, for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveReport {
    /// Measured eager cost, ns per byte (EWMA; zero = never sampled).
    pub eager_ns_per_byte: f64,
    /// Measured rendezvous cost, ns per byte (EWMA; zero = never sampled).
    pub rdvz_ns_per_byte: f64,
    /// In-band sends that chose eager.
    pub eager_decisions: u64,
    /// In-band sends that chose rendezvous.
    pub rdvz_decisions: u64,
    /// Decisions overridden to re-sample the out-of-favor arm.
    pub explorations: u64,
}

/// The per-process MPI engine (see module docs).
pub struct MpiEngine {
    ni: NetworkInterface,
    eq: EqHandle,
    config: MpiConfig,
    state: Mutex<EngState>,
    /// Size-classed slab pools: small eager sends and RTS records in one
    /// class, rendezvous pull bounce chunks in another (the malloc/free
    /// pairs the data paths used to pay per message).
    pools: PoolSet,
    /// `mpi.regions_pooled`: takes served from a recycled slab (any class).
    regions_pooled: Counter,
    /// `mpi.regions_allocated`: pool-eligible takes that fell back to a
    /// fresh allocation (cold pool or quarantined slabs).
    regions_allocated: Counter,
    /// Adaptive-protocol selector (unused under the fixed protocols).
    adaptive: Mutex<AdaptiveState>,
    /// High-water mark of concurrently outstanding rendezvous sub-gets.
    window_hwm: AtomicU64,
}

impl MpiEngine {
    /// One MPI-layer lifecycle trace event (no-op when tracing is disabled).
    fn trace(&self, stage: Stage, bytes: u64, detail: &'static str) {
        self.ni.obs().tracer.emit(|| {
            TraceEvent::new(Layer::Mpi, stage)
                .node(self.ni.id().nid.0)
                .bytes(bytes)
                .detail(detail)
        });
    }

    /// Build an engine on a network interface, setting up the message portal,
    /// overflow slabs and control portal.
    pub fn new(ni: NetworkInterface, config: MpiConfig) -> PtlResult<MpiEngine> {
        let eq = ni.eq_alloc(config.eq_capacity)?;
        // Opt the two put-target portals into flow control: when slabs run
        // out, senders are nacked and this engine gets a FlowCtrl event to
        // re-post and resume, instead of messages silently dropping.
        if ni.flow_control() {
            ni.pt_flow_ctrl(PT_MSG, Some(eq))?;
            ni.pt_flow_ctrl(PT_CTRL, Some(eq))?;
        }
        let slab_me = ni.me_attach(
            PT_MSG,
            ProcessId::ANY,
            MatchCriteria::any(),
            false,
            MePos::Back,
        )?;
        let ctrl_me = ni.me_attach(
            PT_CTRL,
            ProcessId::ANY,
            MatchCriteria::any(),
            false,
            MePos::Back,
        )?;
        let labels = [("node", ni.id().nid.0.to_string())];
        let regions_pooled = ni.obs().registry.counter("mpi.regions_pooled", &labels);
        let regions_allocated = ni.obs().registry.counter("mpi.regions_allocated", &labels);
        let engine = MpiEngine {
            pools: PoolSet::new(&[
                (config.pool_slab, config.pool_free),
                (config.rdvz_chunk, config.rdvz_window * 2),
            ]),
            regions_pooled,
            regions_allocated,
            adaptive: Mutex::new(AdaptiveState {
                eager_ns_per_byte: 0.0,
                rdvz_ns_per_byte: 0.0,
                eager_decisions: 0,
                rdvz_decisions: 0,
                explorations: 0,
                in_band: 0,
            }),
            window_hwm: AtomicU64::new(0),
            ni,
            eq,
            config,
            state: Mutex::new(EngState {
                next_req: 0,
                next_serial: 0,
                next_stamp: 0,
                sends: HashMap::new(),
                send_done: HashMap::new(),
                recvs: Vec::new(),
                recv_done: HashMap::new(),
                pulls: HashMap::new(),
                chunk_mds: HashMap::new(),
                bulk_pulled: HashMap::new(),
                unexpected: VecDeque::new(),
                rts_waiting: VecDeque::new(),
                slab_me,
                slab_mds: HashMap::new(),
                ctrl_me,
                ctrl_mds: HashMap::new(),
            }),
        };
        {
            let mut st = engine.state.lock();
            for _ in 0..config.slab_count {
                engine.attach_slab(&mut st)?;
            }
            engine.attach_ctrl_slab(&mut st)?;
        }
        Ok(engine)
    }

    /// The underlying interface (for counters and diagnostics).
    pub fn ni(&self) -> &NetworkInterface {
        &self.ni
    }

    /// The engine configuration.
    pub fn config(&self) -> &MpiConfig {
        &self.config
    }

    fn attach_slab(&self, st: &mut EngState) -> PtlResult<()> {
        let buf = Region::zeroed(self.config.slab_size);
        let md = self.ni.md_attach(
            st.slab_me,
            MdSpec::new(buf.clone())
                .with_eq(self.eq)
                .with_options(MdOptions {
                    op_put: true,
                    op_get: false,
                    truncate: true,
                    manage_local_offset: true,
                    unlink_on_exhaustion: false,
                    min_free: self.config.slab_min_free,
                }),
        )?;
        st.slab_mds.insert(md, buf);
        Ok(())
    }

    fn attach_ctrl_slab(&self, st: &mut EngState) -> PtlResult<()> {
        let buf = Region::zeroed(RTS_SIZE * CTRL_SLAB_RECORDS);
        let md = self.ni.md_attach(
            st.ctrl_me,
            MdSpec::new(buf.clone())
                .with_eq(self.eq)
                .with_options(MdOptions {
                    op_put: true,
                    op_get: false,
                    truncate: true,
                    manage_local_offset: true,
                    unlink_on_exhaustion: false,
                    min_free: RTS_SIZE,
                }),
        )?;
        st.ctrl_mds.insert(md, buf);
        Ok(())
    }

    // ----- sending -----------------------------------------------------------

    /// Nonblocking send of `data` to `dest` with the given context/rank/tag
    /// triple. The data is snapshotted (the caller's slice need not outlive
    /// the request) — the one API-boundary copy. Small eager sends snapshot
    /// into a pooled slab recycled on completion; larger ones allocate. Use
    /// [`MpiEngine::isend_region`] to send a caller-owned region with no copy.
    pub fn isend(
        &self,
        context: bits::Context,
        my_rank: u16,
        dest: ProcessId,
        tag: Tag,
        data: &[u8],
    ) -> PtlResult<Request> {
        let rendezvous = self.choose_rendezvous(data.len());
        if !rendezvous && data.len() <= self.config.pool_slab && self.config.pool_slab > 0 {
            let slab = self.take_pooled(self.config.pool_slab);
            if !data.is_empty() {
                slab.write(0, data);
            }
            return self.isend_inner(context, my_rank, dest, tag, slab, data.len(), true, false);
        }
        let len = data.len();
        self.isend_inner(
            context,
            my_rank,
            dest,
            tag,
            Region::copy_from_slice(data),
            len,
            false,
            rendezvous,
        )
    }

    /// Nonblocking send of a caller-owned region. Zero-copy: the MD is bound
    /// directly over `data`, so the bytes travel from this region to the
    /// target without an intermediate snapshot. The caller must not mutate
    /// the region until the request completes.
    pub fn isend_region(
        &self,
        context: bits::Context,
        my_rank: u16,
        dest: ProcessId,
        tag: Tag,
        data: Region,
    ) -> PtlResult<Request> {
        let len = data.len();
        let rendezvous = self.choose_rendezvous(len);
        self.isend_inner(context, my_rank, dest, tag, data, len, false, rendezvous)
    }

    /// A pooled region of at least `len` bytes, with the hit/miss mirrored
    /// into the obs counters. Falls back to an exact allocation when no pool
    /// class fits.
    fn take_pooled(&self, len: usize) -> Region {
        match self.pools.take_tracked(len) {
            Some((slab, true)) => {
                self.regions_pooled.inc();
                slab
            }
            Some((slab, false)) => {
                self.regions_allocated.inc();
                slab
            }
            None => {
                self.regions_allocated.inc();
                Region::zeroed(len)
            }
        }
    }

    /// Pick the protocol arm for a `len`-byte send.
    fn choose_rendezvous(&self, len: usize) -> bool {
        match self.config.protocol {
            Protocol::EagerDirect => false,
            Protocol::Rendezvous { eager_limit } => len >= eager_limit,
            Protocol::Adaptive {
                min_eager,
                max_eager,
            } => {
                if len < min_eager {
                    return false;
                }
                if len >= max_eager {
                    return true;
                }
                let mut a = self.adaptive.lock();
                a.in_band += 1;
                // Favor the measured-cheaper arm; before both arms have a
                // sample, pick the unsampled one so the comparison exists.
                let favored = if a.eager_ns_per_byte == 0.0 {
                    false
                } else if a.rdvz_ns_per_byte == 0.0 {
                    true
                } else {
                    a.rdvz_ns_per_byte < a.eager_ns_per_byte
                };
                let both_sampled = a.eager_ns_per_byte > 0.0 && a.rdvz_ns_per_byte > 0.0;
                let pick = if both_sampled && a.in_band % EXPLORE_EVERY == 0 {
                    a.explorations += 1;
                    !favored
                } else {
                    favored
                };
                if pick {
                    a.rdvz_decisions += 1;
                } else {
                    a.eager_decisions += 1;
                }
                pick
            }
        }
    }

    /// Fold a completed send's measured cost into its arm's EWMA (adaptive
    /// protocol only).
    fn note_send_cost(&self, rendezvous: bool, len: u64, started: Instant) {
        if !matches!(self.config.protocol, Protocol::Adaptive { .. }) {
            return;
        }
        let per_byte = started.elapsed().as_nanos() as f64 / len.max(1) as f64;
        let mut a = self.adaptive.lock();
        let slot = if rendezvous {
            &mut a.rdvz_ns_per_byte
        } else {
            &mut a.eager_ns_per_byte
        };
        *slot = if *slot == 0.0 {
            per_byte
        } else {
            *slot + EWMA_ALPHA * (per_byte - *slot)
        };
    }

    /// The shared isend body. `len` is the message length — `data` may be a
    /// pooled slab longer than the message, so the MD is bound `len`-long
    /// over its front. `pooled` marks the region for recycling when the
    /// send's final completion arrives.
    #[allow(clippy::too_many_arguments)]
    fn isend_inner(
        &self,
        context: bits::Context,
        my_rank: u16,
        dest: ProcessId,
        tag: Tag,
        data: Region,
        len: usize,
        pooled: bool,
        rendezvous: bool,
    ) -> PtlResult<Request> {
        let match_bits = bits::encode(context, my_rank, tag);
        let started = Instant::now();
        let mut st = self.state.lock();
        let id = st.next_req;
        st.next_req += 1;

        self.trace(
            Stage::Submit,
            len as u64,
            if rendezvous { "rendezvous" } else { "eager" },
        );

        if rendezvous {
            // Expose the payload for the receiver's pipelined pull, then
            // announce it. Two match entries over the same region: the bulk
            // entry serves every non-final sub-get (unbounded threshold),
            // the final entry serves exactly the last one and its event
            // completes the send. The receiver issues the final sub-get
            // last, and the per-pair FIFO keeps it last on this side.
            let serial = st.next_serial;
            st.next_serial += 1;
            debug_assert_eq!(serial & FINAL_BIT, 0, "serial overflow into FINAL_BIT");
            let bulk_me = self.ni.me_attach(
                PT_RDVZ,
                ProcessId::ANY,
                MatchCriteria::exact(MatchBits::new(serial)),
                true,
                MePos::Back,
            )?;
            let bulk_md = self.ni.md_attach(
                bulk_me,
                MdSpec::new(data.clone())
                    .with_length(len)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Infinite)
                    .with_options(MdOptions {
                        op_put: false,
                        op_get: true,
                        truncate: true,
                        unlink_on_exhaustion: false,
                        ..Default::default()
                    }),
            )?;
            let final_me = self.ni.me_attach(
                PT_RDVZ,
                ProcessId::ANY,
                MatchCriteria::exact(MatchBits::new(serial | FINAL_BIT)),
                true,
                MePos::Back,
            )?;
            let final_md = self.ni.md_attach(
                final_me,
                MdSpec::new(data.clone())
                    .with_length(len)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Count(1))
                    .with_options(MdOptions {
                        op_put: false,
                        op_get: true,
                        truncate: true,
                        unlink_on_exhaustion: true,
                        ..Default::default()
                    }),
            )?;
            st.bulk_pulled.insert(bulk_md, 0);
            st.sends.insert(
                final_md,
                SendInfo {
                    id: Some(id),
                    dest,
                    match_bits,
                    portal: PT_RDVZ,
                    pooled: pooled.then(|| data.clone()),
                    total_len: len as u64,
                    started,
                    rendezvous: true,
                    bulk: Some((bulk_md, bulk_me)),
                },
            );

            let mut rts = [0u8; RTS_SIZE];
            rts[0..8].copy_from_slice(&serial.to_le_bytes());
            rts[8..16].copy_from_slice(&(len as u64).to_le_bytes());
            // RTS records are the highest-rate small allocation on the
            // rendezvous path: serve them from the pool too.
            let rts_pooled = self.config.pool_slab >= RTS_SIZE;
            let rts_region = if rts_pooled {
                let slab = self.take_pooled(self.config.pool_slab);
                slab.write(0, &rts);
                slab
            } else {
                Region::copy_from_slice(&rts)
            };
            if self.ni.flow_control() {
                // The announcement must survive a flow-disabled control
                // portal: request an ack so a nack can trigger re-issue, and
                // keep the MD linked until the target confirms buffering.
                let rts_md = self.ni.md_bind(
                    MdSpec::new(rts_region.clone())
                        .with_length(RTS_SIZE)
                        .with_eq(self.eq)
                        .with_threshold(Threshold::Count(1)),
                )?;
                st.sends.insert(
                    rts_md,
                    SendInfo {
                        id: None,
                        dest,
                        match_bits,
                        portal: PT_CTRL,
                        pooled: rts_pooled.then(|| rts_region.clone()),
                        total_len: RTS_SIZE as u64,
                        started,
                        rendezvous: false,
                        bulk: None,
                    },
                );
                self.ni
                    .put_op(rts_md)
                    .target(dest, PT_CTRL)
                    .bits(match_bits)
                    .ack(AckRequest::Ack)
                    .cookie(COOKIE)
                    .submit()?;
            } else {
                // The RTS needs no completion tracking: put() snapshots the
                // payload synchronously, so the MD can be unlinked immediately
                // and the slab recycled (the pool quarantines it while wire
                // views still reference it).
                let rts_md = self
                    .ni
                    .md_bind(MdSpec::new(rts_region.clone()).with_length(RTS_SIZE))?;
                self.ni
                    .put_op(rts_md)
                    .target(dest, PT_CTRL)
                    .bits(match_bits)
                    .cookie(COOKIE)
                    .submit()?;
                let _ = self.ni.md_unlink(rts_md);
                if rts_pooled {
                    self.pools.recycle(rts_region);
                }
            }
        } else {
            let md = self.ni.md_bind(
                MdSpec::new(data.clone())
                    .with_length(len)
                    .with_eq(self.eq)
                    .with_threshold(Threshold::Count(1)),
            )?;
            st.sends.insert(
                md,
                SendInfo {
                    id: Some(id),
                    dest,
                    match_bits,
                    portal: PT_MSG,
                    pooled: pooled.then(|| data.clone()),
                    total_len: len as u64,
                    started,
                    rendezvous: false,
                    bulk: None,
                },
            );
            self.ni
                .put_op(md)
                .target(dest, PT_MSG)
                .bits(match_bits)
                .ack(AckRequest::Ack)
                .cookie(COOKIE)
                .submit()?;
        }
        Ok(Request {
            id,
            kind: ReqKind::Send,
        })
    }

    // ----- receiving ----------------------------------------------------------

    /// Nonblocking receive into `buf` (up to `cap` bytes). `src`/`tag` of
    /// `None` are the MPI wildcards.
    pub fn irecv(
        &self,
        context: bits::Context,
        src: Option<u16>,
        tag: Option<Tag>,
        buf: Region,
        cap: usize,
    ) -> PtlResult<Request> {
        let criteria = bits::recv_criteria(context, src, tag);
        let mut st = self.state.lock();
        let id = st.next_req;
        st.next_req += 1;
        self.drain(&mut st);

        // Already arrived? Pick the oldest matching arrival across the eager
        // and rendezvous queues (the stamp preserves wire order between them).
        if self.take_waiting_match(&mut st, id, &criteria, &buf, cap) {
            return Ok(Request {
                id,
                kind: ReqKind::Recv,
            });
        }

        match self.config.protocol {
            Protocol::EagerDirect | Protocol::Adaptive { .. } => {
                // Post a hardware match entry ahead of the overflow slab, with
                // an inactive MD, then activate it atomically against the
                // event queue (the PtlMDUpdate pattern).
                let slab_me = st.slab_me;
                let me = self.ni.me_attach(
                    PT_MSG,
                    ProcessId::ANY,
                    criteria,
                    true,
                    MePos::Before(slab_me),
                )?;
                let md = self.ni.md_attach(
                    me,
                    MdSpec::new(buf.clone())
                        .with_length(cap)
                        .with_eq(self.eq)
                        .with_threshold(Threshold::Count(0))
                        .with_options(MdOptions {
                            op_put: true,
                            op_get: false,
                            truncate: true,
                            unlink_on_exhaustion: true,
                            ..Default::default()
                        }),
                )?;
                st.recvs.push(PostedRecv {
                    id,
                    criteria,
                    buf,
                    cap,
                    hw: Some((me, md)),
                });
                #[cfg(test)]
                tests::before_activation();
                loop {
                    match self
                        .ni
                        .md_update(md, Some(self.eq), |m| m.threshold = Threshold::Count(1))
                    {
                        Ok(()) => break,
                        Err(PtlError::NoUpdate) => {
                            // Pending events might include the very message
                            // this receive wants: drain and re-check. A match
                            // during the drain — an eager arrival completed
                            // from a slab, or an announcement whose pull has
                            // started — takes the receive off the posted list
                            // and unlinks its entry (and with it the MD).
                            self.drain(&mut st);
                            if !st.recvs.iter().any(|r| r.id == id) {
                                break;
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
            Protocol::Rendezvous { .. } => {
                // Library-side matching only.
                st.recvs.push(PostedRecv {
                    id,
                    criteria,
                    buf,
                    cap,
                    hw: None,
                });
            }
        }
        Ok(Request {
            id,
            kind: ReqKind::Recv,
        })
    }

    /// Search both waiting queues for the oldest arrival matching `criteria`;
    /// consume it into `buf` (or start the rendezvous pull). True if matched.
    fn take_waiting_match(
        &self,
        st: &mut EngState,
        id: u64,
        criteria: &MatchCriteria,
        buf: &Region,
        cap: usize,
    ) -> bool {
        let eager_pos = st
            .unexpected
            .iter()
            .position(|a| criteria.matches(a.bits))
            .map(|i| (st.unexpected[i].stamp, i));
        let rts_pos = st
            .rts_waiting
            .iter()
            .position(|r| criteria.matches(r.bits))
            .map(|i| (st.rts_waiting[i].stamp, i));
        match (eager_pos, rts_pos) {
            (None, None) => false,
            (Some((_, i)), None) => {
                let arrival = st.unexpected.remove(i).expect("indexed");
                self.complete_eager(st, id, buf, cap, arrival);
                true
            }
            (None, Some((_, i))) => {
                let rts = st.rts_waiting.remove(i).expect("indexed");
                self.start_pull(st, id, buf.clone(), cap, rts);
                true
            }
            (Some((es, ei)), Some((rs, ri))) => {
                if es < rs {
                    let arrival = st.unexpected.remove(ei).expect("indexed");
                    self.complete_eager(st, id, buf, cap, arrival);
                } else {
                    let rts = st.rts_waiting.remove(ri).expect("indexed");
                    self.start_pull(st, id, buf.clone(), cap, rts);
                }
                true
            }
        }
    }

    /// Copy a slab arrival into the receive buffer and complete the request.
    fn complete_eager(&self, st: &mut EngState, id: u64, buf: &Region, cap: usize, a: Arrival) {
        let n = a.mlength.min(cap);
        if n > 0 {
            buf.write(0, &a.buf.slice(a.offset, n));
        }
        let (_, src_rank, tag) = bits::decode(a.bits);
        st.recv_done.insert(
            id,
            Status {
                source: Rank(src_rank as u32),
                tag,
                len: n,
                truncated: a.rlength > n,
                full_len: a.rlength,
            },
        );
        self.trace(Stage::Deliver, n as u64, "eager_slab");
    }

    /// Begin the pipelined pull for a matched announcement: open the window
    /// of sub-gets that drains the sender's exposed payload into the user
    /// buffer chunk by chunk.
    fn start_pull(&self, st: &mut EngState, id: u64, buf: Region, cap: usize, rts: RtsRecord) {
        let pull_len = rts.total_len.min(cap as u64);
        let (_, src_rank, tag) = bits::decode(rts.bits);
        st.pulls.insert(
            id,
            PullState {
                src: src_rank,
                tag,
                total_len: rts.total_len,
                cap,
                pull_len,
                next_off: 0,
                issued_final: false,
                in_flight: 0,
                received: 0,
                user: buf,
                sender: rts.sender,
                serial: rts.serial,
            },
        );
        self.issue_chunks(st, id);
    }

    /// Issue sub-gets for pull `pull_id` until its window is full or the
    /// final chunk is out. Offset-zero chunks bind the user buffer directly
    /// (a reply lands at its MD's region start); later chunks land in pooled
    /// bounce slabs and are copied into place on their reply.
    fn issue_chunks(&self, st: &mut EngState, pull_id: u64) {
        loop {
            let (off, len, is_final, sender, serial, user) = {
                let Some(p) = st.pulls.get_mut(&pull_id) else {
                    return;
                };
                if p.issued_final || p.in_flight >= self.config.rdvz_window.max(1) {
                    return;
                }
                let len = (p.pull_len - p.next_off).min(self.config.rdvz_chunk.max(1) as u64);
                let off = p.next_off;
                let is_final = off + len == p.pull_len;
                p.next_off += len;
                p.in_flight += 1;
                p.issued_final |= is_final;
                self.window_hwm
                    .fetch_max(p.in_flight as u64, Ordering::Relaxed);
                (off, len, is_final, p.sender, p.serial, p.user.clone())
            };
            let (region, md_len, bounce) = if off == 0 {
                (user, len as usize, None)
            } else {
                let b = self.take_pooled(self.config.rdvz_chunk.max(len as usize));
                (b.clone(), len as usize, Some(b))
            };
            let md = self
                .ni
                .md_bind(
                    MdSpec::new(region)
                        .with_length(md_len)
                        .with_eq(self.eq)
                        .with_threshold(Threshold::Count(1)),
                )
                .expect("bind pull chunk md");
            st.chunk_mds.insert(
                md,
                ChunkInfo {
                    pull_id,
                    off,
                    bounce,
                },
            );
            let bits = if is_final { serial | FINAL_BIT } else { serial };
            self.ni
                .get_op(md)
                .target(sender, PT_RDVZ)
                .bits(MatchBits::new(bits))
                .cookie(COOKIE)
                .offset(off)
                .length(len)
                .submit()
                .expect("rendezvous sub-get");
        }
    }

    /// Nonblocking probe (MPI_Iprobe): report the oldest arrived-but-unclaimed
    /// message matching `(src, tag)` without consuming it. Only messages that
    /// arrived *unexpected* are visible — which is the situation probe exists
    /// for (deciding how to post the receive).
    pub fn iprobe(
        &self,
        context: bits::Context,
        src: Option<u16>,
        tag: Option<Tag>,
    ) -> Option<Status> {
        let criteria = bits::recv_criteria(context, src, tag);
        let mut st = self.state.lock();
        self.drain(&mut st);
        let eager = st
            .unexpected
            .iter()
            .filter(|a| criteria.matches(a.bits))
            .min_by_key(|a| a.stamp)
            .map(|a| (a.stamp, a.bits, a.rlength as u64));
        let rts = st
            .rts_waiting
            .iter()
            .filter(|r| criteria.matches(r.bits))
            .min_by_key(|r| r.stamp)
            .map(|r| (r.stamp, r.bits, r.total_len));
        let (_, bits, len) = match (eager, rts) {
            (None, None) => return None,
            (Some(e), None) => e,
            (None, Some(r)) => r,
            (Some(e), Some(r)) => {
                if e.0 < r.0 {
                    e
                } else {
                    r
                }
            }
        };
        let (_, src_rank, tag) = bits::decode(bits);
        Some(Status {
            source: Rank(src_rank as u32),
            tag,
            len: len as usize,
            truncated: false,
            full_len: len as usize,
        })
    }

    // ----- completion ----------------------------------------------------------

    /// Nonblocking completion test. Consumes the request when complete.
    pub fn test(&self, req: Request) -> Option<Completion> {
        let mut st = self.state.lock();
        self.drain(&mut st);
        Self::take_completion(&mut st, req)
    }

    /// Drive progress without testing anything (an `MPI_Test`-like call for
    /// the Figure 6 "test calls during work" variant).
    pub fn progress(&self) {
        let mut st = self.state.lock();
        self.drain(&mut st);
    }

    /// Block until `req` completes or `timeout` expires.
    pub fn wait_timeout(&self, req: Request, timeout: Duration) -> Option<Completion> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(c) = self.test(req) {
                return Some(c);
            }
            if Instant::now() >= deadline {
                return None;
            }
            // Block briefly on the event queue. Under a host-driven interface
            // this is also what pumps the Portals raw queue.
            match self.ni.eq_poll(self.eq, Duration::from_micros(200)) {
                Ok(ev) => {
                    let mut st = self.state.lock();
                    self.handle_event(&mut st, ev);
                }
                Err(PtlError::Timeout) | Err(PtlError::EqEmpty) => {}
                Err(PtlError::EqDropped) => {
                    let mut st = self.state.lock();
                    self.recover_dropped_events(&mut st);
                }
                Err(e) => panic!("event queue failure: {e}"),
            }
        }
    }

    /// Block until `req` completes.
    pub fn wait(&self, req: Request) -> Completion {
        self.wait_timeout(req, Duration::from_secs(300))
            .expect("MPI wait timed out (5 min)")
    }

    /// Wait for every request, in order.
    pub fn wait_all(&self, reqs: &[Request]) -> Vec<Completion> {
        reqs.iter().map(|r| self.wait(*r)).collect()
    }

    /// Wait until any one of `reqs` completes; returns its index and
    /// completion (MPI_Waitany).
    pub fn wait_any(&self, reqs: &[Request]) -> (usize, Completion) {
        assert!(!reqs.is_empty(), "wait_any needs at least one request");
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            {
                let mut st = self.state.lock();
                self.drain(&mut st);
                for (i, r) in reqs.iter().enumerate() {
                    if let Some(c) = Self::take_completion(&mut st, *r) {
                        return (i, c);
                    }
                }
            }
            assert!(Instant::now() < deadline, "MPI wait_any timed out (5 min)");
            match self.ni.eq_poll(self.eq, Duration::from_micros(200)) {
                Ok(ev) => {
                    let mut st = self.state.lock();
                    self.handle_event(&mut st, ev);
                }
                Err(PtlError::Timeout) | Err(PtlError::EqEmpty) => {}
                Err(e) => panic!("event queue failure: {e}"),
            }
        }
    }

    fn take_completion(st: &mut EngState, req: Request) -> Option<Completion> {
        match req.kind {
            ReqKind::Send => {
                st.send_done
                    .remove(&req.id)
                    .map(|(delivered, requested)| Completion::Send {
                        delivered,
                        requested,
                    })
            }
            ReqKind::Recv => st.recv_done.remove(&req.id).map(Completion::Recv),
        }
    }

    /// Bytes of unexpected-message buffering currently attached (the §4.1
    /// memory-scaling metric: independent of peer count).
    pub fn unexpected_buffer_bytes(&self) -> usize {
        let st = self.state.lock();
        st.slab_mds.len() * self.config.slab_size + st.ctrl_mds.len() * RTS_SIZE * CTRL_SLAB_RECORDS
    }

    /// Unconsumed unexpected arrivals (diagnostics).
    pub fn unexpected_pending(&self) -> usize {
        self.state.lock().unexpected.len()
    }

    /// Takes served from the region pools, any size class (the
    /// `mpi.regions_pooled` metric).
    pub fn regions_pooled(&self) -> u64 {
        self.pools.pooled()
    }

    /// Pool-eligible takes that fell back to a fresh allocation.
    pub fn regions_allocated(&self) -> u64 {
        self.pools.allocated()
    }

    /// Per-size-class pool statistics (eager/RTS slabs vs rendezvous pull
    /// chunks), ascending by slab size.
    pub fn pool_classes(&self) -> Vec<PoolClassStats> {
        self.pools.class_stats()
    }

    /// High-water mark of concurrently outstanding rendezvous sub-gets
    /// across all pulls so far.
    pub fn rdvz_window_hwm(&self) -> u64 {
        self.window_hwm.load(Ordering::Relaxed)
    }

    /// Snapshot of the adaptive protocol selector (zeros under the fixed
    /// protocols).
    pub fn adaptive_report(&self) -> AdaptiveReport {
        let a = self.adaptive.lock();
        AdaptiveReport {
            eager_ns_per_byte: a.eager_ns_per_byte,
            rdvz_ns_per_byte: a.rdvz_ns_per_byte,
            eager_decisions: a.eager_decisions,
            rdvz_decisions: a.rdvz_decisions,
            explorations: a.explorations,
        }
    }

    // ----- event processing -----------------------------------------------------

    /// Consume every pending event.
    fn drain(&self, st: &mut EngState) {
        loop {
            match self.ni.eq_get(self.eq) {
                Ok(ev) => self.handle_event(st, ev),
                Err(PtlError::EqEmpty) => break,
                Err(PtlError::EqDropped) => self.recover_dropped_events(st),
                Err(e) => panic!("event queue failure: {e}"),
            }
        }
    }

    /// The MPI event queue lapped its consumer and unread events are gone.
    /// Without flow control that is unrecoverable (a lost Put event is a lost
    /// message) and the old behaviour — panic — stands. With flow control the
    /// data path cannot have overwritten (the engine trips the portal before
    /// pushing into a near-full queue), so the lost events are bookkeeping;
    /// re-arm the resources they would have replenished and keep going.
    fn recover_dropped_events(&self, st: &mut EngState) {
        if !self.ni.flow_control() {
            panic!("MPI event queue overflowed — raise MpiConfig::eq_capacity");
        }
        self.trace(Stage::Event, 0, "eq_dropped_recover");
        self.attach_slab(st).expect("replenish slab after eq drop");
        self.attach_ctrl_slab(st)
            .expect("replenish control slab after eq drop");
        let _ = self.ni.pt_enable(PT_MSG);
        let _ = self.ni.pt_enable(PT_CTRL);
    }

    fn handle_event(&self, st: &mut EngState, ev: portals::Event) {
        match ev.kind {
            EventKind::Sent => {}
            EventKind::Ack => {
                if ev.mlength == portals::NACK_MLENGTH {
                    // The target's portal is flow-disabled: nothing was
                    // delivered, the message is still ours — re-issue.
                    self.retry_send(st, ev.md);
                } else if let Some(info) = st.sends.remove(&ev.md) {
                    // Eager send (or RTS announcement) completion: the target
                    // reports what it accepted.
                    if let Some(id) = info.id {
                        st.send_done.insert(id, (ev.mlength, ev.rlength));
                        self.note_send_cost(info.rendezvous, info.total_len, info.started);
                    }
                    let _ = self.ni.md_unlink(ev.md);
                    if let Some(slab) = info.pooled {
                        self.pools.recycle(slab);
                    }
                }
            }
            EventKind::Get => {
                if let Some(pulled) = st.bulk_pulled.get_mut(&ev.md) {
                    // A non-final sub-get against the bulk entry: account it
                    // and keep the exposure up for the rest of the window.
                    *pulled += ev.mlength;
                } else if let Some(info) = st.sends.remove(&ev.md) {
                    // The final sub-get landed: the receiver has issued (and
                    // the FIFO has delivered) every bulk sub-get before it,
                    // so the whole pull is done and the bulk exposure can
                    // come down.
                    let mut delivered = ev.mlength;
                    if let Some((bulk_md, bulk_me)) = info.bulk {
                        delivered += st.bulk_pulled.remove(&bulk_md).unwrap_or(0);
                        let _ = self.ni.md_unlink(bulk_md);
                        let _ = self.ni.me_unlink(bulk_me);
                    }
                    if let Some(id) = info.id {
                        st.send_done.insert(id, (delivered, info.total_len));
                        self.note_send_cost(info.rendezvous, info.total_len, info.started);
                    }
                    // Final MD unlinks itself (threshold 1 + unlink flag).
                    if let Some(slab) = info.pooled {
                        self.pools.recycle(slab);
                    }
                }
            }
            EventKind::Reply => {
                // A rendezvous sub-get came back.
                if let Some(chunk) = st.chunk_mds.remove(&ev.md) {
                    let _ = self.ni.md_unlink(ev.md);
                    let mut finished = false;
                    if let Some(p) = st.pulls.get_mut(&chunk.pull_id) {
                        p.in_flight -= 1;
                        p.received += ev.mlength;
                        if let Some(bounce) = chunk.bounce {
                            if ev.mlength > 0 {
                                p.user.write(
                                    chunk.off as usize,
                                    &bounce.slice(0, ev.mlength as usize),
                                );
                            }
                            self.pools.recycle(bounce);
                        }
                        finished = p.issued_final && p.in_flight == 0;
                    }
                    if finished {
                        let p = st.pulls.remove(&chunk.pull_id).expect("checked above");
                        st.recv_done.insert(
                            chunk.pull_id,
                            Status {
                                source: Rank(p.src as u32),
                                tag: p.tag,
                                len: p.received as usize,
                                truncated: p.total_len as usize > p.cap,
                                full_len: p.total_len as usize,
                            },
                        );
                        self.trace(Stage::Deliver, p.received, "rendezvous");
                    } else {
                        self.issue_chunks(st, chunk.pull_id);
                    }
                }
            }
            EventKind::Put => self.handle_put_event(st, ev),
            EventKind::Atomic | EventKind::FetchAtomic => {
                // RMA windows run on their own portal with per-window queues;
                // the point-to-point engine's EQ never sees atomic traffic.
            }
            EventKind::Unlink => {
                // A slab rotated out: attach a replacement. (Buffers stay
                // alive via Arc until their last unexpected message is
                // consumed.)
                if st.slab_mds.remove(&ev.md).is_some() {
                    self.attach_slab(st).expect("replenish slab");
                } else if st.ctrl_mds.remove(&ev.md).is_some() {
                    self.attach_ctrl_slab(st).expect("replenish control slab");
                }
            }
            EventKind::FlowCtrl => {
                // A portal tripped: senders are being nacked and will retry.
                // Re-post the exhausted resource, then resume. Each trip adds
                // one slab of headroom, so sustained oversubscription grows
                // buffering until the receiver keeps up.
                self.trace(Stage::Event, 0, "flowctrl_resume");
                match ev.portal_index {
                    PT_MSG => self.attach_slab(st).expect("replenish slab after trip"),
                    PT_CTRL => self
                        .attach_ctrl_slab(st)
                        .expect("replenish control slab after trip"),
                    _ => {}
                }
                let _ = self.ni.pt_enable(ev.portal_index);
            }
        }
    }

    /// Re-issue a nacked put. The nack guarantees the target delivered
    /// nothing, so the MD still holds the complete message: restore its
    /// single-use threshold and put again. The cycle repeats until the target
    /// re-enables its portal and acks for real; the transport's credit window
    /// paces the retries.
    fn retry_send(&self, st: &mut EngState, md: MdHandle) {
        let Some(info) = st.sends.get(&md) else {
            return;
        };
        let (dest, bits, portal) = (info.dest, info.match_bits, info.portal);
        self.trace(Stage::Retransmit, 0, "nack_retry");
        let _ = self
            .ni
            .md_update(md, None, |m| m.threshold = Threshold::Count(1));
        self.ni
            .put_op(md)
            .target(dest, portal)
            .bits(bits)
            .ack(AckRequest::Ack)
            .cookie(COOKIE)
            .submit()
            .expect("nack retry re-put");
    }

    fn handle_put_event(&self, st: &mut EngState, ev: portals::Event) {
        if ev.portal_index == PT_CTRL {
            // A rendezvous announcement.
            let Some(buf) = st.ctrl_mds.get(&ev.md).cloned() else {
                return;
            };
            debug_assert_eq!(ev.mlength as usize, RTS_SIZE, "malformed RTS record");
            let (serial, total_len) = {
                let b = buf.slice(ev.offset as usize, RTS_SIZE);
                let serial = u64::from_le_bytes(b[0..8].try_into().expect("slice"));
                let total = u64::from_le_bytes(b[8..16].try_into().expect("slice"));
                (serial, total)
            };
            let stamp = st.next_stamp;
            st.next_stamp += 1;
            let rts = RtsRecord {
                stamp,
                bits: ev.match_bits,
                sender: ev.initiator,
                serial,
                total_len,
            };
            if let Some(pos) = st.recvs.iter().position(|r| r.criteria.matches(rts.bits)) {
                let r = st.recvs.remove(pos);
                if let Some((me, _)) = r.hw {
                    let _ = self.ni.me_unlink(me);
                }
                self.start_pull(st, r.id, r.buf, r.cap, rts);
            } else {
                st.rts_waiting.push_back(rts);
            }
        } else if let Some(buf) = st.slab_mds.get(&ev.md).cloned() {
            // An eager message landed in the overflow slab.
            let stamp = st.next_stamp;
            st.next_stamp += 1;
            let arrival = Arrival {
                stamp,
                bits: ev.match_bits,
                buf,
                offset: ev.offset as usize,
                mlength: ev.mlength as usize,
                rlength: ev.rlength as usize,
            };
            if let Some(pos) = st
                .recvs
                .iter()
                .position(|r| r.criteria.matches(arrival.bits))
            {
                let r = st.recvs.remove(pos);
                if let Some((me, _)) = r.hw {
                    // The receive was posted but not yet activated when this
                    // message arrived: tear the hardware entry down and
                    // deliver from the slab.
                    let _ = self.ni.me_unlink(me);
                }
                let buf = r.buf.clone();
                self.complete_eager(st, r.id, &buf, r.cap, arrival);
            } else {
                st.unexpected.push_back(arrival);
            }
        } else {
            // Direct delivery into a posted hardware receive.
            if let Some(pos) = st
                .recvs
                .iter()
                .position(|r| r.hw.map(|(_, md)| md) == Some(ev.md))
            {
                let r = st.recvs.remove(pos);
                let (_, src_rank, tag) = bits::decode(ev.match_bits);
                st.recv_done.insert(
                    r.id,
                    Status {
                        source: Rank(src_rank as u32),
                        tag,
                        len: ev.mlength as usize,
                        truncated: ev.rlength > ev.mlength,
                        full_len: ev.rlength as usize,
                    },
                );
                self.trace(Stage::Deliver, ev.mlength, "eager_direct");
            }
        }
    }
}

impl std::fmt::Debug for MpiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MpiEngine({}, {:?})", self.ni.id(), self.config.protocol)
    }
}

#[cfg(test)]
mod tests {
    use crate::{Mpi, MpiConfig};
    use portals::{NiConfig, Node, NodeConfig, Region};
    use portals_net::Fabric;
    use portals_types::{NodeId, ProcessId, ProgressMode, Rank};
    use std::cell::RefCell;

    thread_local! {
        /// Run once in the next `irecv` on this thread, between posting the
        /// hardware receive (inactive) and activating it: the window in which
        /// a concurrent arrival races the activation.
        static BEFORE_ACTIVATION: RefCell<Option<Box<dyn FnOnce()>>> = const { RefCell::new(None) };
    }

    pub(super) fn before_activation() {
        if let Some(hook) = BEFORE_ACTIVATION.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }

    /// A rendezvous announcement that lands in the event queue between
    /// posting a receive and activating it matches that receive during the
    /// activation loop's drain, which unlinks the receive's entry and starts
    /// the pull. The loop must see the receive is no longer posted and stop,
    /// not retry the activation against the unlinked descriptor.
    #[test]
    fn announcement_racing_receive_activation_starts_the_pull() {
        const LEN: usize = 256 * 1024; // at the adaptive band's top: rendezvous
        const TAG: u32 = 5;
        let fabric = Fabric::ideal();
        let config = NodeConfig {
            transport: portals::TransportConfig {
                progress_mode: ProgressMode::CallerDriven,
                ..Default::default()
            },
            ..Default::default()
        };
        let nodes: Vec<std::sync::Arc<Node>> = (0..2)
            .map(|i| std::sync::Arc::new(Node::new(fabric.attach(NodeId(i)), config.clone())))
            .collect();
        let ranks: Vec<ProcessId> = (0..2).map(|i| ProcessId::new(i, 1)).collect();
        let mpis: Vec<Mpi> = nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let ni = node.create_ni(1, NiConfig::default()).unwrap();
                Mpi::init(ni, ranks.clone(), Rank(i as u32), MpiConfig::adaptive()).unwrap()
            })
            .collect();
        let (sender, receiver) = (mpis[0].world(), mpis[1].world());
        let payload: Vec<u8> = (0..LEN).map(|i| (i * 7 + 3) as u8).collect();

        // Inside the window: the sender announces, and one step of the
        // receiver's node dispatches the announcement into its event queue.
        let send_req = std::rc::Rc::new(RefCell::new(None));
        {
            let (sender, node, payload, send_req) = (
                sender.clone(),
                std::sync::Arc::clone(&nodes[1]),
                payload.clone(),
                std::rc::Rc::clone(&send_req),
            );
            BEFORE_ACTIVATION.with(|h| {
                *h.borrow_mut() = Some(Box::new(move || {
                    *send_req.borrow_mut() = Some(sender.isend(Rank(1), TAG, &payload));
                    assert!(node.progress(), "the announcement must arrive now");
                }))
            });
        }
        let buf = Region::zeroed(LEN);
        let recv_req = receiver.irecv(Some(Rank(0)), Some(TAG), buf.clone());
        assert!(
            BEFORE_ACTIVATION.with(|h| h.borrow().is_none()),
            "the hook ran inside irecv"
        );
        let status = receiver.wait(recv_req).status().expect("receive status");
        assert_eq!(status.len, LEN);
        assert_eq!(buf.read_vec(0, LEN), payload);
        let send_req = send_req.borrow_mut().take().expect("send posted");
        sender.wait(send_req);
    }
}

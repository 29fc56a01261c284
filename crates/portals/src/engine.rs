//! The receive engine: §4.8 of the paper, executed either by the node's
//! dispatcher thread (application bypass) or inside API calls (host driven).
//!
//! Processing order for put/get requests:
//!
//! 1. portal index validity;
//! 2. access control (cookie → entry → process id and portal index match);
//! 3. address translation (Fig. 4): walk the match list in order; for each
//!    entry whose source filter and match criteria pass, consult only the
//!    *first* memory descriptor — if it accepts, perform the operation,
//!    handle unlinks, log the event; if it rejects, continue down the list;
//! 4. if the list is exhausted the message is discarded and the dropped
//!    message count incremented.
//!
//! Translation consults the match list's exact-bits index first
//! ([`MatchList::lookup`]): a provable `Hit` whose descriptor accepts skips
//! the walk entirely, a provable `Miss` drops with `NoMatch` immediately, and
//! everything else (or an index disabled via `NiConfig::match_index`) runs
//! the reference walk. Either way the answer is identical to Fig. 4's —
//! the index is an accelerator, never an authority.
//!
//! The engine holds the target portal's list lock for the whole of a put/get
//! delivery — translation, data movement, commit and the event push — which
//! is what makes `PtlMDUpdate`'s test-and-update atomic with respect to
//! message arrival without any interface-wide lock. Acks and replies "bypass
//! the access control checks and the translation step" and touch no portal:
//! an ack needs only its event queue to still exist; a reply needs its memory
//! descriptor to exist and its event queue (if any) to have space.

use crate::counters::DropReason;
use crate::event::{Event, EventKind};
use crate::md::{MdMemory, MdVerdict, ReqOp};
use crate::ni::{send_message, NiClass, NiCore, NiState, NACK_MLENGTH};
use crate::node::NodeShared;
use crate::table::{FastPath, MatchList};
use crate::{CtHandle, EqHandle, MdHandle, MeHandle};
use portals_obs::{Layer, Stage, TraceEvent};
use portals_types::{Gather, Handle, MatchBits, ProcessId};
use portals_wire::{
    Ack, AtomicOp, AtomicRequest, GetRequest, PortalsMessage, PutRequest, Reply, RequestHeader,
    ResponseHeader, RAW_HANDLE_NONE,
};

/// A successful Fig. 4 translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Accepted {
    pub me: MeHandle,
    pub md: MdHandle,
    /// Manipulated length (§4.7).
    pub mlength: u64,
    /// Offset within the region actually used.
    pub offset: u64,
}

/// Evaluate one entry's first memory descriptor against the request.
/// `None`: the entry or descriptor is gone or the descriptor rejected —
/// translation continues down the list either way.
fn try_entry(
    state: &NiState,
    me_h: MeHandle,
    op: ReqOp,
    offset: u64,
    rlength: u64,
) -> Option<Accepted> {
    let md_h = state.mes.with(me_h, |me| me.first_md())??;
    match state
        .mds
        .with(md_h, |md| md.evaluate(op, rlength, offset))?
    {
        MdVerdict::Accept { mlength, offset } => Some(Accepted {
            me: me_h,
            md: md_h,
            mlength,
            offset,
        }),
        MdVerdict::Reject(_) => None,
    }
}

/// The Fig. 4 reference walk over an already locked match list.
#[allow(clippy::too_many_arguments)]
pub(crate) fn walk(
    list: &MatchList,
    state: &NiState,
    op: ReqOp,
    initiator: ProcessId,
    match_bits: MatchBits,
    offset: u64,
    rlength: u64,
) -> Result<Accepted, DropReason> {
    for me_h in list.iter() {
        let matched = state.mes.with(me_h, |me| me.matches(initiator, match_bits));
        if matched != Some(true) {
            continue;
        }
        // Only the first MD of the list is considered (Fig. 4).
        if let Some(accepted) = try_entry(state, me_h, op, offset, rlength) {
            return Ok(accepted);
        }
    }
    Err(DropReason::NoMatch)
}

/// Translation over a locked list: index probe first (when enabled), walk as
/// the fallback authority.
#[allow(clippy::too_many_arguments)]
pub(crate) fn translate(
    list: &MatchList,
    state: &NiState,
    use_index: bool,
    op: ReqOp,
    initiator: ProcessId,
    match_bits: MatchBits,
    offset: u64,
    rlength: u64,
) -> Result<Accepted, DropReason> {
    if use_index {
        match list.lookup(initiator, match_bits) {
            FastPath::Hit(me_h) => {
                // Provably the first criteria-matching entry; its MD can still
                // reject, in which case the walk resumes from scratch — safe
                // because `evaluate` is pure, so re-checking rejected entries
                // reaches the same continuation Fig. 4 would.
                if let Some(accepted) = try_entry(state, me_h, op, offset, rlength) {
                    return Ok(accepted);
                }
            }
            FastPath::Miss => return Err(DropReason::NoMatch),
            FastPath::Ambiguous => {}
        }
    }
    walk(list, state, op, initiator, match_bits, offset, rlength)
}

/// Record a §4.8 drop: bump the per-reason counter and emit the lifecycle
/// trace event, so every discarded message is attributed exactly once in both
/// views.
fn drop_msg(core: &NiCore, reason: DropReason) {
    core.counters.drop_message(reason);
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Drop)
            .node(core.id.nid.0)
            .detail(reason.slug())
    });
}

/// Post-acceptance bookkeeping: consume threshold, auto-unlink the MD and
/// possibly its match entry (Fig. 4), and log the operation's event. Runs
/// under the portal's list lock (`list` is the locked list the entry lives
/// on). Returns whether the commit landed — `false` only if the descriptor
/// vanished between acceptance and commit, in which case nothing was logged
/// and the caller must not count the operation as completed.
#[allow(clippy::too_many_arguments)]
fn commit_and_log(
    core: &NiCore,
    list: &mut MatchList,
    accepted: Accepted,
    portal_index: u32,
    kind: EventKind,
    initiator: ProcessId,
    match_bits: MatchBits,
    rlength: u64,
) -> bool {
    let mut events = Vec::new();
    let committed = commit_and_collect(
        core,
        list,
        accepted,
        portal_index,
        kind,
        initiator,
        match_bits,
        rlength,
        &mut events,
    );
    for (eq, event) in events {
        push_event(core, eq, event);
    }
    committed
}

/// [`commit_and_log`] with the event pushes *collected* instead of fired:
/// the streaming put path commits at header time (under the portal lock) but
/// must not make events visible until the last payload fragment has landed,
/// so its deferred events are carried in the sink and pushed at completion.
#[allow(clippy::too_many_arguments)]
fn commit_and_collect(
    core: &NiCore,
    list: &mut MatchList,
    accepted: Accepted,
    portal_index: u32,
    kind: EventKind,
    initiator: ProcessId,
    match_bits: MatchBits,
    rlength: u64,
    out: &mut Vec<(Option<EqHandle>, Event)>,
) -> bool {
    let state = &core.state;
    let Some((unlink_md, eq)) = state.mds.with_mut(accepted.md, |md| {
        (md.commit(accepted.mlength, accepted.offset), md.eq)
    }) else {
        return false;
    };

    out.push((
        eq,
        Event {
            kind,
            initiator,
            portal_index,
            match_bits,
            rlength,
            mlength: accepted.mlength,
            offset: accepted.offset,
            md: accepted.md,
        },
    ));

    if unlink_md {
        let pending = state.mds.with(accepted.md, |m| m.pending_ops).unwrap_or(0);
        if pending == 0 {
            state.mds.remove(accepted.md);
            out.push((
                eq,
                Event {
                    kind: EventKind::Unlink,
                    initiator: core.id,
                    portal_index,
                    match_bits,
                    rlength,
                    mlength: accepted.mlength,
                    offset: accepted.offset,
                    md: accepted.md,
                },
            ));
            let now_empty = state.mes.with_mut(accepted.me, |me| {
                me.remove_md(accepted.md);
                me.md_list.is_empty() && me.unlink_when_empty
            });
            if now_empty == Some(true) {
                state.mes.remove(accepted.me);
                list.remove(accepted.me);
            }
        }
    }
    true
}

fn push_event(core: &NiCore, eq: Option<EqHandle>, event: Event) {
    if let Some(eqh) = eq {
        if core.state.eqs.with(eqh, |queue| queue.push(event)) == Some(false) {
            core.counters.events_overwritten.inc();
        }
        core.obs.tracer.emit(|| {
            TraceEvent::new(Layer::Portals, Stage::Event)
                .node(core.id.nid.0)
                .bytes(event.mlength)
                .detail(event.kind.name())
        });
    }
}

/// Latch `portal_index` disabled (exactly once per trip, however many
/// deliveries race) and tell the owner by pushing [`EventKind::FlowCtrl`] to
/// the portal's registered flow event queue. Called with the portal's list
/// lock held, which is what serializes the trip against `pt_disable`'s
/// quiescence guarantee.
fn trip_flow_control(core: &NiCore, h: &RequestHeader) {
    if core.state.table.try_disable(h.portal_index) {
        let flow_eq = core.state.table.flow_eq(h.portal_index);
        push_event(
            core,
            flow_eq,
            Event {
                kind: EventKind::FlowCtrl,
                initiator: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                rlength: h.length,
                mlength: 0,
                offset: 0,
                md: Handle::NONE,
            },
        );
    }
}

/// Drop a put addressed to a flow-disabled portal and, if the initiator asked
/// for an ack, answer with a *nack* (`manipulated_length == NACK_MLENGTH`) so
/// the sender re-issues instead of losing the message. Call with the portal's
/// list lock already released.
fn nack_put(core: &NiCore, node: &NodeShared, put: &PutRequest) {
    drop_msg(core, DropReason::PtDisabled);
    if put.wants_ack() {
        let h = put.header;
        let nack = PortalsMessage::Ack(Ack {
            header: ResponseHeader {
                initiator: h.target, // swapped (§4.7)
                target: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                offset: 0,
                md_handle: put.ack_md,
                eq_handle: put.ack_eq,
                requested_length: h.length,
                manipulated_length: NACK_MLENGTH,
            },
        });
        send_message(core, node, h.initiator.nid, &nack);
    }
}

/// Entry point: apply §4.8 to one incoming message for `core`.
pub(crate) fn deliver(core: &NiCore, node: &NodeShared, msg: PortalsMessage) {
    match msg {
        PortalsMessage::Put(put) => handle_put(core, node, put),
        PortalsMessage::Get(get) => handle_get(core, node, get),
        PortalsMessage::Atomic(atomic) => handle_atomic(core, node, atomic),
        PortalsMessage::Ack(ack) => handle_ack(core, node, ack),
        PortalsMessage::Reply(reply) => handle_reply(core, node, reply),
    }
}

fn handle_put(core: &NiCore, node: &NodeShared, put: PutRequest) {
    let h = put.header;
    let class = NiClass {
        node,
        my_job: core.config.job,
    };
    let state = &core.state;
    let Some(mut list) = state.table.lock(h.portal_index) else {
        drop_msg(core, DropReason::InvalidPortalIndex);
        return;
    };
    // Flow control is armed for this delivery when the interface switch is on
    // *and* the owner registered a flow EQ for the portal (opt-in per index).
    let flow_armed = core.config.flow_control && state.table.flow_eq(h.portal_index).is_some();
    if !state.table.is_enabled(h.portal_index) {
        drop(list);
        nack_put(core, node, &put);
        return;
    }
    if let Err(r) = state
        .acl
        .read()
        .check(h.cookie, h.initiator, h.portal_index, &class)
    {
        drop_msg(core, r.into());
        return;
    }
    let accepted = match translate(
        &list,
        state,
        core.config.match_index,
        ReqOp::Put,
        h.initiator,
        h.match_bits,
        h.offset,
        h.length,
    ) {
        Ok(a) => a,
        Err(reason) => {
            // An exhausted match list on a flow-controlled portal is the
            // resource-exhaustion signal (the MPI layer's unexpected-message
            // blocks ran out): trip instead of silently dropping.
            if flow_armed && reason == DropReason::NoMatch {
                trip_flow_control(core, &h);
                drop(list);
                nack_put(core, node, &put);
            } else {
                drop_msg(core, reason);
            }
            return;
        }
    };
    // §4.8 validates before delivery side effects: if the accepted MD's event
    // queue cannot take this put's event (plus one slot of headroom so the
    // consumer still sees completions while tripping), disable the portal
    // *before* any data moves, so nothing is half-delivered.
    if flow_armed {
        let md_eq = state.mds.with(accepted.md, |md| md.eq).flatten();
        let room = md_eq.map(|eqh| state.eqs.with(eqh, |q| q.has_room_for(2)));
        if room == Some(Some(false)) {
            trip_flow_control(core, &h);
            drop(list);
            nack_put(core, node, &put);
            return;
        }
    }
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Match)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .bytes(accepted.mlength)
            .detail("put")
    });

    // Capture the accepted MD's counting event before commit can auto-unlink
    // the descriptor; the increment itself runs after every lock is dropped.
    let ct = state.mds.with(accepted.md, |md| md.ct).flatten();
    // Move the data, then commit/unlink/log — all under the portal lock.
    // With region buffers this scatters the wire chunks straight into the
    // target MD's region — the one unavoidable payload copy of a put.
    let data = put.payload.slice(0, accepted.mlength as usize);
    state
        .mds
        .with(accepted.md, |md| md.deliver_gather(accepted.offset, &data));
    if accepted.mlength > 0 {
        core.counters.payload_copies.inc();
    }
    core.counters.payload_messages.inc();
    core.counters.delivered_bytes.add(accepted.mlength);
    core.counters.requests_accepted.inc();
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Deliver)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .bytes(accepted.mlength)
            .detail("put")
    });
    if commit_and_log(
        core,
        &mut list,
        accepted,
        h.portal_index,
        EventKind::Put,
        h.initiator,
        h.match_bits,
        h.length,
    ) {
        core.counters.completed_bytes.add(accepted.mlength);
    }
    drop(list);

    // "the target optionally sends an acknowledgment message" (§4.3): only if
    // the initiator asked and the operation was accepted.
    if put.wants_ack() {
        let ack = PortalsMessage::Ack(Ack {
            header: ResponseHeader {
                initiator: h.target, // swapped (§4.7)
                target: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                offset: accepted.offset,
                md_handle: put.ack_md,
                eq_handle: put.ack_eq,
                requested_length: h.length,
                manipulated_length: accepted.mlength,
            },
        });
        send_message(core, node, h.initiator.nid, &ack);
    }

    // Put delivered: count it and fire whatever the schedule parked on it —
    // still engine context, zero host involvement.
    if let Some(ct) = ct {
        crate::triggered::ct_increment(core, node, ct, 1);
    }
}

fn handle_get(core: &NiCore, node: &NodeShared, get: GetRequest) {
    let h = get.header;
    let class = NiClass {
        node,
        my_job: core.config.job,
    };
    let state = &core.state;
    let Some(mut list) = state.table.lock(h.portal_index) else {
        drop_msg(core, DropReason::InvalidPortalIndex);
        return;
    };
    // A get to a flow-disabled portal is dropped like any other §4.8 drop of
    // a get (no payload to lose, no nack channel on the reply path). The MPI
    // layer only flow-controls its put-target portals, so this path is never
    // taken end-to-end there.
    if !state.table.is_enabled(h.portal_index) {
        drop_msg(core, DropReason::PtDisabled);
        return;
    }
    if let Err(r) = state
        .acl
        .read()
        .check(h.cookie, h.initiator, h.portal_index, &class)
    {
        drop_msg(core, r.into());
        return;
    }
    let accepted = match translate(
        &list,
        state,
        core.config.match_index,
        ReqOp::Get,
        h.initiator,
        h.match_bits,
        h.offset,
        h.length,
    ) {
        Ok(a) => a,
        Err(reason) => {
            drop_msg(core, reason);
            return;
        }
    };
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Match)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .bytes(accepted.mlength)
            .detail("get")
    });

    let ct = state.mds.with(accepted.md, |md| md.ct).flatten();
    let payload = state
        .mds
        .with(accepted.md, |md| {
            md.payload_gather(accepted.offset, accepted.mlength)
        })
        .unwrap_or_default();
    core.counters.requests_accepted.inc();
    // A get moves no bytes into this process's memory: the reply's landing at
    // the initiator is where delivered/completed bytes are accounted.
    commit_and_log(
        core,
        &mut list,
        accepted,
        h.portal_index,
        EventKind::Get,
        h.initiator,
        h.match_bits,
        h.length,
    );
    drop(list);

    // "the reply is generated whenever the operation succeeds" (§4.7) — it is
    // not optional, unlike the ack.
    let reply = PortalsMessage::Reply(Reply {
        header: ResponseHeader {
            initiator: h.target, // swapped
            target: h.initiator,
            portal_index: h.portal_index,
            match_bits: h.match_bits,
            offset: accepted.offset,
            md_handle: get.reply_md,
            eq_handle: RAW_HANDLE_NONE,
            requested_length: h.length,
            manipulated_length: accepted.mlength,
        },
        payload,
    });
    send_message(core, node, h.initiator.nid, &reply);

    // Get served from this descriptor: bump its counter after the reply is on
    // the wire and every lock is dropped.
    if let Some(ct) = ct {
        crate::triggered::ct_increment(core, node, ct, 1);
    }
}

/// Drop an atomic addressed to a flow-disabled portal and, if the initiator
/// asked for an ack (plain atomics only), nack it so the sender re-issues.
/// Fetching atomics have no nack channel (their reply path mirrors the get's),
/// so a disabled portal drops them like a get.
fn nack_atomic(core: &NiCore, node: &NodeShared, atomic: &AtomicRequest) {
    drop_msg(core, DropReason::PtDisabled);
    if !atomic.fetch && atomic.ack_md != RAW_HANDLE_NONE {
        let h = atomic.header;
        let nack = PortalsMessage::Ack(Ack {
            header: ResponseHeader {
                initiator: h.target, // swapped (§4.7)
                target: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                offset: 0,
                md_handle: atomic.ack_md,
                eq_handle: atomic.ack_eq,
                requested_length: h.length,
                manipulated_length: NACK_MLENGTH,
            },
        });
        send_message(core, node, h.initiator.nid, &nack);
    }
}

/// §4.8 applied to an atomic or fetch-atomic request. The prologue mirrors
/// `handle_put` (portal validity, flow control, ACL, translation), but the
/// data phase is a read-modify-write executed *here*, under the portal's list
/// lock — the target process runs no code. That lock is the atomicity domain:
/// it already serializes put delivery per portal, so concurrent atomics from
/// any number of initiators are applied one at a time, which a get-modify-put
/// built from the plain operations could never guarantee.
///
/// Geometry is validated before any byte moves: the touched length must be a
/// nonzero multiple of the 8-byte lane, a CAS must touch exactly one lane, and
/// the matched descriptor must accept the full length (`mlength == rlength`) —
/// a truncated RMW would half-apply, so it drops as [`DropReason::AtomicInvalid`]
/// instead.
fn handle_atomic(core: &NiCore, node: &NodeShared, atomic: AtomicRequest) {
    let h = atomic.header;
    let class = NiClass {
        node,
        my_job: core.config.job,
    };
    let state = &core.state;
    let Some(mut list) = state.table.lock(h.portal_index) else {
        drop_msg(core, DropReason::InvalidPortalIndex);
        return;
    };
    let flow_armed = core.config.flow_control && state.table.flow_eq(h.portal_index).is_some();
    if !state.table.is_enabled(h.portal_index) {
        drop(list);
        nack_atomic(core, node, &atomic);
        return;
    }
    if let Err(r) = state
        .acl
        .read()
        .check(h.cookie, h.initiator, h.portal_index, &class)
    {
        drop_msg(core, r.into());
        return;
    }
    // Lane geometry first — nothing downstream may see a partial RMW.
    let lane = portals_wire::AtomicDatatype::WIDTH;
    if h.length == 0
        || h.length % lane != 0
        || (atomic.op == AtomicOp::Cas && h.length != lane)
        || atomic.payload.len() as u64 != atomic.op.operand_len(h.length)
    {
        drop_msg(core, DropReason::AtomicInvalid);
        return;
    }
    // A plain atomic only mutates (ReqOp::Put); a fetching atomic also reads
    // the prior value back, so the descriptor must enable both operations.
    let req_op = if atomic.fetch {
        ReqOp::FetchAtomic
    } else {
        ReqOp::Put
    };
    let accepted = match translate(
        &list,
        state,
        core.config.match_index,
        req_op,
        h.initiator,
        h.match_bits,
        h.offset,
        h.length,
    ) {
        Ok(a) => a,
        Err(reason) => {
            if flow_armed && reason == DropReason::NoMatch {
                trip_flow_control(core, &h);
                drop(list);
                nack_atomic(core, node, &atomic);
            } else {
                drop_msg(core, reason);
            }
            return;
        }
    };
    // Truncation is acceptance-time rejection here: an RMW applied to a prefix
    // of the requested lanes would be a different operation, not a shorter one.
    if accepted.mlength != h.length {
        drop_msg(core, DropReason::AtomicInvalid);
        return;
    }
    if flow_armed {
        let md_eq = state.mds.with(accepted.md, |md| md.eq).flatten();
        let room = md_eq.map(|eqh| state.eqs.with(eqh, |q| q.has_room_for(2)));
        if room == Some(Some(false)) {
            trip_flow_control(core, &h);
            drop(list);
            nack_atomic(core, node, &atomic);
            return;
        }
    }
    let kind = if atomic.fetch {
        EventKind::FetchAtomic
    } else {
        EventKind::Atomic
    };
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Match)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .bytes(accepted.mlength)
            .detail(kind.name())
    });

    let ct = state.mds.with(accepted.md, |md| md.ct).flatten();
    // The read-modify-write, under the portal lock. Operands are small (one
    // value per lane), so the flatten here is cheap and keeps the lane
    // arithmetic out of the gather path.
    let operand = atomic.payload.to_vec();
    let old = state
        .mds
        .with(accepted.md, |md| {
            md.atomic_rmw(accepted.offset, atomic.op, atomic.datatype, &operand)
        })
        .unwrap_or_default();
    if accepted.mlength > 0 {
        core.counters.payload_copies.inc();
    }
    core.counters.payload_messages.inc();
    core.counters.delivered_bytes.add(accepted.mlength);
    core.counters.requests_accepted.inc();
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Deliver)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .bytes(accepted.mlength)
            .detail(kind.name())
    });
    if commit_and_log(
        core,
        &mut list,
        accepted,
        h.portal_index,
        kind,
        h.initiator,
        h.match_bits,
        h.length,
    ) {
        core.counters.completed_bytes.add(accepted.mlength);
    }
    drop(list);

    if atomic.fetch {
        // The prior value travels back exactly like a get's reply and lands at
        // offset 0 of the initiator's fetch descriptor via `handle_reply`.
        let reply = PortalsMessage::Reply(Reply {
            header: ResponseHeader {
                initiator: h.target, // swapped
                target: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                offset: accepted.offset,
                md_handle: atomic.reply_md,
                eq_handle: RAW_HANDLE_NONE,
                requested_length: h.length,
                manipulated_length: accepted.mlength,
            },
            payload: Gather::from_vec(old),
        });
        send_message(core, node, h.initiator.nid, &reply);
    } else if atomic.ack_md != RAW_HANDLE_NONE {
        let ack = PortalsMessage::Ack(Ack {
            header: ResponseHeader {
                initiator: h.target, // swapped (§4.7)
                target: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                offset: accepted.offset,
                md_handle: atomic.ack_md,
                eq_handle: atomic.ack_eq,
                requested_length: h.length,
                manipulated_length: accepted.mlength,
            },
        });
        send_message(core, node, h.initiator.nid, &ack);
    }

    if let Some(ct) = ct {
        crate::triggered::ct_increment(core, node, ct, 1);
    }
}

fn handle_ack(core: &NiCore, node: &NodeShared, ack: Ack) {
    // §4.8: "Upon receipt of an acknowledgment, the runtime system only needs
    // to confirm that the event queue still exists."
    let h = ack.header;
    let event = Event {
        kind: EventKind::Ack,
        initiator: h.initiator,
        portal_index: h.portal_index,
        match_bits: h.match_bits,
        rlength: h.requested_length,
        mlength: h.manipulated_length,
        offset: h.offset,
        md: Handle::from_raw(h.md_handle),
    };
    let pushed = if h.eq_handle == RAW_HANDLE_NONE {
        None
    } else {
        let eq_handle: EqHandle = Handle::from_raw(h.eq_handle);
        core.state.eqs.with(eq_handle, |queue| queue.push(event))
    };
    // A counting event on the source MD consumes the ack even when no event
    // queue does — a triggered schedule has no EQ at all, only counters.
    let mdh: MdHandle = Handle::from_raw(h.md_handle);
    let ct = core.state.mds.with(mdh, |md| md.ct).flatten();
    if pushed.is_none() && ct.is_none() {
        drop_msg(core, DropReason::AckEqMissing);
        return;
    }
    core.counters.acks_accepted.inc();
    if pushed == Some(false) {
        core.counters.events_overwritten.inc();
    }
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Deliver)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .detail("ack")
    });
    if let Some(ct) = ct {
        crate::triggered::ct_increment(core, node, ct, 1);
    }
}

fn handle_reply(core: &NiCore, node: &NodeShared, reply: Reply) {
    // §4.8: "Each reply message includes a handle for a memory descriptor. If
    // this descriptor exists, it is used to receive the message. A reply
    // message will be dropped if the memory descriptor ... doesn't exist or if
    // the event queue in the memory descriptor has no space and is not null.
    // ... Every memory descriptor accepts and truncates incoming reply
    // messages."
    let h = reply.header;
    let state = &core.state;
    let md_handle: MdHandle = Handle::from_raw(h.md_handle);
    // Hold the MD's shard lock across the whole reply so the descriptor cannot
    // be unlinked between the space check and the write.
    let Some((mut shard, local)) = state.mds.lock_shard_of(md_handle) else {
        drop_msg(core, DropReason::ReplyMdMissing);
        return;
    };
    let Some(md) = shard.get(local) else {
        drop_msg(core, DropReason::ReplyMdMissing);
        return;
    };
    let eq = md.eq;
    let ct = md.ct;
    if let Some(eqh) = eq {
        if state.eqs.with(eqh, |queue| queue.is_full()) == Some(true) {
            // The reply is lost but the get it answers is over: settle the
            // descriptor's pending-operation pin (and any deferred unlink)
            // exactly as the success path would, or the MD stays pinned
            // forever and every later `md_unlink` reports `MdInUse`.
            let unlink = {
                let md = shard.get_mut(local).expect("resolved above");
                md.pending_ops = md.pending_ops.saturating_sub(1);
                md.options.unlink_on_exhaustion && !md.threshold.active() && md.pending_ops == 0
            };
            if unlink {
                shard.remove(local);
            }
            drop_msg(core, DropReason::ReplyEqFull);
            return;
        }
    }
    // Accept-and-truncate: land at the region start, scattering the wire
    // chunks directly into the descriptor's region.
    let mlength = (reply.payload.len() as u64).min(md.len() as u64);
    md.write_gather(0, &reply.payload.slice(0, mlength as usize));
    if mlength > 0 {
        core.counters.payload_copies.inc();
    }
    core.counters.payload_messages.inc();
    // The reply's landing is both the delivery and the initiating get's
    // completion, so both byte counters advance here.
    core.counters.delivered_bytes.add(mlength);
    core.counters.completed_bytes.add(mlength);
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Deliver)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .bytes(mlength)
            .detail("reply")
    });
    let unlink = {
        let md = shard.get_mut(local).expect("resolved above");
        md.pending_ops = md.pending_ops.saturating_sub(1);
        md.options.unlink_on_exhaustion && !md.threshold.active() && md.pending_ops == 0
    };
    core.counters.replies_accepted.inc();
    if let Some(eqh) = eq {
        let event = Event {
            kind: EventKind::Reply,
            initiator: h.initiator,
            portal_index: h.portal_index,
            match_bits: h.match_bits,
            rlength: h.requested_length,
            mlength,
            offset: 0,
            md: md_handle,
        };
        if state.eqs.with(eqh, |queue| queue.push(event)) == Some(false) {
            core.counters.events_overwritten.inc();
        }
    }
    if unlink {
        shard.remove(local);
    }
    // Reply landed: release the MD shard before firing, so a trigger's own
    // do_put/do_get can re-enter the arena without self-deadlock.
    drop(shard);
    if let Some(ct) = ct {
        crate::triggered::ct_increment(core, node, ct, 1);
    }
}

// ---------------------------------------------------------------------------
// Streaming delivery (§4.8 semantics, fragment-at-a-time data movement)
// ---------------------------------------------------------------------------
//
// The streaming path splits §4.8 into two halves. At *header* time —
// as soon as the first fragment of a put or reply arrives — the engine runs
// every check and state transition the whole-message path would run
// (portal validity, ACL, translation, flow control, threshold commit,
// managed-offset advance, auto-unlink), all under the portal lock, and
// captures a clone of the matched descriptor's memory map. Payload fragments
// are then scattered into that memory at their absolute offsets as they
// arrive off the wire, with no lock held — placement overlaps wire transfer,
// which is the whole point. Events, counting events and the ack are fired
// only at *completion* (the last fragment), so the §4.8 observable order —
// data before event — is preserved.
//
// Matching at header time (rather than after reassembly) is what a
// receiver-side NIC does; it also means a message's match outcome reflects
// the list state at arrival order, identical to the baseline because the
// transport delivers per-source fragments in order and whole messages were
// dispatched in the same arrival order before.
//
// Partial-delivery visibility: between the first and last fragment the
// target region holds a mix of old and new bytes. This is exactly the §6c
// torn-read/RDMA contract — the paper's semantics make no promise about a
// region's contents before the completion event is delivered.

/// What `stream_put_begin` decided at header time.
pub(crate) enum PutBeginOutcome {
    /// Header accepted: stream payload fragments into the sink, then
    /// [`PutSink::finish`].
    Sink(PutSink),
    /// The matched descriptor needs whole-message handling (a combining MD's
    /// read-modify-write wants the entire contribution at once): accumulate
    /// and deliver through [`deliver`] instead.
    Fallback,
    /// Dropped (and possibly nacked) at header time: swallow the remaining
    /// fragments.
    Done,
}

/// An accepted streaming put: the matched region plus everything completion
/// needs. Payload writes go through the captured [`MdMemory`] clone — region
/// handles are refcounted, so the bytes land in the application's memory even
/// if the descriptor is auto-unlinked before the tail arrives (the RDMA
/// model: the NIC holds the registration, not the descriptor table).
pub(crate) struct PutSink {
    header: RequestHeader,
    ack_md: u64,
    ack_eq: u64,
    accepted: Accepted,
    mem: MdMemory,
    ct: Option<CtHandle>,
    committed: bool,
    deferred: Vec<(Option<EqHandle>, Event)>,
}

/// Run the §4.8 receive checks for a put whose payload has not arrived yet.
/// Mirrors `handle_put` exactly up to (and including) commit; data movement
/// and event visibility are deferred to the sink.
pub(crate) fn stream_put_begin(
    core: &NiCore,
    node: &NodeShared,
    h: RequestHeader,
    ack_md: u64,
    ack_eq: u64,
) -> PutBeginOutcome {
    // The nack path reads only the header and ack handles.
    let nack_stub = PutRequest {
        header: h,
        ack_md,
        ack_eq,
        payload: Gather::new(),
    };
    let class = NiClass {
        node,
        my_job: core.config.job,
    };
    let state = &core.state;
    let Some(mut list) = state.table.lock(h.portal_index) else {
        drop_msg(core, DropReason::InvalidPortalIndex);
        return PutBeginOutcome::Done;
    };
    let flow_armed = core.config.flow_control && state.table.flow_eq(h.portal_index).is_some();
    if !state.table.is_enabled(h.portal_index) {
        drop(list);
        nack_put(core, node, &nack_stub);
        return PutBeginOutcome::Done;
    }
    if let Err(r) = state
        .acl
        .read()
        .check(h.cookie, h.initiator, h.portal_index, &class)
    {
        drop_msg(core, r.into());
        return PutBeginOutcome::Done;
    }
    let accepted = match translate(
        &list,
        state,
        core.config.match_index,
        ReqOp::Put,
        h.initiator,
        h.match_bits,
        h.offset,
        h.length,
    ) {
        Ok(a) => a,
        Err(reason) => {
            if flow_armed && reason == DropReason::NoMatch {
                trip_flow_control(core, &h);
                drop(list);
                nack_put(core, node, &nack_stub);
            } else {
                drop_msg(core, reason);
            }
            return PutBeginOutcome::Done;
        }
    };
    if flow_armed {
        let md_eq = state.mds.with(accepted.md, |md| md.eq).flatten();
        let room = md_eq.map(|eqh| state.eqs.with(eqh, |q| q.has_room_for(2)));
        if room == Some(Some(false)) {
            trip_flow_control(core, &h);
            drop(list);
            nack_put(core, node, &nack_stub);
            return PutBeginOutcome::Done;
        }
    }
    core.obs.tracer.emit(|| {
        TraceEvent::new(Layer::Portals, Stage::Match)
            .node(core.id.nid.0)
            .peer(h.initiator.nid.0)
            .bytes(accepted.mlength)
            .detail("put")
    });
    let Some((mem, ct, combining)) = state.mds.with(accepted.md, |md| {
        (md.region.clone(), md.ct, md.combine.is_some())
    }) else {
        drop_msg(core, DropReason::NoMatch);
        return PutBeginOutcome::Done;
    };
    if combining {
        return PutBeginOutcome::Fallback;
    }
    // Commit at header time, under the portal lock — threshold, managed
    // offset and auto-unlink behave exactly as in the baseline — but hold
    // the resulting events back until the payload has fully landed.
    let mut deferred = Vec::new();
    let committed = commit_and_collect(
        core,
        &mut list,
        accepted,
        h.portal_index,
        EventKind::Put,
        h.initiator,
        h.match_bits,
        h.length,
        &mut deferred,
    );
    core.counters.requests_accepted.inc();
    drop(list);
    PutBeginOutcome::Sink(PutSink {
        header: h,
        ack_md,
        ack_eq,
        accepted,
        mem,
        ct,
        committed,
        deferred,
    })
}

impl PutSink {
    /// Scatter payload bytes at `payload_off` (offset within the message's
    /// payload) into the matched region, clamped to the manipulated length —
    /// bytes past `mlength` are the truncated tail and are dropped here,
    /// preserving §4.8 truncation.
    pub(crate) fn write(&self, payload_off: u64, data: &Gather) {
        if payload_off >= self.accepted.mlength {
            return;
        }
        let room = (self.accepted.mlength - payload_off) as usize;
        let take = data.len().min(room);
        if take == 0 {
            return;
        }
        self.mem
            .write_gather(self.accepted.offset + payload_off, &data.slice(0, take));
    }

    /// Complete the put: counters, deferred events, the optional ack and the
    /// counting-event increment — everything `handle_put` fires after data
    /// movement.
    pub(crate) fn finish(self, core: &NiCore, node: &NodeShared) {
        let h = self.header;
        let accepted = self.accepted;
        if accepted.mlength > 0 {
            core.counters.payload_copies.inc();
        }
        core.counters.payload_messages.inc();
        core.counters.delivered_bytes.add(accepted.mlength);
        core.obs.tracer.emit(|| {
            TraceEvent::new(Layer::Portals, Stage::Deliver)
                .node(core.id.nid.0)
                .peer(h.initiator.nid.0)
                .bytes(accepted.mlength)
                .detail("put")
        });
        if self.committed {
            core.counters.completed_bytes.add(accepted.mlength);
        }
        for (eq, event) in self.deferred {
            push_event(core, eq, event);
        }
        if self.ack_md != RAW_HANDLE_NONE {
            let ack = PortalsMessage::Ack(Ack {
                header: ResponseHeader {
                    initiator: h.target, // swapped (§4.7)
                    target: h.initiator,
                    portal_index: h.portal_index,
                    match_bits: h.match_bits,
                    offset: accepted.offset,
                    md_handle: self.ack_md,
                    eq_handle: self.ack_eq,
                    requested_length: h.length,
                    manipulated_length: accepted.mlength,
                },
            });
            send_message(core, node, h.initiator.nid, &ack);
        }
        if let Some(ct) = self.ct {
            crate::triggered::ct_increment(core, node, ct, 1);
        }
    }
}

/// What `stream_reply_begin` decided at header time.
pub(crate) enum ReplyBeginOutcome {
    /// Reply accepted: stream payload fragments in, then
    /// [`ReplySink::finish`].
    Sink(ReplySink),
    /// Combining descriptor: accumulate the whole reply and deliver through
    /// [`deliver`].
    Fallback,
    /// Dropped at header time: swallow the remaining fragments.
    Done,
}

/// An accepted streaming reply. The descriptor stays pinned (its
/// `pending_ops` is *not* decremented until `finish`), so the §4.7 rule — a
/// get's MD "must not be unlinked until the reply is received" — holds
/// across the streamed interval.
pub(crate) struct ReplySink {
    header: ResponseHeader,
    md_handle: MdHandle,
    mem: MdMemory,
    mlength: u64,
    eq: Option<EqHandle>,
    ct: Option<CtHandle>,
}

/// Run the §4.8 reply checks before the payload has arrived. `declared_len`
/// is the wire header's manipulated length (what the payload will total).
pub(crate) fn stream_reply_begin(
    core: &NiCore,
    h: ResponseHeader,
    declared_len: u64,
) -> ReplyBeginOutcome {
    let state = &core.state;
    let md_handle: MdHandle = Handle::from_raw(h.md_handle);
    let Some((mut shard, local)) = state.mds.lock_shard_of(md_handle) else {
        drop_msg(core, DropReason::ReplyMdMissing);
        return ReplyBeginOutcome::Done;
    };
    let Some(md) = shard.get(local) else {
        drop_msg(core, DropReason::ReplyMdMissing);
        return ReplyBeginOutcome::Done;
    };
    let eq = md.eq;
    let ct = md.ct;
    if let Some(eqh) = eq {
        if state.eqs.with(eqh, |queue| queue.is_full()) == Some(true) {
            let unlink = {
                let md = shard.get_mut(local).expect("resolved above");
                md.pending_ops = md.pending_ops.saturating_sub(1);
                md.options.unlink_on_exhaustion && !md.threshold.active() && md.pending_ops == 0
            };
            if unlink {
                shard.remove(local);
            }
            drop_msg(core, DropReason::ReplyEqFull);
            return ReplyBeginOutcome::Done;
        }
    }
    if md.combine.is_some() {
        return ReplyBeginOutcome::Fallback;
    }
    // Accept-and-truncate, decided up front from the declared length.
    let mlength = declared_len.min(md.len() as u64);
    let mem = md.region.clone();
    drop(shard);
    ReplyBeginOutcome::Sink(ReplySink {
        header: h,
        md_handle,
        mem,
        mlength,
        eq,
        ct,
    })
}

impl ReplySink {
    /// Scatter reply payload bytes at `payload_off` into the descriptor's
    /// region (replies land at region offset 0), truncating past `mlength`.
    pub(crate) fn write(&self, payload_off: u64, data: &Gather) {
        if payload_off >= self.mlength {
            return;
        }
        let room = (self.mlength - payload_off) as usize;
        let take = data.len().min(room);
        if take == 0 {
            return;
        }
        self.mem.write_gather(payload_off, &data.slice(0, take));
    }

    /// Complete the reply: settle the descriptor's pending-operation pin,
    /// counters, the reply event and the counting-event increment. If the
    /// event queue filled between begin and finish the event is counted as
    /// overwritten — the same back-pressure signal the baseline uses for a
    /// racing queue.
    pub(crate) fn finish(self, core: &NiCore, node: &NodeShared) {
        let h = self.header;
        let state = &core.state;
        let mlength = self.mlength;
        if mlength > 0 {
            core.counters.payload_copies.inc();
        }
        core.counters.payload_messages.inc();
        core.counters.delivered_bytes.add(mlength);
        core.counters.completed_bytes.add(mlength);
        core.obs.tracer.emit(|| {
            TraceEvent::new(Layer::Portals, Stage::Deliver)
                .node(core.id.nid.0)
                .peer(h.initiator.nid.0)
                .bytes(mlength)
                .detail("reply")
        });
        core.counters.replies_accepted.inc();
        {
            let Some((mut shard, local)) = state.mds.lock_shard_of(self.md_handle) else {
                return;
            };
            match shard.get_mut(local) {
                Some(md) => {
                    md.pending_ops = md.pending_ops.saturating_sub(1);
                    let unlink = md.options.unlink_on_exhaustion
                        && !md.threshold.active()
                        && md.pending_ops == 0;
                    if unlink {
                        shard.remove(local);
                    }
                }
                None => return,
            }
        }
        if let Some(eqh) = self.eq {
            let event = Event {
                kind: EventKind::Reply,
                initiator: h.initiator,
                portal_index: h.portal_index,
                match_bits: h.match_bits,
                rlength: h.requested_length,
                mlength,
                offset: 0,
                md: self.md_handle,
            };
            if state.eqs.with(eqh, |queue| queue.push(event)) == Some(false) {
                core.counters.events_overwritten.inc();
            }
        }
        if let Some(ct) = self.ct {
            crate::triggered::ct_increment(core, node, ct, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acl::AccessControlList;
    use crate::md::{Md, MdOptions, MdSpec, Threshold};
    use crate::me::MatchEntry;
    use crate::table::MePos;
    use portals_types::Region;
    use portals_types::{MatchCriteria, NiLimits};

    /// Build a state and attach one entry+MD through the same structures the
    /// API uses (entry metadata must reach the list for the index to work).
    fn attach(
        state: &NiState,
        portal: u32,
        pos: MePos,
        source: ProcessId,
        criteria: MatchCriteria,
        spec: MdSpec,
    ) -> (MeHandle, MdHandle) {
        let me = state
            .mes
            .insert(MatchEntry::at_portal(portal, source, criteria, false));
        assert!(state
            .table
            .lock(portal)
            .unwrap()
            .insert(me, pos, source, criteria));
        let mut md = Md::from_spec(spec);
        md.owner = Some(me);
        let mdh = state.mds.insert(md);
        state
            .mes
            .with_mut(me, |m| m.md_list.push_back(mdh))
            .unwrap();
        (me, mdh)
    }

    fn open_state() -> NiState {
        let state = NiState::new(&NiLimits::DEFAULT);
        // Cookie 0 of the standard ACL admits anyone in the tests' world.
        *state.acl.write() = AccessControlList::standard(8);
        state
    }

    fn state_with_entry(
        criteria: MatchCriteria,
        source: ProcessId,
        md_len: usize,
        options: MdOptions,
        threshold: Threshold,
    ) -> (NiState, MeHandle, MdHandle) {
        let state = open_state();
        let (me, md) = attach(
            &state,
            0,
            MePos::Back,
            source,
            criteria,
            MdSpec::new(Region::from_vec(vec![0u8; md_len]))
                .with_options(options)
                .with_threshold(threshold),
        );
        (state, me, md)
    }

    /// Run translation both ways (index on and off) and require agreement —
    /// every unit test below doubles as a fast-path differential check.
    fn translate_put(
        state: &NiState,
        initiator: ProcessId,
        pt: u32,
        bits: MatchBits,
        offset: u64,
        len: u64,
    ) -> Result<Accepted, DropReason> {
        let list = state.table.lock(pt).expect("test portals in range");
        let fast = translate(&list, state, true, ReqOp::Put, initiator, bits, offset, len);
        let slow = translate(
            &list,
            state,
            false,
            ReqOp::Put,
            initiator,
            bits,
            offset,
            len,
        );
        assert_eq!(fast, slow, "index and walk disagree");
        fast
    }

    #[test]
    fn match_walk_accepts_first_match() {
        let (state, me, md) = state_with_entry(
            MatchCriteria::exact(MatchBits::new(7)),
            ProcessId::ANY,
            64,
            MdOptions::default(),
            Threshold::Infinite,
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::new(7), 4, 10)
            .expect("accept");
        assert_eq!(
            r,
            Accepted {
                me,
                md,
                mlength: 10,
                offset: 4
            }
        );
    }

    #[test]
    fn wrong_bits_fall_off_the_list() {
        let (state, _, _) = state_with_entry(
            MatchCriteria::exact(MatchBits::new(7)),
            ProcessId::ANY,
            64,
            MdOptions::default(),
            Threshold::Infinite,
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::new(8), 0, 1);
        assert_eq!(r, Err(DropReason::NoMatch));
    }

    #[test]
    fn source_filter_excludes_other_processes() {
        let (state, _, _) = state_with_entry(
            MatchCriteria::any(),
            ProcessId::new(3, 3),
            64,
            MdOptions::default(),
            Threshold::Infinite,
        );
        assert!(translate_put(&state, ProcessId::new(3, 3), 0, MatchBits::ZERO, 0, 1).is_ok());
        assert_eq!(
            translate_put(&state, ProcessId::new(3, 4), 0, MatchBits::ZERO, 0, 1),
            Err(DropReason::NoMatch)
        );
    }

    #[test]
    fn md_rejection_continues_down_the_list() {
        // First entry matches but its MD only accepts gets; second entry
        // accepts puts. Translation must land on the second (Fig. 4).
        let state = open_state();
        let (_, _) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 64])).with_options(MdOptions {
                op_put: false,
                ..Default::default()
            }),
        );
        let (me2, md2) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 64])),
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::ZERO, 0, 8)
            .expect("accept at second entry");
        assert_eq!(r.me, me2);
        assert_eq!(r.md, md2);
    }

    #[test]
    fn indexed_hit_with_rejecting_md_falls_back_to_walk() {
        // Exact entry for bits 5 whose MD rejects puts, then a wildcard entry
        // that accepts: the index reports the first as a Hit, the engine must
        // still land on the wildcard, exactly as the walk would.
        let state = open_state();
        let (_, _) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::exact(MatchBits::new(5)),
            MdSpec::new(Region::from_vec(vec![0u8; 64])).with_options(MdOptions {
                op_put: false,
                ..Default::default()
            }),
        );
        let (me2, md2) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 64])),
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::new(5), 0, 8)
            .expect("falls through to the wildcard");
        assert_eq!((r.me, r.md), (me2, md2));
    }

    #[test]
    fn only_first_md_of_an_entry_is_considered() {
        // Entry's first MD rejects (op disabled); a perfectly good second MD
        // sits behind it — but Fig. 4 says only the first is considered, so
        // translation must fall through to NoMatch.
        let state = open_state();
        let (me, _) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 64])).with_options(MdOptions {
                op_put: false,
                ..Default::default()
            }),
        );
        let good = state
            .mds
            .insert(Md::from_spec(MdSpec::new(Region::from_vec(vec![0u8; 64]))));
        state
            .mes
            .with_mut(me, |m| m.md_list.push_back(good))
            .unwrap();

        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::ZERO, 0, 8);
        assert_eq!(r, Err(DropReason::NoMatch));
    }

    #[test]
    fn empty_md_list_continues_walk() {
        let state = open_state();
        let empty = state.mes.insert(MatchEntry::at_portal(
            0,
            ProcessId::ANY,
            MatchCriteria::any(),
            false,
        ));
        assert!(state.table.lock(0).unwrap().insert(
            empty,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any()
        ));
        let (_, md) = attach(
            &state,
            0,
            MePos::Back,
            ProcessId::ANY,
            MatchCriteria::any(),
            MdSpec::new(Region::from_vec(vec![0u8; 8])),
        );
        let r = translate_put(&state, ProcessId::new(0, 0), 0, MatchBits::ZERO, 0, 4)
            .expect("walks past empty entry");
        assert_eq!(r.md, md);
    }

    mod differential {
        //! Satellite: engine-level differential proptest — with MD evaluation
        //! in the loop, translation with the index enabled must pick the same
        //! entry (or the same drop) as the reference walk, across wildcard
        //! orderings, rejecting descriptors and unlink churn.

        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// bits, ignore mask, optional source filter, position seed,
            /// and whether the entry's MD accepts puts.
            Insert {
                bits: u64,
                ignore: u64,
                src: Option<(u32, u32)>,
                pos: u8,
                op_put: bool,
            },
            /// Remove the i-th currently attached entry (mod len).
            Remove { which: usize },
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (
                    0u64..12,
                    prop_oneof![Just(0u64), Just(1u64), Just(u64::MAX)],
                    (any::<bool>(), 0u32..3, 0u32..3),
                    any::<u8>(),
                    any::<bool>()
                )
                    .prop_map(|(bits, ignore, (filtered, n, p), pos, op_put)| {
                        Op::Insert {
                            bits,
                            ignore,
                            src: filtered.then_some((n, p)),
                            pos,
                            op_put,
                        }
                    }),
                (any::<usize>(),).prop_map(|(which,)| Op::Remove { which }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..Default::default() })]

            #[test]
            fn indexed_translation_matches_reference_walk(
                ops in proptest::collection::vec(op_strategy(), 1..32),
                probes in proptest::collection::vec((0u64..12, 0u32..3, 0u32..3), 1..10),
            ) {
                let state = open_state();
                let mut attached: Vec<MeHandle> = Vec::new();

                for op in ops {
                    match op {
                        Op::Insert { bits, ignore, src, pos, op_put } => {
                            let criteria =
                                MatchCriteria::with_ignore(MatchBits(bits), MatchBits(ignore));
                            let source =
                                src.map_or(ProcessId::ANY, |(n, p)| ProcessId::new(n, p));
                            let pos = match (pos % 4, attached.len()) {
                                (_, 0) | (0, _) => MePos::Back,
                                (1, _) => MePos::Front,
                                (2, n) => MePos::Before(attached[pos as usize % n]),
                                (_, n) => MePos::After(attached[pos as usize % n]),
                            };
                            let (me, _) = attach(
                                &state,
                                0,
                                pos,
                                source,
                                criteria,
                                MdSpec::new(Region::from_vec(vec![0u8; 32]))
                                    .with_options(MdOptions { op_put, ..Default::default() }),
                            );
                            attached.push(me);
                        }
                        Op::Remove { which } => {
                            if !attached.is_empty() {
                                let me = attached.remove(which % attached.len());
                                let mds = state.mes.remove(me).expect("attached").md_list;
                                state.table.lock(0).unwrap().remove(me);
                                for md in mds {
                                    state.mds.remove(md);
                                }
                            }
                        }
                    }
                    // Probe after every mutation so intermediate shapes are
                    // covered; the helper asserts fast == slow internally.
                    for &(bits, n, p) in &probes {
                        let _ = translate_put(
                            &state,
                            ProcessId::new(n, p),
                            0,
                            MatchBits(bits),
                            0,
                            8,
                        );
                    }
                }
            }
        }
    }
}

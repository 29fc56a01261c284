//! Incremental message delivery: the per-source stream state machine.
//!
//! A multi-fragment message does not arrive as one reassembled [`Gather`]:
//! the transport delivers it as a sequence of [`StreamFragment`]s carrying
//! absolute payload offsets. This module is the glue between that fragment
//! stream and the §4.8 receive engine: as soon as the fixed wire header is
//! complete it runs the engine's header-time checks (validity, ACL,
//! translation, commit) and obtains a *sink* — a captured mapping of the
//! matched memory — into which every subsequent fragment is scattered at its
//! offset the moment it leaves the wire. Events fire only at the final
//! fragment, so completion semantics match whole-message delivery exactly
//! while data movement overlaps wire transfer.
//!
//! Messages the engine cannot stream (combining descriptors, host-driven
//! interfaces, acks/gets) fall back to accumulation: fragments are appended
//! and the whole message takes the classic [`dispatch`](crate::node) path on
//! completion.
//!
//! The transport delivers fragments of a source's messages in order and
//! non-interleaved, so one state per source suffices.

use crate::engine::{self, PutBeginOutcome, PutSink, ReplyBeginOutcome, ReplySink};
use crate::ni::NiCore;
use crate::node::{dispatch, node_drop_trace, NodeShared};
use portals_transport::StreamFragment;
use portals_types::Gather;
use portals_wire::{PortalsMessage, StreamHead};
use std::sync::Arc;

/// Where a source's in-flight message is in its delivery lifecycle.
pub(crate) enum MsgStream {
    /// Still collecting the fixed wire header; holds everything received so
    /// far.
    Head(Gather),
    /// Whole-message fallback: accumulate and dispatch on the last fragment.
    Accumulate(Gather),
    /// A streaming put: fragments scatter straight into the matched region.
    Put(Arc<NiCore>, PutSink),
    /// A streaming reply: fragments scatter into the requesting descriptor.
    Reply(Arc<NiCore>, ReplySink),
    /// Rejected at header time: swallow fragments until the message ends.
    Discard,
}

/// Feed one transport fragment through the stream state machine.
pub(crate) fn on_fragment(shared: &NodeShared, frag: StreamFragment) {
    let mut streams = shared.streams.lock();
    let state = streams
        .remove(&frag.src)
        .unwrap_or(MsgStream::Head(Gather::new()));
    let (src, last) = (frag.src, frag.last);
    let next = advance(shared, state, frag);
    if last {
        finalize(shared, next);
    } else {
        streams.insert(src, next);
    }
}

/// Apply one fragment to the current state, returning the next state.
fn advance(shared: &NodeShared, state: MsgStream, frag: StreamFragment) -> MsgStream {
    match state {
        MsgStream::Head(mut acc) => {
            acc.append(frag.payload);
            classify(shared, acc)
        }
        MsgStream::Accumulate(mut acc) => {
            acc.append(frag.payload);
            MsgStream::Accumulate(acc)
        }
        MsgStream::Put(core, sink) => {
            sink.write(
                frag.offset - PortalsMessage::PUT_PAYLOAD_AT as u64,
                &frag.payload,
            );
            MsgStream::Put(core, sink)
        }
        MsgStream::Reply(core, sink) => {
            sink.write(
                frag.offset - PortalsMessage::REPLY_PAYLOAD_AT as u64,
                &frag.payload,
            );
            MsgStream::Reply(core, sink)
        }
        MsgStream::Discard => MsgStream::Discard,
    }
}

/// Try to classify an accumulating head. Stays in [`MsgStream::Head`] until
/// the fixed prefix is complete, then runs the node-level §4.8 checks and the
/// engine's header-time begin, feeding any payload bytes that rode along with
/// the header fragments into the fresh sink.
fn classify(shared: &NodeShared, acc: Gather) -> MsgStream {
    let mut head = [0u8; PortalsMessage::MAX_FIXED];
    let got = acc.peek(&mut head);
    let head = match PortalsMessage::peek_stream_head(&head[..got]) {
        Ok(Some(h)) => h,
        Ok(None) => return MsgStream::Head(acc),
        Err(_) => {
            shared.dropped_garbage.inc();
            node_drop_trace(shared, "garbage");
            return MsgStream::Discard;
        }
    };
    match head {
        StreamHead::Put {
            header,
            ack_md,
            ack_eq,
        } => {
            let Some(core) = lookup(shared, header.target) else {
                return MsgStream::Discard;
            };
            if !streamable(&core) {
                return MsgStream::Accumulate(acc);
            }
            match engine::stream_put_begin(&core, shared, header, ack_md, ack_eq) {
                PutBeginOutcome::Sink(sink) => {
                    feed_prefix(&sink, &acc, PortalsMessage::PUT_PAYLOAD_AT, |s, o, g| {
                        s.write(o, g)
                    });
                    shared.ring_event();
                    MsgStream::Put(core, sink)
                }
                PutBeginOutcome::Fallback => MsgStream::Accumulate(acc),
                PutBeginOutcome::Done => {
                    shared.ring_event();
                    MsgStream::Discard
                }
            }
        }
        StreamHead::Reply { header } => {
            let Some(core) = lookup(shared, header.target) else {
                return MsgStream::Discard;
            };
            if !streamable(&core) {
                return MsgStream::Accumulate(acc);
            }
            match engine::stream_reply_begin(&core, header, header.manipulated_length) {
                ReplyBeginOutcome::Sink(sink) => {
                    feed_prefix(&sink, &acc, PortalsMessage::REPLY_PAYLOAD_AT, |s, o, g| {
                        s.write(o, g)
                    });
                    MsgStream::Reply(core, sink)
                }
                ReplyBeginOutcome::Fallback => MsgStream::Accumulate(acc),
                ReplyBeginOutcome::Done => {
                    shared.ring_event();
                    MsgStream::Discard
                }
            }
        }
        StreamHead::Other => MsgStream::Accumulate(acc),
    }
}

/// The node-level checks every message sees before the engine (§4.8's "first
/// checks"): routed to this node, addressed to a live interface.
fn lookup(shared: &NodeShared, target: portals_types::ProcessId) -> Option<Arc<NiCore>> {
    if target.nid != shared.nid {
        shared.dropped_garbage.inc();
        node_drop_trace(shared, "misrouted");
        return None;
    }
    let core = shared.nis.read().get(&target.pid).cloned();
    if core.is_none() {
        shared.dropped_no_process.inc();
        node_drop_trace(shared, "no_process");
    }
    core
}

/// Whether this interface's configuration admits fragment-at-a-time delivery.
/// Host-driven interfaces hand raw messages to the application, so they need
/// the whole message.
fn streamable(core: &NiCore) -> bool {
    matches!(
        core.config.progress,
        crate::ProgressModel::ApplicationBypass
    )
}

/// Hand a freshly opened sink the payload bytes that arrived in the same
/// fragments as the header (everything in `acc` past `payload_at`).
fn feed_prefix<S>(sink: &S, acc: &Gather, payload_at: usize, write: impl Fn(&S, u64, &Gather)) {
    if acc.len() > payload_at {
        write(sink, 0, &acc.slice(payload_at, acc.len() - payload_at));
    }
}

/// The last fragment of a message has been applied: complete whatever the
/// stream became.
fn finalize(shared: &NodeShared, state: MsgStream) {
    match state {
        // A message so short its header never completed is garbage (the
        // transport only streams multi-fragment messages, and those decode
        // checks run on whole messages in `dispatch`).
        MsgStream::Head(acc) | MsgStream::Accumulate(acc) => dispatch(shared, &acc),
        MsgStream::Put(core, sink) => {
            sink.finish(&core, shared);
            shared.ring_event();
        }
        MsgStream::Reply(core, sink) => {
            sink.finish(&core, shared);
            shared.ring_event();
        }
        MsgStream::Discard => {}
    }
}

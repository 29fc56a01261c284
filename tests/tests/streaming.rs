//! Tests for the streaming large-message data path.
//!
//! The streaming receive path (incremental fragment delivery with absolute
//! payload offsets) must never change *what* arrives, only *when* placement
//! happens. Every test here demands exactly the sent bytes, in order, under
//! fault-free wires, seeded loss/duplication/jitter on the in-process fabric,
//! seeded loss on a real loopback UDP socket, and both progress modes.

use portals::{AckRequest, EventKind, MdSpec, MePos, NetworkInterface, NiConfig, Node, NodeConfig};
use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
use portals_netudp::{UdpLink, UdpLinkConfig};
use portals_transport::{
    Delivery, Endpoint, ProgressMode, TransportConfig, TransportStatsSnapshot,
};
use portals_types::{Gather, MatchCriteria, NodeId, ProcessId, Region};
use proptest::prelude::*;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn faulty_fabric(seed: u64, loss_pct: u32, jitter_us: u64) -> Fabric {
    Fabric::new(
        FabricConfig::default()
            .with_faults(FaultPlan {
                loss_probability: f64::from(loss_pct) / 100.0,
                duplicate_probability: 0.1,
                max_jitter: Duration::from_micros(jitter_us),
            })
            .with_seed(seed)
            .with_link(LinkModel {
                latency: Duration::from_micros(5),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            }),
    )
}

/// Deterministic per-message payloads of the given lengths.
fn payloads_of(lens: &[usize]) -> Vec<Vec<u8>> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| (0..len).map(|j| (i * 131 + j * 7) as u8).collect())
        .collect()
}

/// `n_msgs` payloads of `msg_len` bytes each.
fn payloads(n_msgs: usize, msg_len: usize) -> Vec<Vec<u8>> {
    payloads_of(&vec![msg_len; n_msgs])
}

/// Send every payload a → b, receive through the endpoint's message API
/// (which folds streamed fragments back into whole messages), return what
/// arrived plus receiver stats.
fn run_transport(
    mode: ProgressMode,
    fabric: &Fabric,
    msgs: &[Vec<u8>],
) -> (Vec<Vec<u8>>, TransportStatsSnapshot) {
    let tcfg = TransportConfig {
        mtu: 256,
        window: 8,
        rto_base: Duration::from_millis(2),
        ooo_buffer_bytes: 4096,
        progress_mode: mode,
        ..Default::default()
    };
    let a = Endpoint::new(fabric.attach(NodeId(0)), tcfg);
    let b = Endpoint::new(fabric.attach(NodeId(1)), tcfg);
    for p in msgs {
        a.send(NodeId(1), Gather::from_vec(p.clone()));
    }
    let mut out = Vec::with_capacity(msgs.len());
    for _ in msgs {
        let m = b
            .recv_timeout(TIMEOUT)
            .expect("message lost under faults — streaming broke recovery");
        assert_eq!(m.src, NodeId(0));
        out.push(m.payload.to_vec());
    }
    (out, b.stats())
}

// The core property: under seeded loss, duplication and jitter, the receive
// path delivers exactly the sent bytes, in order, in both progress modes — and
// its out-of-order buffer never exceeds its configured budget. Sub-MTU
// messages (handed up whole) interleave with multi-fragment ones (streamed),
// so both kinds of delivery share receive batches.
proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..Default::default() })]
    #[test]
    fn streaming_matches_store_and_forward_under_faults(
        seed in 0u64..1000,
        loss_pct in 5u32..25,
        jitter_us in 20u64..300,
        pairs in proptest::collection::vec((0usize..256, 1000usize..4000, any::<bool>()), 2..4),
    ) {
        // Each pair is one sub-MTU and one multi-fragment message, in either
        // order.
        let lens: Vec<usize> = pairs
            .iter()
            .flat_map(|&(small, big, small_first)| {
                if small_first { [small, big] } else { [big, small] }
            })
            .collect();
        let msgs = payloads_of(&lens);
        for mode in [ProgressMode::NicThread, ProgressMode::CallerDriven] {
            let (got, stats) =
                run_transport(mode, &faulty_fabric(seed, loss_pct, jitter_us), &msgs);
            prop_assert_eq!(&got, &msgs, "corrupted or misordered traffic");
            prop_assert_eq!(stats.messages_delivered, msgs.len() as u64);
            // Multi-fragment messages really did take the streamed path.
            prop_assert!(stats.frags_streamed > 0, "no fragment was streamed");
            // The OOO high-water mark respects the configured budget, and is
            // consistent with the buffered-fragment counter.
            prop_assert!(stats.bytes_buffered_hwm <= 4096);
            if stats.ooo_buffered > 0 {
                prop_assert!(stats.bytes_buffered_hwm > 0);
            }
        }
    }
}

// A raw-fragment consumer (what the Portals engine is, internally): pop the
// delivery channel directly and scatter each fragment at its *absolute*
// offset into a buffer, trusting nothing about arrival granularity except
// the offsets themselves. The result must be byte-identical to the sent
// payloads even while loss and jitter scramble the wire.
#[test]
fn raw_fragment_stream_places_at_absolute_offsets() {
    let fabric = faulty_fabric(42, 10, 150);
    let tcfg = TransportConfig {
        mtu: 256,
        window: 8,
        rto_base: Duration::from_millis(2),
        ooo_buffer_bytes: 4096,
        ..Default::default()
    };
    let a = Endpoint::new(fabric.attach(NodeId(0)), tcfg);
    let b = Endpoint::new(fabric.attach(NodeId(1)), tcfg);
    let msgs = payloads(5, 3000);
    for p in &msgs {
        a.send(NodeId(1), Gather::from_vec(p.clone()));
    }
    let rx = b.incoming_receiver();
    let mut acc: Vec<u8> = Vec::new();
    let mut done: Vec<Vec<u8>> = Vec::new();
    while done.len() < msgs.len() {
        let d = rx.recv_timeout(TIMEOUT).expect("delivery lost");
        b.note_consumed(&d);
        match d {
            Delivery::Message(m) => done.push(m.payload.to_vec()),
            Delivery::Fragment(f) => {
                // Streamed in order, each fragment's absolute offset lands
                // exactly at the bytes placed so far.
                assert_eq!(
                    f.offset as usize,
                    acc.len(),
                    "streamed fragment out of order"
                );
                let end = f.offset as usize + f.payload.len();
                if acc.len() < end {
                    acc.resize(end, 0);
                }
                acc[f.offset as usize..end].copy_from_slice(&f.payload.to_vec());
                if f.last {
                    done.push(std::mem::take(&mut acc));
                }
            }
        }
    }
    assert_eq!(done, msgs);
}

// §4.8 verdicts hold on the streamed path: a 100 000-byte put truncated by a
// 10 000-byte target region reports (rlength, mlength) = (100 000, 10 000) at
// both ends, and places exactly the prefix.
#[test]
fn truncation_verdicts_match_across_streaming() {
    let node_cfg = || NodeConfig {
        transport: TransportConfig {
            mtu: 4096,
            ..Default::default()
        },
        ..Default::default()
    };
    let fabric = Fabric::ideal();
    let na = Node::new(fabric.attach(NodeId(0)), node_cfg());
    let nb = Node::new(fabric.attach(NodeId(1)), node_cfg());
    let a: NetworkInterface = na.create_ni(1, NiConfig::default()).unwrap();
    let b: NetworkInterface = nb.create_ni(1, NiConfig::default()).unwrap();

    let beq = b.eq_alloc(8).unwrap();
    let me = b
        .me_attach(0, ProcessId::ANY, MatchCriteria::any(), false, MePos::Back)
        .unwrap();
    let target = Region::from_vec(vec![0u8; 10_000]);
    b.md_attach(me, MdSpec::new(target.clone()).with_eq(beq))
        .unwrap();

    let aeq = a.eq_alloc(8).unwrap();
    let src: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
    let md = a
        .md_bind(MdSpec::new(Region::from_vec(src)).with_eq(aeq))
        .unwrap();
    a.put_op(md)
        .target(b.id(), 0)
        .ack(AckRequest::Ack)
        .submit()
        .unwrap();

    let ev = b.eq_poll(beq, TIMEOUT).unwrap();
    assert_eq!(ev.kind, EventKind::Put);
    let sent = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(sent.kind, EventKind::Sent);
    let ack = a.eq_poll(aeq, TIMEOUT).unwrap();
    assert_eq!(ack.kind, EventKind::Ack);
    assert_eq!(
        (ev.rlength, ev.mlength),
        (100_000, 10_000),
        "target verdict"
    );
    assert_eq!((ack.rlength, ack.mlength), (100_000, 10_000), "ack verdict");
    let expect: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
    assert_eq!(target.read_vec(0, 10_000), expect, "placed prefix");
}

// Over a real wire: seeded 10% send-side loss on loopback UDP (both
// directions — data and acks), bulk messages spanning ~70 real datagrams
// each. Every byte must be recovered.
#[test]
fn udp_loopback_seeded_loss_byte_identical() {
    let bind = |nid: NodeId, seed: u64| {
        UdpLink::bind(UdpLinkConfig {
            nid,
            loss: 0.10,
            seed,
            ..Default::default()
        })
        .expect("bind loopback UDP")
    };
    let la = bind(NodeId(0), 11);
    let lb = bind(NodeId(1), 22);
    la.set_peer(NodeId(1), lb.local_addr());
    lb.set_peer(NodeId(0), la.local_addr());
    let tcfg = TransportConfig {
        rto_base: Duration::from_millis(5),
        ..Default::default()
    };
    let a = Endpoint::new(la, tcfg);
    let b = Endpoint::new(lb, tcfg);
    let msgs = payloads(4, 96 * 1024);
    for p in &msgs {
        a.send(NodeId(1), Gather::from_vec(p.clone()));
    }
    for expect in &msgs {
        let m = b
            .recv_timeout(TIMEOUT)
            .expect("message lost over lossy UDP");
        assert_eq!(&m.payload.to_vec(), expect, "corrupted traffic over UDP");
    }
    assert!(
        b.stats().frags_streamed > 0,
        "UDP arm never streamed a fragment"
    );
}

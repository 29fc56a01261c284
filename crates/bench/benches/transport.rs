//! Transport ablation: throughput of the RTS/CTS-module stand-in under
//! varying MTU, window size and injected loss — the knobs §3 says the real
//! module owned (packetization and flow control).

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use portals_net::{Fabric, FabricConfig, FaultPlan, LinkModel};
use portals_transport::{Endpoint, TransportConfig};
use portals_types::NodeId;
use std::time::Duration;

const MSG: usize = 256 * 1024;

fn run_transfer(fabric_cfg: FabricConfig, tcfg: TransportConfig, msgs: u64) -> Duration {
    let fabric = Fabric::new(fabric_cfg);
    let a = Endpoint::new(fabric.attach(NodeId(0)), tcfg);
    let b = Endpoint::new(fabric.attach(NodeId(1)), tcfg);
    let payload = Bytes::from(vec![0x5au8; MSG]);
    let t0 = std::time::Instant::now();
    for _ in 0..msgs {
        a.send(NodeId(1), payload.clone());
    }
    for _ in 0..msgs {
        b.recv_timeout(Duration::from_secs(60)).expect("delivery");
    }
    t0.elapsed()
}

fn bench_mtu(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_mtu");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(MSG as u64));
    for mtu in [1024usize, 4096, 16 * 1024, 64 * 1024] {
        let tcfg = TransportConfig {
            mtu,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(mtu), &tcfg, |b, &tcfg| {
            b.iter_custom(|iters| run_transfer(FabricConfig::ideal(), tcfg, iters))
        });
    }
    g.finish();
}

fn bench_window(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_window");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(MSG as u64));
    let link = LinkModel {
        latency: Duration::from_micros(20),
        bandwidth_bytes_per_sec: 500.0 * 1024.0 * 1024.0,
        per_packet_overhead: Duration::from_micros(1),
    };
    for window in [2usize, 8, 32, 128] {
        let tcfg = TransportConfig {
            window,
            mtu: 4096,
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::from_parameter(window), &tcfg, |b, &tcfg| {
            b.iter_custom(|iters| {
                run_transfer(FabricConfig::default().with_link(link), tcfg, iters)
            })
        });
    }
    g.finish();
}

fn bench_loss(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_loss_recovery");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(MSG as u64));
    for loss in [0.0f64, 0.01, 0.05, 0.2] {
        let fabric_cfg = FabricConfig::default()
            .with_link(LinkModel {
                latency: Duration::from_micros(10),
                bandwidth_bytes_per_sec: f64::INFINITY,
                per_packet_overhead: Duration::ZERO,
            })
            .with_faults(FaultPlan::lossy(loss))
            .with_seed(42);
        let tcfg = TransportConfig {
            mtu: 4096,
            rto_base: Duration::from_millis(2),
            ..Default::default()
        };
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{:.0}%", loss * 100.0)),
            &loss,
            |b, _| b.iter_custom(|iters| run_transfer(fabric_cfg.clone(), tcfg, iters)),
        );
    }
    g.finish();
}

/// Buffer-model ablation at the transport layer: handing the endpoint a
/// refcounted payload view (what the zero-copy portals path does) vs copying
/// the message into a fresh flat buffer on every send (the old
/// `Arc<Mutex<Vec<u8>>>` model's behaviour).
fn bench_buffer_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("transport_buffer_model");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(MSG as u64));
    let tcfg = TransportConfig {
        mtu: 16 * 1024,
        ..Default::default()
    };
    for (label, copy_per_send) in [("region_view", false), ("flat_copy", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &tcfg, |b, &tcfg| {
            b.iter_custom(|iters| {
                let fabric = Fabric::new(FabricConfig::ideal());
                let a = Endpoint::new(fabric.attach(NodeId(0)), tcfg);
                let b = Endpoint::new(fabric.attach(NodeId(1)), tcfg);
                let payload = Bytes::from(vec![0x5au8; MSG]);
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    if copy_per_send {
                        a.send(NodeId(1), Bytes::from(payload.to_vec()));
                    } else {
                        a.send(NodeId(1), payload.clone());
                    }
                }
                for _ in 0..iters {
                    b.recv_timeout(Duration::from_secs(60)).expect("delivery");
                }
                t0.elapsed()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_mtu,
    bench_window,
    bench_loss,
    bench_buffer_model
);
criterion_main!(benches);

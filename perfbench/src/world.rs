//! The two-rank world each workload runs on, and its set-up.
//!
//! Two ranks on the ideal in-process fabric, one node each, built through
//! `runtime::Job`. Rank 0 (the origin) drives every closed loop from the
//! main thread; rank 1 (the target) serves it from a second thread. Both use
//! caller-driven progress, so those two threads are the only ones running.

use crate::payload::{Inputs, VARIANTS};
use portals::{EqHandle, MdHandle, MdSpec, MePos, NetworkInterface, NiConfig, Node};
use portals_mpi::{Communicator, Mpi, MpiConfig, Window};
use portals_net::Fabric;
use portals_netudp::{UdpLink, UdpLinkConfig};
use portals_obs::Obs;
use portals_runtime::{Job, JobConfig};
use portals_transport::TransportConfig;
use portals_types::{MatchBits, MatchCriteria, NodeId, ProcessId, ProgressMode, Region};
use std::sync::Arc;

/// Messages per stream window: the receiver pre-posts this many receives.
pub const STREAM_WINDOW: usize = 32;
/// Process id of the Portals-level interface each rank opens beside MPI's.
pub const AUX_PID: u32 = 50;
/// Portal index the Portals-level phases use on the auxiliary interfaces.
pub const PORTAL: u32 = 0;
pub const PING_BITS: u64 = 1;
pub const PUT_BITS: u64 = 2;
/// Get sources sit at `GET_BITS + k`, one per payload variant.
pub const GET_BITS: u64 = 0x10;
/// Fragment size the transport adopts on the in-process fabric.
pub const FABRIC_MTU: usize = 64 * 1024;
/// UDP datagram payload bound and wire batch of the traced run's loopback
/// rung: the link defaults.
pub const UDP_MAX_PAYLOAD: usize = 1432;
pub const UDP_BATCH: usize = 32;

/// One workload: a transfer size and an MPI protocol on the in-process
/// fabric.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Bytes moved by each put, get, sendrecv and rput.
    pub transfer: usize,
    pub mpi: MpiConfig,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        match name {
            "small_inproc" => Some(Workload {
                name: "small_inproc",
                transfer: 4 * 1024,
                mpi: MpiConfig::default(),
            }),
            "bulk_inproc" => Some(Workload {
                name: "bulk_inproc",
                transfer: 1024 * 1024,
                mpi: MpiConfig::default(),
            }),
            _ => None,
        }
    }
}

pub fn transport_config() -> TransportConfig {
    TransportConfig {
        progress_mode: ProgressMode::CallerDriven,
        ..Default::default()
    }
}

pub fn udp_link(nid: u32, obs: &Obs) -> UdpLink {
    UdpLink::bind(UdpLinkConfig {
        nid: NodeId(nid),
        max_payload: UDP_MAX_PAYLOAD,
        batch: UDP_BATCH,
        obs: obs.clone(),
        ..Default::default()
    })
    .expect("bind a loopback UDP link")
}

/// Connect two UDP links to each other.
pub fn pair_udp(a: &UdpLink, b: &UdpLink) {
    a.set_peer(b.nid(), b.local_addr());
    b.set_peer(a.nid(), a.local_addr());
}

/// Rank 0's resources.
pub struct Origin {
    pub comm: Communicator,
    pub aux: NetworkInterface,
    /// Initiator events of the Portals put/get phases (Sent, Ack, Reply).
    pub eq: EqHandle,
    /// One put source per payload variant.
    pub put_mds: Vec<MdHandle>,
    pub get_md: MdHandle,
    pub get_landing: Region,
    pub ping: PingPort,
    /// One send descriptor per ping payload variant.
    pub ping_mds: Vec<MdHandle>,
    pub counter_win: Window,
    pub bulk_win: Window,
    _mpi: Mpi,
    _node: Arc<Node>,
}

/// Rank 1's resources.
pub struct Target {
    pub comm: Communicator,
    pub aux: NetworkInterface,
    pub ping: PingPort,
    /// Sends whatever last landed in `ping.landing` back (the echo).
    pub echo_md: MdHandle,
    pub stream_bufs: Vec<Region>,
    pub sendrecv_bufs: Vec<Region>,
    /// Rank 1's halves of the windows: exposed, never driven from here.
    _counter_win: Window,
    _bulk_win: Window,
    _mpi: Mpi,
    _node: Arc<Node>,
}

/// A matched 8-byte landing zone with its own event queue, for the
/// Portals-level ping-pong.
pub struct PingPort {
    pub eq: EqHandle,
    pub landing: Region,
}

/// Handles on rank 1's memory, so rank 0 can check what landed there
/// outside its timed intervals (both ranks share this process).
pub struct Peek {
    pub put_target: Region,
    pub counter: Region,
    pub bulk: Region,
    pub stream_bufs: Vec<Region>,
    pub sendrecv_bufs: Vec<Region>,
}

/// A built world. Field order is drop order: ranks before the job that
/// owns the fabric.
pub struct World {
    pub origin: Origin,
    pub target: Target,
    pub peek: Peek,
    pub obs: Obs,
    pub job: Job,
}

impl World {
    pub fn fabric(&self) -> &Fabric {
        self.job.fabric()
    }
}

fn ping_port(ni: &NetworkInterface) -> PingPort {
    let eq = ni.eq_alloc(256).expect("ping eq");
    let landing = Region::zeroed(8);
    let me = ni
        .me_attach(
            PORTAL,
            ProcessId::ANY,
            MatchCriteria::exact(MatchBits::new(PING_BITS)),
            false,
            MePos::Back,
        )
        .expect("ping me");
    ni.md_attach(me, MdSpec::new(landing.clone()).with_eq(eq))
        .expect("ping md");
    PingPort { eq, landing }
}

fn attach(ni: &NetworkInterface, bits: u64, region: Region) {
    let me = ni
        .me_attach(
            PORTAL,
            ProcessId::ANY,
            MatchCriteria::exact(MatchBits::new(bits)),
            false,
            MePos::Back,
        )
        .expect("attach me");
    ni.md_attach(me, MdSpec::new(region)).expect("attach md");
}

/// Build the whole world: wire, nodes, interfaces, MPI, descriptors and
/// windows. Everything here is what `setup_s` times.
pub fn build(w: &Workload, inputs: &Inputs) -> World {
    let obs = Obs::default();
    let job_id = JobConfig::default().job_id;
    let (job, envs) = Job::build(
        2,
        JobConfig {
            transport: transport_config(),
            mpi: w.mpi,
            obs: obs.clone(),
            job_id,
            ..Default::default()
        },
    );
    let mut envs = envs.into_iter();
    let (r0, r1) = (envs.next().expect("rank 0"), envs.next().expect("rank 1"));
    let (mpi0, node0, mpi1, node1) = (r0.mpi, r0.node, r1.mpi, r1.node);
    // The job's access control admits only registered members.
    for nid in 0..2 {
        job.directory()
            .register(ProcessId::new(nid, AUX_PID), job_id);
    }
    let aux_cfg = NiConfig {
        job: job_id,
        ..Default::default()
    };
    let aux0 = node0.create_ni(AUX_PID, aux_cfg.clone()).expect("aux ni");
    let aux1 = node1.create_ni(AUX_PID, aux_cfg).expect("aux ni");

    // Target side: put sink, one get source per variant, ping port.
    let put_target = Region::zeroed(w.transfer);
    attach(&aux1, PUT_BITS, put_target.clone());
    for (k, region) in inputs.bulk.iter().enumerate() {
        attach(&aux1, GET_BITS + k as u64, region.clone());
    }
    let ping1 = ping_port(&aux1);
    let echo_md = aux1
        .md_bind(MdSpec::new(ping1.landing.clone()))
        .expect("echo md");
    let stream_bufs: Vec<Region> = (0..STREAM_WINDOW).map(|_| Region::zeroed(64)).collect();
    let sendrecv_bufs: Vec<Region> = (0..2).map(|_| Region::zeroed(w.transfer)).collect();

    // Origin side: initiator descriptors.
    let eq = aux0.eq_alloc(1024).expect("origin eq");
    let put_mds = inputs
        .bulk
        .iter()
        .map(|r| {
            aux0.md_bind(MdSpec::new(r.clone()).with_eq(eq))
                .expect("put md")
        })
        .collect();
    let get_landing = Region::zeroed(w.transfer);
    let get_md = aux0
        .md_bind(MdSpec::new(get_landing.clone()).with_eq(eq))
        .expect("get md");
    let ping0 = ping_port(&aux0);
    let ping_mds = inputs.ping[..VARIANTS]
        .iter()
        .map(|p| {
            aux0.md_bind(MdSpec::new(Region::copy_from_slice(p)))
                .expect("ping md")
        })
        .collect();

    // Windows are collective: rank 1 creates its pair on a helper thread.
    let (comm0, comm1) = (mpi0.world(), mpi1.world());
    let transfer = w.transfer;
    let (wins0, wins1) = std::thread::scope(|s| {
        let helper = s.spawn(|| windows(&comm1, transfer));
        let wins0 = windows(&comm0, transfer);
        (wins0, helper.join().expect("rank 1 window set-up"))
    });
    let peek = Peek {
        put_target,
        counter: wins1.0.local().clone(),
        bulk: wins1.1.local().clone(),
        stream_bufs: stream_bufs.clone(),
        sendrecv_bufs: sendrecv_bufs.clone(),
    };
    World {
        origin: Origin {
            comm: comm0,
            aux: aux0,
            eq,
            put_mds,
            get_md,
            get_landing,
            ping: ping0,
            ping_mds,
            counter_win: wins0.0,
            bulk_win: wins0.1,
            _mpi: mpi0,
            _node: node0,
        },
        target: Target {
            comm: comm1,
            aux: aux1,
            ping: ping1,
            echo_md,
            stream_bufs,
            sendrecv_bufs,
            _counter_win: wins1.0,
            _bulk_win: wins1.1,
            _mpi: mpi1,
            _node: node1,
        },
        peek,
        obs,
        job,
    }
}

/// A rank's fetch-add counter window (8 bytes) and bulk window.
fn windows(comm: &Communicator, transfer: usize) -> (Window, Window) {
    let counter = Window::create(comm, 1, Region::zeroed(8)).expect("counter window");
    let bulk = Window::create(comm, 2, Region::zeroed(transfer)).expect("bulk window");
    (counter, bulk)
}

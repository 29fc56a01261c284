//! Cooperative caller-driven progress: the driver registry.
//!
//! In threadless mode no thread stands behind an idle node, so a process that
//! parks in `eq_wait` must be able to advance its *peers'* protocol state —
//! the in-process simulation analogue of every real process polling its own
//! NIC. A node (or bare transport endpoint) registers itself with its link's
//! [`DriverHub`]; after each of its own progress steps it reports to the hub
//! through [`DriverHub::after_own_step`], which decides whether this caller
//! also steps its peers.
//!
//! # The peer-service policy
//!
//! There is one rule, and it lives in [`DriverHub::after_own_step`]: peers
//! are stepped only after an own-node step that did no work, and then only
//! on every [`PEER_SERVICE_EVERY`]-th such idle step or at a wait loop's park
//! boundary. In a multi-threaded process each peer normally has its own
//! caller driving it; stepping it from here on every call turns two callers
//! into sustained contention on each other's dispatch and core locks
//! (measured 4x worse small-message round trips). The decimated cadence still
//! keeps a single-threaded simulation — where nobody else will ever step the
//! peer — live, whether its caller blocks in a wait or polls non-blocking
//! accessors.
//!
//! The registry is deliberately independent of the fabric: it is a property of
//! *which nodes share a process*, not of which wire carries their packets, so
//! any [`Link`](crate::Link) backend (the in-process fabric, a UDP socket) can
//! hand out hubs over its own registry.

use parking_lot::RwLock;
use portals_types::NodeId;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Weak};

/// Idle own-node steps per peer service (see the module docs). A wait loop's
/// park boundary services peers regardless.
const PEER_SERVICE_EVERY: u32 = 32;

/// One registration: the node and a non-owning handle to its driver.
type Registration = (NodeId, Weak<dyn NodeDriver>);

/// A protocol stack that can be driven cooperatively by *other* threads'
/// blocking waits (the caller-driven progress mode).
///
/// Implementations must be re-entrancy-safe against concurrent `service`
/// calls from different threads (internally they take a non-blocking
/// try-lock and bail if another thread is already inside).
pub trait NodeDriver: Send + Sync {
    /// Advance this node's protocol state machines once. Returns `true` if
    /// any work was performed.
    fn service(&self) -> bool;
    /// Cheap test: is there pending work (raised readiness bits, a due
    /// retransmission timer) that `service` would act on?
    fn has_work(&self) -> bool;
}

/// The set of cooperative drivers sharing one process: who can be serviced
/// from whose wait loop. One registry typically backs all the nodes attached
/// to one link backend instance.
#[derive(Default)]
pub struct DriverRegistry {
    /// `Weak` so the registry never keeps a node alive — and never forms a
    /// cycle through the node's own `Arc` of its link state. Copy-on-write:
    /// registration (rare) builds a new list, so servicing (hot) snapshots it
    /// with a refcount bump instead of copying it.
    drivers: RwLock<Arc<Vec<Registration>>>,
}

impl DriverRegistry {
    /// An empty registry.
    pub fn new() -> DriverRegistry {
        DriverRegistry::default()
    }

    /// Register (or replace) the cooperative driver for `nid`.
    pub fn register(&self, nid: NodeId, driver: Weak<dyn NodeDriver>) {
        self.update(|drivers| {
            if let Some(slot) = drivers.iter_mut().find(|(n, _)| *n == nid) {
                slot.1 = driver;
            } else {
                drivers.push((nid, driver));
            }
        });
    }

    /// Drop the cooperative driver registered for `nid`, if any.
    pub fn unregister(&self, nid: NodeId) {
        self.update(|drivers| drivers.retain(|(n, _)| *n != nid));
    }

    /// Replace the registration list with an edited copy.
    fn update(&self, edit: impl FnOnce(&mut Vec<Registration>)) {
        let mut drivers = self.drivers.write();
        let mut next = Vec::clone(&drivers);
        edit(&mut next);
        *drivers = Arc::new(next);
    }

    /// Service every registered driver other than `own` that reports pending
    /// work. Returns `true` if any driver performed work. Dead registrations
    /// (dropped nodes) are pruned as encountered.
    pub fn service_peers(&self, own: NodeId) -> bool {
        // Snapshot under the read lock, service outside it: a serviced driver
        // may attach/detach nodes or re-enter the fabric.
        let snapshot = Arc::clone(&self.drivers.read());
        let mut worked = false;
        let mut dead = false;
        for (_, weak) in snapshot.iter().filter(|(n, _)| *n != own) {
            match weak.upgrade() {
                Some(driver) => {
                    if driver.has_work() && driver.service() {
                        worked = true;
                    }
                }
                None => dead = true,
            }
        }
        if dead {
            self.update(|drivers| drivers.retain(|(_, w)| w.strong_count() > 0));
        }
        worked
    }
}

impl std::fmt::Debug for DriverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DriverRegistry({} drivers)", self.drivers.read().len())
    }
}

/// A handle for participating in cooperative caller-driven progress: register
/// a [`NodeDriver`] for this node and service peers' pending work from wait
/// loops. Obtained from a link backend (e.g.
/// [`Nic::driver_hub`](crate::Nic::driver_hub)); cheap to clone. Clones share
/// the idle-step count [`DriverHub::after_own_step`] keeps, so every layer
/// driving one node (its endpoint, the node above it) follows one cadence.
#[derive(Clone)]
pub struct DriverHub {
    nid: NodeId,
    registry: Arc<DriverRegistry>,
    /// Own-node steps since the last one that did work or serviced peers.
    idle_steps: Arc<AtomicU32>,
}

impl DriverHub {
    /// A hub for `nid` over `registry`. Link backends call this; consumers
    /// get hubs from their link.
    pub fn new(nid: NodeId, registry: Arc<DriverRegistry>) -> DriverHub {
        DriverHub {
            nid,
            registry,
            idle_steps: Arc::new(AtomicU32::new(0)),
        }
    }

    /// The node this hub handle belongs to.
    pub fn nid(&self) -> NodeId {
        self.nid
    }

    /// Register (or replace) this node's cooperative driver.
    pub fn register(&self, driver: Weak<dyn NodeDriver>) {
        self.registry.register(self.nid, driver);
    }

    /// Remove this node's cooperative driver.
    pub fn unregister(&self) {
        self.registry.unregister(self.nid);
    }

    /// Advance every *other* registered node that has pending work. Returns
    /// `true` if anything was done. Unconditional: progress loops go through
    /// [`DriverHub::after_own_step`], which applies the cadence.
    pub(crate) fn service_peers(&self) -> bool {
        self.registry.service_peers(self.nid)
    }

    /// The peer-service policy (see the module docs). Call after each
    /// caller-driven progress step of this node, with whether that step did
    /// work and whether the caller is about to park. Steps the peers when the
    /// policy says so; returns `true` if that did any work.
    pub fn after_own_step(&self, own_worked: bool, parking: bool) -> bool {
        if own_worked {
            self.idle_steps.store(0, Ordering::Relaxed);
            return false;
        }
        let idle = self
            .idle_steps
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1);
        if !parking && idle % PEER_SERVICE_EVERY != 0 {
            return false;
        }
        let worked = self.service_peers();
        if worked {
            self.idle_steps.store(0, Ordering::Relaxed);
        }
        worked
    }
}

impl std::fmt::Debug for DriverHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DriverHub({})", self.nid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A peer that always has work and counts how often it was stepped.
    #[derive(Default)]
    struct Peer {
        stepped: AtomicU64,
    }

    impl NodeDriver for Peer {
        fn service(&self) -> bool {
            self.stepped.fetch_add(1, Ordering::Relaxed);
            true
        }
        fn has_work(&self) -> bool {
            true
        }
    }

    #[test]
    fn peers_are_stepped_only_on_the_idle_cadence_and_at_the_park() {
        let registry = Arc::new(DriverRegistry::new());
        let own = DriverHub::new(NodeId(0), Arc::clone(&registry));
        let peer = Arc::new(Peer::default());
        DriverHub::new(NodeId(1), Arc::clone(&registry))
            .register(Arc::downgrade(&peer) as Weak<dyn NodeDriver>);
        let stepped = || peer.stepped.load(Ordering::Relaxed);

        // Busy own steps never service peers, and each resets the count.
        for _ in 0..3 * PEER_SERVICE_EVERY {
            assert!(!own.after_own_step(true, false));
        }
        assert_eq!(stepped(), 0);
        // Idle steps: exactly the PEER_SERVICE_EVERY-th one services.
        for i in 1..PEER_SERVICE_EVERY {
            assert!(!own.after_own_step(false, false), "idle step {i}");
        }
        assert!(own.after_own_step(false, false));
        assert_eq!(stepped(), 1);
        // A clone shares the count: a busy step through it restarts it.
        own.clone().after_own_step(true, false);
        for _ in 1..PEER_SERVICE_EVERY {
            own.after_own_step(false, false);
        }
        assert_eq!(stepped(), 1);
        // The park boundary services regardless of the count.
        assert!(own.after_own_step(false, true));
        assert_eq!(stepped(), 2);
    }
}

//! Virtual-channel views over the network's router slab.
//!
//! External readers (the CWG validator, the deadlock-witness formatter,
//! tests) observe a VC through the borrowing [`VcRef`] view and the
//! [`OutVc`] snapshot; both are zero-cost facades over the flat arrays in
//! the slab (see [`crate::Router`]).

use crate::flit::Flit;
use crate::router::Slab;
use mdd_protocol::MsgHandle;
use mdd_topology::PortId;

/// Read view of one input virtual channel: a finite flit FIFO plus the
/// wormhole routing state of the packet currently at its front.
///
/// ```
/// use mdd_router::Network;
/// use mdd_topology::{NodeId, PortId, Topology, TopologyKind};
/// let net = Network::new(Topology::new(TopologyKind::Torus, &[4], 1), 4, 2);
/// let vc = net.router(NodeId(1)).vc(PortId(1), 2);
/// assert!(vc.is_empty());
/// assert!(!vc.awaiting_route()); // empty: nothing to route
/// assert_eq!(vc.free_slots(), vc.capacity());
/// ```
#[derive(Clone, Copy)]
pub struct VcRef<'a> {
    slab: &'a Slab,
    /// Flat slot index `router * slots + slot`.
    i: usize,
}

impl std::fmt::Debug for VcRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VcRef")
            .field("len", &self.len())
            .field("route", &self.route())
            .field("blocked_since", &self.blocked_since())
            .finish()
    }
}

impl<'a> VcRef<'a> {
    #[inline]
    pub(crate) fn new(slab: &'a Slab, i: usize) -> Self {
        VcRef { slab, i }
    }

    /// Buffer capacity in flits (the paper's default is 2).
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.slab.dims.depth as u32
    }

    /// Buffered flits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.slab.len_at(self.i) as u32
    }

    /// True when no flit is buffered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free buffer slots.
    #[inline]
    pub fn free_slots(&self) -> u32 {
        self.capacity() - self.len()
    }

    /// The flit at the front, if any.
    #[inline]
    pub fn front(&self) -> Option<Flit> {
        self.get(0)
    }

    /// The most recently buffered flit, if any.
    #[inline]
    pub fn back(&self) -> Option<Flit> {
        self.len().checked_sub(1).and_then(|k| self.get(k as usize))
    }

    /// The `k`-th buffered flit (0 = front), if present.
    #[inline]
    pub fn get(&self, k: usize) -> Option<Flit> {
        (k < self.slab.len_at(self.i)).then(|| self.slab.flit_at(self.i, k))
    }

    /// The allocated route of the front packet: `(output port, output vc)`.
    /// `None` while the head flit awaits route computation / VC allocation.
    #[inline]
    pub fn route(&self) -> Option<(PortId, u8)> {
        match self.slab.route[self.i] {
            0 => None,
            p => Some((PortId(p - 1), self.slab.route_vc[self.i])),
        }
    }

    /// True if the front flit is a head awaiting VC allocation.
    #[inline]
    pub fn awaiting_route(&self) -> bool {
        self.route().is_none() && self.front().is_some_and(|f| f.is_head())
    }

    /// Packet id of the front flit, if any.
    #[inline]
    pub fn front_packet(&self) -> Option<MsgHandle> {
        self.front().map(|f| f.msg)
    }

    /// First cycle at which the front flit failed to advance; `None` while
    /// it is making progress.
    #[inline]
    pub fn blocked_since(&self) -> Option<u64> {
        self.slab.blocked[self.i].checked_sub(1)
    }

    /// Duration (in cycles, as of `now`) the front flit has been blocked.
    #[inline]
    pub fn blocked_for(&self, now: u64) -> u64 {
        match self.blocked_since() {
            Some(t) => now.saturating_sub(t),
            None => 0,
        }
    }
}

/// Snapshot of an output virtual channel's state: which packet holds it
/// and how many credits (free downstream buffer slots) remain.
#[derive(Clone, Copy, Debug)]
pub struct OutVc {
    /// The packet holding this output VC (wormhole: held from head until
    /// tail transmission).
    pub owner: Option<MsgHandle>,
    /// Free flit-buffer slots in the downstream input VC.
    pub credits: u32,
}

impl OutVc {
    /// True if unowned (a new packet may allocate it).
    #[inline]
    pub fn is_free(&self) -> bool {
        self.owner.is_none()
    }
}

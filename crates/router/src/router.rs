//! Router state: one router-major structure-of-arrays slab for the whole
//! network, and the borrowed [`Router`] read view over one router's rows.
//!
//! Every field is one flat array owned by the network. Per-slot fields
//! are indexed `r * slots + s` (flat slot `s = port * vcs + vc`),
//! per-port fields `r * ports + p`, per-router scalars `r`, and flit
//! storage `(r * slots + s) * depth + k` (one `depth`-entry ring per
//! slot). A pass over an ascending worklist therefore reads each array in
//! address order, and consecutive routers sit next to each other.
//!
//! Sentinels are encoded so that all-zero bytes are a pristine router
//! (empty buffers, full credits, nothing routed, owned or blocked): the
//! route is stored as port + 1, the blocked timer as cycle + 1, the stall
//! memo as epoch + 1, and output credits as credits *used*. Every array
//! is allocated zeroed, so construction writes nothing and a router that
//! never sees a flit costs only untouched zero pages.

use crate::flit::Flit;
use crate::vc::{OutVc, VcRef};
use mdd_protocol::{HandleBits, MsgHandle};
use mdd_topology::PortId;

/// Deepest flit buffer per virtual channel the router state supports:
/// ring heads, buffer lengths and used-credit counts are `u16`.
pub const MAX_BUF_DEPTH: u32 = u16::MAX as u32;

/// Shape of one router's rows: the strides of the slab's arrays.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Dims {
    pub(crate) ports: usize,
    pub(crate) vcs: usize,
    /// `ports * vcs` (at most 128: one `u128` masks a router).
    pub(crate) slots: usize,
    pub(crate) depth: usize,
}

impl Dims {
    pub(crate) fn new(ports: usize, vcs: u8, buf_depth: u32) -> Self {
        let slots = ports * vcs as usize;
        assert!(
            slots <= 128,
            "occupancy bitmask supports at most 128 VC slots per router"
        );
        assert!(
            buf_depth <= MAX_BUF_DEPTH,
            "flit buffers deeper than 65535 are unsupported"
        );
        Dims {
            ports,
            vcs: vcs as usize,
            slots,
            depth: buf_depth as usize,
        }
    }
}

/// Entries per router of an array of the given kind.
macro_rules! stride {
    ($d:expr, flit) => {
        $d.slots * $d.depth
    };
    ($d:expr, slot) => {
        $d.slots
    };
    ($d:expr, port) => {
        $d.ports
    };
    ($d:expr, router) => {
        1
    };
}

/// Declares the slab's arrays once and derives from that list the owning
/// [`Slab`], the mutable window [`Rows`], and the whole-row operations
/// (allocate, split, copy, zero, size), so no operation can miss a field.
macro_rules! slab {
    ($($(#[$doc:meta])* $name:ident: [$ty:ty; $kind:ident],)*) => {
        /// The network's router state: every array router-major, allocated
        /// zeroed (see the module docs for the layout and the encodings).
        #[derive(Debug, Default)]
        pub(crate) struct Slab {
            pub(crate) dims: Dims,
            /// Number of routers.
            pub(crate) routers: usize,
            $($(#[$doc])* pub(crate) $name: Vec<$ty>,)*
        }

        /// A mutable window over a contiguous router range of the slab:
        /// the whole network for the sequential step, one shard's range
        /// for the sharded step. Indexes are relative to the window start.
        pub(crate) struct Rows<'a> {
            pub(crate) dims: Dims,
            $(pub(crate) $name: &'a mut [$ty],)*
        }

        impl Slab {
            /// A slab for `routers` routers whose arrays are not allocated
            /// yet ([`Slab::allocate`]).
            pub(crate) fn new(dims: Dims, routers: usize) -> Self {
                Slab {
                    dims,
                    routers,
                    ..Slab::default()
                }
            }

            /// Allocate every array zeroed: `routers` pristine routers.
            /// Writes nothing itself (recycled heap memory may still cost
            /// the allocator a clearing pass).
            pub(crate) fn allocate(&mut self) {
                let d = self.dims;
                $(self.$name = vec![<$ty>::default(); self.routers * stride!(d, $kind)];)*
            }

            /// True once [`Slab::allocate`] has run.
            #[inline]
            pub(crate) fn is_allocated(&self) -> bool {
                !self.flits.is_empty()
            }

            /// The whole slab as one mutable window.
            #[inline]
            pub(crate) fn rows_mut(&mut self) -> Rows<'_> {
                Rows {
                    dims: self.dims,
                    $($name: &mut self.$name,)*
                }
            }

            /// Copy routers `lo..hi` of `src` (same shape) over this slab's.
            #[cfg(debug_assertions)]
            pub(crate) fn copy_rows(&mut self, src: &Slab, lo: usize, hi: usize) {
                let d = self.dims;
                $(
                    let k = stride!(d, $kind);
                    self.$name[lo * k..hi * k].copy_from_slice(&src.$name[lo * k..hi * k]);
                )*
            }

            /// Reset routers `lo..hi` to pristine (all zero).
            pub(crate) fn zero_rows(&mut self, lo: usize, hi: usize) {
                let d = self.dims;
                $(
                    let k = stride!(d, $kind);
                    self.$name[lo * k..hi * k].fill(<$ty>::default());
                )*
            }

            /// Bytes of state per router, summed over every array.
            pub(crate) fn row_bytes(&self) -> u64 {
                let d = self.dims;
                (0 $(+ stride!(d, $kind) * std::mem::size_of::<$ty>())*) as u64
            }
        }

        impl<'a> Rows<'a> {
            /// Split into the first `n` routers and the rest.
            pub(crate) fn split_at(self, n: usize) -> (Rows<'a>, Rows<'a>) {
                let d = self.dims;
                $(let $name = self.$name.split_at_mut(n * stride!(d, $kind));)*
                (
                    Rows { dims: d, $($name: $name.0,)* },
                    Rows { dims: d, $($name: $name.1,)* },
                )
            }
        }
    };
}

slab! {
    /// Flit storage, message half ([`MsgHandle::to_bits`]).
    fl_msg: [HandleBits; flit],
    /// Flit storage, `seq << 1 | is_tail`.
    fl_seq: [u32; flit],
    /// Ring head offset of each slot's FIFO (`< depth`).
    head: [u16; slot],
    /// Buffered flits per slot (`<= depth`).
    len: [u16; slot],
    /// Allocated output port of the front packet, plus one (0 = unrouted).
    route: [u8; slot],
    /// Allocated output VC of the front packet (valid iff routed).
    route_vc: [u8; slot],
    /// First cycle the front flit failed to advance, plus one (0 = making
    /// progress). Drives the deadlock-detection timers.
    blocked: [u64; slot],
    /// Allocation-stall memo: the router's `alloc_epoch` plus one at
    /// which this slot's head last found every candidate output VC owned
    /// (0 = none). While it still matches, the candidate recomputation is
    /// skipped: no output VC on this router was released since.
    /// Invalidated whenever the slot's front flit changes.
    stall_epoch: [u64; slot],
    /// Owner of each output VC, valid only where `out_owned` has the bit.
    out_owner: [HandleBits; slot],
    /// Credits in use per output VC: flits sent downstream whose buffer
    /// slot has not been returned yet. `depth - out_used` credits remain.
    out_used: [u16; slot],
    /// Busy cycles per output VC (only network ports are incremented).
    vc_busy: [u64; slot],
    /// Switch-allocation round-robin pointer per output port (`< slots`).
    rr_out: [u8; port],
    /// Occupancy mask: bit `s` set iff slot `s` buffers at least one flit.
    /// Scanning set bits in rotated ascending order reproduces the dense
    /// full-array scan, because every slot that scan acts on holds a flit.
    in_occ: [u128; router],
    /// Ownership mask: bit `s` set iff output VC `s` is held by a packet.
    out_owned: [u128; router],
    /// Rotation offset for the VC-allocation scan, advanced once per cycle.
    rr_alloc: [u32; router],
    /// First cycle whose `rr_alloc` advance has not been applied yet. A
    /// woken router catches up lazily ([`Rows::sync_rr_alloc`]) to the
    /// offset the dense schedule would have produced.
    rr_cycle: [u64; router],
    /// Bumped every time an output VC is released; the validity clock of
    /// `stall_epoch`.
    alloc_epoch: [u64; router],
    /// Buffered flits per router: O(1) occupancy for quiescence checks and
    /// the blocked-head sweep.
    flits: [u32; router],
    /// True when the router's latest fused pass proved it fully stalled:
    /// no grant, no allocation, every waiting head memo-stalled away from
    /// its destination. It then sleeps until an external event wakes it
    /// (destination heads disqualify: ejection must be re-asked every
    /// cycle as endpoint queues drain without waking the router).
    sleep_ok: [bool; router],
    /// Cycle of the router's last fused pass, paired with `sleep_stalls`
    /// to reconstruct the stall count a re-arming scheduler would have
    /// accumulated across a slept gap.
    last_pass: [u64; router],
    /// Memo-stalled waiting heads when the router went to sleep.
    sleep_stalls: [u32; router],
}

/// Flit at ring position `k` (0 = front) of the FIFO whose flat slot
/// index (`r * slots + s`) is `i`.
#[inline]
fn ring_flit(
    fl_msg: &[HandleBits],
    fl_seq: &[u32],
    head: &[u16],
    depth: usize,
    i: usize,
    k: usize,
) -> Flit {
    let pos = i * depth + (head[i] as usize + k) % depth;
    unpack(fl_msg[pos], fl_seq[pos])
}

#[inline]
fn unpack(msg: HandleBits, seq: u32) -> Flit {
    Flit {
        msg: MsgHandle::from_bits(msg),
        seq: seq >> 1,
        is_tail: seq & 1 == 1,
    }
}

impl Slab {
    /// Buffered flits in flat slot `i`.
    #[inline]
    pub(crate) fn len_at(&self, i: usize) -> usize {
        self.len[i] as usize
    }

    /// The `k`-th buffered flit of flat slot `i` (0 = front); `k < len`.
    #[inline]
    pub(crate) fn flit_at(&self, i: usize, k: usize) -> Flit {
        debug_assert!(k < self.len[i] as usize);
        ring_flit(
            &self.fl_msg,
            &self.fl_seq,
            &self.head,
            self.dims.depth,
            i,
            k,
        )
    }
}

impl Rows<'_> {
    /// The `k`-th buffered flit of slot `s` of router `li` (0 = front);
    /// caller guarantees `k < len`.
    #[inline]
    pub(crate) fn flit_at(&self, li: usize, s: usize, k: usize) -> Flit {
        let i = li * self.dims.slots + s;
        debug_assert!(k < self.len[i] as usize);
        ring_flit(self.fl_msg, self.fl_seq, self.head, self.dims.depth, i, k)
    }

    /// Append an arriving flit to slot `s` of router `li`. Panics on
    /// overflow (credits must prevent it). Marks occupancy and, when the
    /// flit becomes the front, invalidates the stall memo.
    #[inline]
    pub(crate) fn push_flit(&mut self, li: usize, s: usize, flit: Flit) {
        assert!(
            flit.seq < 1 << 31,
            "flit sequence number exceeds the 31-bit ring encoding"
        );
        let depth = self.dims.depth;
        let i = li * self.dims.slots + s;
        let len = self.len[i] as usize;
        assert!(
            len < depth,
            "VC buffer overflow: credit accounting violated"
        );
        let pos = i * depth + (self.head[i] as usize + len) % depth;
        self.fl_msg[pos] = flit.msg.to_bits();
        self.fl_seq[pos] = flit.seq << 1 | flit.is_tail as u32;
        self.len[i] = (len + 1) as u16;
        if len == 0 {
            self.in_occ[li] |= 1 << s;
            self.stall_epoch[i] = 0;
        }
    }

    /// Remove and return the front flit of slot `s` of router `li`. The
    /// front changes, so the stall memo is invalidated.
    #[inline]
    pub(crate) fn pop_flit(&mut self, li: usize, s: usize) -> Flit {
        let depth = self.dims.depth;
        let i = li * self.dims.slots + s;
        debug_assert!(self.len[i] > 0, "pop from empty VC buffer");
        let flit = ring_flit(self.fl_msg, self.fl_seq, self.head, depth, i, 0);
        self.head[i] = ((self.head[i] as usize + 1) % depth) as u16;
        self.len[i] -= 1;
        if self.len[i] == 0 {
            self.in_occ[li] &= !(1 << s);
        }
        self.stall_epoch[i] = 0;
        flit
    }

    /// Remove the contiguous run `[start, start + n)` of buffered flits
    /// from slot `s` of router `li` in one block operation: a front run
    /// is a head advance, a back run a length cut, a middle run one block
    /// shift of the tail — never a per-flit walk.
    pub(crate) fn remove_run(&mut self, li: usize, s: usize, start: usize, n: usize) {
        let depth = self.dims.depth;
        let i = li * self.dims.slots + s;
        let len = self.len[i] as usize;
        let head = self.head[i] as usize;
        debug_assert!(n > 0 && start + n <= len);
        if start == 0 {
            self.head[i] = ((head + n) % depth) as u16;
        } else {
            // A no-op for a back run: the loop body never executes.
            for k in start..(len - n) {
                let src = i * depth + (head + k + n) % depth;
                let dst = i * depth + (head + k) % depth;
                self.fl_msg[dst] = self.fl_msg[src];
                self.fl_seq[dst] = self.fl_seq[src];
            }
        }
        self.len[i] = (len - n) as u16;
        if self.len[i] == 0 {
            self.in_occ[li] &= !(1 << s);
        }
        self.stall_epoch[i] = 0;
    }

    /// True if output VC `s` of router `li` is unowned.
    #[inline]
    pub(crate) fn out_free(&self, li: usize, s: usize) -> bool {
        self.out_owned[li] >> s & 1 == 0
    }

    /// Record `h` as the owner of output VC `s` of router `li`.
    #[inline]
    pub(crate) fn own_out(&mut self, li: usize, s: usize, h: MsgHandle) {
        self.out_owner[li * self.dims.slots + s] = h.to_bits();
        self.out_owned[li] |= 1 << s;
    }

    /// Release output VC `s` of router `li`. Advances the allocation
    /// epoch: a freed output VC is the only event that can turn a stalled
    /// allocation into a success, so every memoized stall expires here.
    #[inline]
    pub(crate) fn release_out(&mut self, li: usize, s: usize) {
        self.out_owned[li] &= !(1 << s);
        self.alloc_epoch[li] += 1;
    }

    /// Apply the per-cycle `rr_alloc` advance for every cycle since router
    /// `li` was last processed, up to (not including) `cycle`.
    #[inline]
    pub(crate) fn sync_rr_alloc(&mut self, li: usize, cycle: u64) {
        let lag = cycle.saturating_sub(self.rr_cycle[li]);
        if lag > 0 {
            self.rr_alloc[li] = self.rr_alloc[li].wrapping_add(lag as u32);
            self.rr_cycle[li] = cycle;
        }
    }
}

/// Read view of one router's rows in the network slab: `ports` input and
/// output ports, each with `vcs` virtual channels. A router that never
/// held a flit reads pristine: empty buffers, full credits, no owners.
///
/// ```
/// use mdd_router::Network;
/// use mdd_topology::{NodeId, PortId, Topology, TopologyKind};
///
/// let net = Network::new(Topology::new(TopologyKind::Torus, &[4, 4], 1), 2, 2);
/// let r = net.router(NodeId(5));
/// assert_eq!(r.ports(), 5);
/// assert_eq!(r.vcs(), 2);
/// let vc = r.vc(PortId(3), 1);
/// assert_eq!(vc.capacity(), 2);
/// assert_eq!(vc.free_slots(), 2);
/// assert!(vc.front().is_none() && vc.route().is_none());
/// let ovc = r.out_vc(PortId(3), 1);
/// assert!(ovc.is_free());
/// assert_eq!(ovc.credits, 2);
/// ```
#[derive(Clone, Copy)]
pub struct Router<'a> {
    slab: &'a Slab,
    r: usize,
}

impl std::fmt::Debug for Router<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("buffered_flits", &self.buffered_flits())
            .finish()
    }
}

impl<'a> Router<'a> {
    #[inline]
    pub(crate) fn new(slab: &'a Slab, r: usize) -> Self {
        Router { slab, r }
    }

    /// Number of ports.
    #[inline]
    pub fn ports(&self) -> usize {
        self.slab.dims.ports
    }

    /// Virtual channels per port.
    #[inline]
    pub fn vcs(&self) -> u8 {
        self.slab.dims.vcs as u8
    }

    /// Flit-buffer depth per VC.
    #[inline]
    pub fn buf_depth(&self) -> u32 {
        self.slab.dims.depth as u32
    }

    /// Flat slab index of `(port, vc)` of this router.
    #[inline]
    fn flat(&self, port: usize, vc: usize) -> usize {
        self.r * self.slab.dims.slots + port * self.slab.dims.vcs + vc
    }

    /// Read view of an input VC.
    ///
    /// ```
    /// use mdd_router::Network;
    /// use mdd_topology::{NodeId, PortId, Topology, TopologyKind};
    /// let net = Network::new(Topology::new(TopologyKind::Torus, &[4, 4], 1), 2, 2);
    /// let r = net.router(NodeId(0));
    /// assert!(r.vc(PortId(2), 0).front().is_none());
    /// assert_eq!(r.vc(PortId(2), 0).blocked_for(100), 0);
    /// ```
    #[inline]
    pub fn vc(&self, port: PortId, vc: u8) -> VcRef<'a> {
        VcRef::new(self.slab, self.flat(port.index(), vc as usize))
    }

    /// Snapshot of an output VC's state (owner and credits).
    ///
    /// ```
    /// use mdd_router::Network;
    /// use mdd_topology::{NodeId, PortId, Topology, TopologyKind};
    /// let net = Network::new(Topology::new(TopologyKind::Torus, &[4, 4], 1), 2, 2);
    /// let r = net.router(NodeId(0));
    /// let out = r.out_vc(PortId(1), 1);
    /// assert!(out.is_free());                  // no wormhole holds it yet
    /// assert_eq!(out.credits, r.buf_depth());  // downstream buffer empty
    /// ```
    #[inline]
    pub fn out_vc(&self, port: PortId, vc: u8) -> OutVc {
        let s = port.index() * self.slab.dims.vcs + vc as usize;
        let i = self.r * self.slab.dims.slots + s;
        OutVc {
            owner: if self.slab.out_owned[self.r] >> s & 1 == 1 {
                Some(MsgHandle::from_bits(self.slab.out_owner[i]))
            } else {
                None
            },
            credits: self.buf_depth() - u32::from(self.slab.out_used[i]),
        }
    }

    /// Total buffered flits across all input VCs.
    pub fn buffered_flits(&self) -> u32 {
        let slots = self.slab.dims.slots;
        self.slab.len[self.r * slots..(self.r + 1) * slots]
            .iter()
            .map(|&l| u32::from(l))
            .sum()
    }

    /// Iterate `(port, vc_index, vc view)` over all input VCs.
    ///
    /// ```
    /// use mdd_router::Network;
    /// use mdd_topology::{NodeId, Topology, TopologyKind};
    /// let net = Network::new(Topology::new(TopologyKind::Torus, &[4], 1), 4, 2);
    /// let r = net.router(NodeId(0));
    /// assert_eq!(r.iter_vcs().count(), 3 * 4); // every (port, vc) slot
    /// assert!(r.iter_vcs().all(|(_, _, vc)| vc.is_empty()));
    /// ```
    pub fn iter_vcs(&self) -> impl Iterator<Item = (PortId, u8, VcRef<'a>)> + 'a {
        let Router { slab, r } = *self;
        let (slots, nvcs) = (slab.dims.slots, slab.dims.vcs);
        (0..slots).map(move |s| {
            (
                PortId((s / nvcs) as u8),
                (s % nvcs) as u8,
                VcRef::new(slab, r * slots + s),
            )
        })
    }
}

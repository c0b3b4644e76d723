//! The network: all routers, links, and the per-cycle pipeline.
//!
//! ## Link wiring convention
//!
//! Output port `(d, dir)` of router `R` connects to input port
//! `(d, dir.opposite())` of `neighbor(R, d, dir)`, at the same virtual
//! channel index. An input port named `(d, Minus)` therefore carries
//! traffic flowing in the `Plus` direction ("arriving from the Minus
//! side").
//!
//! ## Router state
//!
//! Every router's state lives in one router-major structure-of-arrays
//! slab owned by the network (layout and zero encodings in
//! [`crate::Router`]'s module). All arrays are allocated zeroed at the
//! first injection or step, and all-zero bytes are a pristine router, so
//! neither construction nor an idle router writes anything.
//! One *touched* bit per router, set at the only two points a flit can
//! first reach a router (NIC injection and link arrival), bounds every
//! whole-network walk (extraction, blocked-head sweeps, reset, audit, the
//! debug shadow) to the routers traffic actually reached.
//!
//! ## Cycle structure (one [`Network::step`])
//!
//! Semantically, a cycle consists of four phases — (1) route computation &
//! VC allocation, (2) switch allocation, (3) link traversal, (4) the
//! blocked-timer sweep — with every decision in phases 1–2 observing
//! start-of-cycle state, so a flit advances at most one hop per cycle.
//!
//! Mechanically, phases 1, 2 and 4 are *fused* into one pass over each
//! woken router's occupancy bitmask (`router_pass`), and phase 3 applies
//! the granted moves afterwards (`apply_moves`). The fusion is exact
//! because phase-1/2 mutations are router-local (routes, output-VC
//! ownership), credits are only mutated in phase 3, and switch grants pick
//! the minimum round-robin rank — a function of the request *set*, not of
//! the order requests were gathered in. The blocked-timer outcome of the
//! trailing sweep is reproduced by marking occupied slots before moves and
//! patching the moved/arrived slots during phase 3.
//!
//! The sequential step and [`Network::step_sharded`] run the same pass:
//! the sequential step is one shard spanning every router, so it never
//! produces a cross-shard effect. In debug builds every cycle is
//! re-executed by a literal four-phase reference implementation on a
//! snapshot and the two end states are compared field by field.

use crate::flit::{Flit, PacketState, PacketTable};
use crate::router::{Dims, Router, Rows, Slab};
use crate::traits::{EjectControl, RouteCandidate, Routing};
use mdd_obs::CounterId;
use mdd_protocol::{Message, MsgHandle};
use mdd_topology::{NicId, NodeId, PortId, Topology};

/// Aggregate transport counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct NetworkCounters {
    /// Total flit-hops (including ejection hops).
    pub flits_moved: u64,
    /// Flits delivered to endpoints.
    pub flits_delivered: u64,
    /// Complete packets delivered to endpoints.
    pub packets_delivered: u64,
    /// Packets registered for injection.
    pub packets_injected: u64,
    /// Flits accepted from endpoints into injection buffers.
    pub flits_injected: u64,
}

/// A packet removed from normal virtual-channel resources for progressive
/// recovery over the deadlock-buffer lane.
#[derive(Clone, Copy, Debug)]
pub struct ExtractedPacket {
    /// Handle of the message being rescued (still owned by the store).
    pub msg: MsgHandle,
    /// Router where the head flit was found (the rescue starting point);
    /// the source NIC's router if the head had not yet entered the network.
    pub head_router: NodeId,
    /// Flits reclaimed from network buffers.
    pub flits_in_network: u32,
    /// Original injection cycle.
    pub injected_at: u64,
}

/// A conservation law [`Network::audit`] found broken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// On a network link VC, the upstream router's used credits differ
    /// from the flits buffered downstream (credits + buffered != depth).
    Credits {
        /// Upstream router.
        router: NodeId,
        /// Its output port.
        port: PortId,
        /// Virtual channel.
        vc: u8,
        /// Credits the upstream router holds (`depth - used`).
        credits: i64,
        /// Flits buffered in the downstream input VC.
        downstream_flits: u32,
        /// Buffer depth per VC.
        depth: u32,
    },
    /// An input VC's occupancy bit disagrees with its buffer length.
    Occupancy {
        /// Router.
        router: NodeId,
        /// Input port.
        port: PortId,
        /// Virtual channel.
        vc: u8,
        /// Buffered flits.
        len: u32,
    },
    /// A router's flit counter differs from the sum of its buffers.
    FlitCount {
        /// Router.
        router: NodeId,
        /// The counter.
        counted: u32,
        /// The sum of its input-VC buffer lengths.
        buffered: u32,
    },
    /// An owned output VC's owner is not an in-flight packet.
    DeadOwner {
        /// Router.
        router: NodeId,
        /// Output port.
        port: PortId,
        /// Virtual channel.
        vc: u8,
        /// The recorded owner.
        owner: MsgHandle,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Credits {
                router,
                port,
                vc,
                credits,
                downstream_flits,
                depth,
            } => write!(
                f,
                "credit leak at {router} port {} vc {vc}: {credits} credits + \
                 {downstream_flits} flits downstream != depth {depth}",
                port.0
            ),
            AuditError::Occupancy {
                router,
                port,
                vc,
                len,
            } => write!(
                f,
                "occupancy bit of {router} port {} vc {vc} disagrees with its {len} buffered flits",
                port.0
            ),
            AuditError::FlitCount {
                router,
                counted,
                buffered,
            } => write!(f, "{router} counts {counted} flits but buffers {buffered}"),
            AuditError::DeadOwner {
                router,
                port,
                vc,
                owner,
            } => write!(
                f,
                "output VC {router} port {} vc {vc} is owned by {owner:?}, which is not in flight",
                port.0
            ),
        }
    }
}

impl std::error::Error for AuditError {}

#[derive(Clone, Copy, Debug)]
struct Move {
    router: u32,
    in_port: u8,
    in_vc: u8,
    out_port: u8,
    out_vc: u8,
}

/// Precomputed link wiring, replacing per-flit topology arithmetic
/// (`port_dim_dir` / `neighbor` / `port` / `nic_at` calls) in the traversal
/// phase with flat array loads.
#[derive(Debug, Default)]
struct Links {
    ports: usize,
    /// Per `(router, port)`: the router on the other end of this port's
    /// link — the downstream router when used as an output, the upstream
    /// router when used as an input. `u32::MAX` for local ports and absent
    /// mesh boundary links.
    nbr: Vec<u32>,
    /// Per port: the opposite-direction port index (the paired port at the
    /// neighbor, identical for every router). `u8::MAX` for local ports.
    opp: Vec<u8>,
    /// Per `(router, port)`: the `crossed_dateline` bit a head flit picks
    /// up crossing this output link; 0 when it is not a dateline crossing.
    dateline: Vec<u8>,
    /// Per `(router, port)`: NIC id behind a local port, `u32::MAX`
    /// otherwise.
    nic: Vec<u32>,
}

impl Links {
    fn build(topo: &Topology) -> Self {
        let ports = topo.ports_per_router();
        let n = topo.num_routers() as usize;
        let mut links = Links {
            ports,
            nbr: vec![u32::MAX; n * ports],
            opp: vec![u8::MAX; ports],
            dateline: vec![0; n * ports],
            nic: vec![u32::MAX; n * ports],
        };
        for p in 0..ports {
            let pid = PortId(p as u8);
            match topo.port_dim_dir(pid) {
                Some((d, dir)) => {
                    links.opp[p] = topo.port(d, dir.opposite()).0;
                    for r in 0..n {
                        let node = NodeId(r as u32);
                        if let Some(nb) = topo.neighbor(node, d, dir) {
                            links.nbr[r * ports + p] = nb.0;
                        }
                        if topo.crosses_dateline(node, d, dir) {
                            links.dateline[r * ports + p] = 1 << d;
                        }
                    }
                }
                None => {
                    let local = topo
                        .port_local_index(pid)
                        .expect("port is network or local");
                    for r in 0..n {
                        links.nic[r * ports + p] = topo.nic_at(NodeId(r as u32), local).0;
                    }
                }
            }
        }
        links
    }
}

/// Put router `r` on a two-level wake set.
#[inline]
fn wake_bit(bits: &mut [u64], summary: &mut [u64], r: usize) {
    bits[r >> 6] |= 1 << (r & 63);
    summary[r >> 12] |= 1 << ((r >> 6) & 63);
}

/// Set router `r`'s touched bit, counting first touches.
#[inline]
fn touch(touched: &mut [u64], count: &mut u32, r: usize) {
    let (w, b) = (&mut touched[r >> 6], 1u64 << (r & 63));
    if *w & b == 0 {
        *w |= b;
        *count += 1;
    }
}

/// Call `f(lo, hi)` for every maximal run `lo..hi` of consecutive routers
/// whose bit is set in `a` or `b` (bitsets over `n` routers), ascending.
/// Whole-row slab operations go through runs, so a dense frontier costs
/// one block copy per array instead of one per router.
fn for_each_run(a: &[u64], b: &[u64], n: usize, mut f: impl FnMut(usize, usize)) {
    let mut run: Option<(usize, usize)> = None;
    for (wi, (&x, &y)) in a.iter().zip(b).enumerate() {
        let mut w = x | y;
        while w != 0 {
            let start = w.trailing_zeros() as usize;
            let ones = (!(w >> start)).trailing_zeros() as usize;
            let lo = wi * 64 + start;
            let hi = (lo + ones).min(n);
            w = if start + ones >= 64 {
                0
            } else {
                w & !(((1u64 << ones) - 1) << start)
            };
            run = match run {
                Some((rl, rh)) if rh == lo => Some((rl, hi)),
                Some((rl, rh)) => {
                    f(rl, rh);
                    Some((lo, hi))
                }
                None => Some((lo, hi)),
            };
        }
    }
    if let Some((lo, hi)) = run {
        f(lo, hi);
    }
}

/// The full network of wormhole routers.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    /// Every router's state, one zero-allocated router-major slab. Its
    /// arrays, like the per-router link tables, are built at the first
    /// injection or step ([`Network::allocate`]), not at construction: a
    /// process that builds networks repeatedly gets recycled heap memory
    /// back from the allocator, which must clear it, and per-router work
    /// belongs to the run, not to set-up.
    slab: Slab,
    /// A one-router allocated slab, all zero: what [`Network::router`]
    /// views for a router that was never touched.
    pristine: Slab,
    /// Bit `r` is set once router `r` has received a flit (injection or
    /// arrival) since construction or the last [`Network::hard_reset`].
    /// An untouched router's rows are all zero — a pristine router — and
    /// every router a pass mutates is touched: routers are woken only by
    /// injection, arrival, credit return to the sender of a flit, and
    /// extraction from a router that held one.
    touched: Vec<u64>,
    /// Set bits in [`Network::touched`] — the `routers_materialized`
    /// observability gauge.
    materialized: u32,
    packets: PacketTable,
    counters: NetworkCounters,
    /// Per-port flag: true for network (inter-router) ports, false for
    /// local (NIC) ports — identical for every router.
    net_port: Vec<bool>,
    links: Links,
    /// Per NIC: `(router index, flat slot base)` of its injection port —
    /// the per-flit injection path resolves no topology arithmetic.
    nic_slot: Vec<(u32, u16)>,
    /// Activity wake-set: one bit per router due for processing at the
    /// next [`Network::step`]. A router is woken by flit arrival, credit
    /// return, local injection, or a recovery-lane extraction, and
    /// re-arms itself while it holds flits; everything else is skipped by
    /// the whole pipeline. Bits deduplicate for free, and draining
    /// the words in order yields routers ascending — the dense 0..N
    /// sweep order — without a sort.
    active_bits: Vec<u64>,
    /// Second level of the wake set: bit `g` of word `s` summarizes
    /// `active_bits[s*64 + g]` — set iff that word is nonzero. The
    /// per-cycle drain walks only the set summary bits, so its cost is
    /// O(active groups), not O(routers/64): one summary word covers 4096
    /// routers. Draining summary words ascending, then bits within each
    /// word ascending, preserves the dense 0..N router order exactly.
    active_summary: Vec<u64>,
    /// This step's worklist (previous cycle's wake-set, ascending so the
    /// scan order matches the dense 0..N sweep bit-exactly).
    worklist: Vec<u32>,
    /// Bitmask copy of the worklist, used by the traversal phase to decide
    /// whether an arriving flit lands at a router the blocked-timer sweep
    /// of this cycle would have covered.
    cur_mask: Vec<u64>,
    /// Indices of the `cur_mask` words written this cycle, so the next
    /// drain clears only those — the wake-set bookkeeping stays
    /// O(activity) end to end.
    cur_words: Vec<u32>,
    /// The one-shard plan the sequential step runs under.
    solo: ShardPlan,
    /// Per-shard scratch (candidate/move buffers, switch-request chains,
    /// mailboxes), kept across cycles so the steady state allocates
    /// nothing. The sequential step uses the first entry.
    shard_scratch: Vec<ShardScratch>,
    #[cfg(debug_assertions)]
    shadow: shadow::Scratch,
}

impl Network {
    /// Build a network over `topo` with `vcs` virtual channels per port and
    /// `buf_depth` flit buffers per VC (at most [`crate::MAX_BUF_DEPTH`]).
    pub fn new(topo: Topology, vcs: u8, buf_depth: u32) -> Self {
        assert!(vcs >= 1, "need at least one virtual channel");
        assert!(buf_depth >= 1, "need at least one flit buffer per VC");
        let ports = topo.ports_per_router();
        let n = topo.num_routers() as usize;
        let net_port = (0..ports)
            .map(|p| topo.port_dim_dir(PortId(p as u8)).is_some())
            .collect();
        let nic_slot = (0..topo.num_nics())
            .map(|i| {
                let nic = NicId(i);
                let router = topo.nic_router(nic);
                let port = topo.local_port(topo.nic_local_index(nic));
                (router.0, (port.index() * vcs as usize) as u16)
            })
            .collect();
        let dims = Dims::new(ports, vcs, buf_depth);
        let mut pristine = Slab::new(dims, 1);
        pristine.allocate();
        Network {
            slab: Slab::new(dims, n),
            pristine,
            touched: vec![0; n.div_ceil(64)],
            materialized: 0,
            packets: PacketTable::new(),
            counters: NetworkCounters::default(),
            net_port,
            links: Links::default(),
            nic_slot,
            active_bits: vec![0; n.div_ceil(64)],
            active_summary: vec![0; n.div_ceil(64).div_ceil(64)],
            worklist: Vec::with_capacity(n),
            cur_mask: vec![0; n.div_ceil(64)],
            cur_words: Vec::new(),
            solo: ShardPlan::new(topo.num_routers(), 1),
            shard_scratch: Vec::new(),
            topo,
            #[cfg(debug_assertions)]
            shadow: shadow::Scratch::default(),
        }
    }

    /// Build the per-router state on first use: the zeroed slab and the
    /// link tables. Called by the first injection and the first step.
    fn allocate(&mut self) {
        if !self.slab.is_allocated() {
            self.slab.allocate();
            self.links = Links::build(&self.topo);
        }
    }

    /// True once router `r` has held a flit (see [`Network::touched`]).
    #[inline]
    fn is_touched(&self, r: usize) -> bool {
        self.touched[r >> 6] >> (r & 63) & 1 == 1
    }

    /// Put router `r` on the wake-set for the next step (both levels).
    #[inline]
    fn wake(&mut self, r: usize) {
        wake_bit(&mut self.active_bits, &mut self.active_summary, r);
    }

    /// Routers currently on the wake-set (the ones the next step will
    /// process) — the `active_routers` observability gauge. Walks only the
    /// wake-set's populated words via the summary level.
    #[inline]
    pub fn active_routers(&self) -> usize {
        let mut n = 0;
        for (si, &sw) in self.active_summary.iter().enumerate() {
            let mut sw = sw;
            while sw != 0 {
                let wi = si * 64 + sw.trailing_zeros() as usize;
                sw &= sw - 1;
                n += self.active_bits[wi].count_ones() as usize;
            }
        }
        n
    }

    /// True when no router has any scheduled work: the wake-set is empty.
    /// Implies zero buffered flits. O(routers/4096): only the summary
    /// level is scanned (a set summary bit always covers a nonzero word).
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.active_summary.iter().all(|&w| w == 0)
    }

    /// Number of routers that have held a flit since construction or the
    /// last reset — the `routers_materialized` observability gauge.
    #[inline]
    pub fn routers_materialized(&self) -> u64 {
        u64::from(self.materialized)
    }

    /// Bytes of router state those routers occupy in the slab — the
    /// `router_state_bytes` observability gauge. (Untouched routers' rows
    /// are zero pages the process never wrote.)
    #[inline]
    pub fn router_state_bytes(&self) -> u64 {
        u64::from(self.materialized) * self.slab.row_bytes()
    }

    /// The topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Virtual channels per port.
    #[inline]
    pub fn vcs(&self) -> u8 {
        self.slab.dims.vcs as u8
    }

    /// Flit buffers per VC.
    #[inline]
    pub fn buf_depth(&self) -> u32 {
        self.slab.dims.depth as u32
    }

    /// Transport counters so far.
    #[inline]
    pub fn counters(&self) -> NetworkCounters {
        self.counters
    }

    /// Read access to a router. A router that never held a flit reads
    /// pristine: empty buffers, full credits, nothing routed or owned.
    #[inline]
    pub fn router(&self, node: NodeId) -> Router<'_> {
        if self.is_touched(node.index()) {
            Router::new(&self.slab, node.index())
        } else {
            Router::new(&self.pristine, 0)
        }
    }

    /// The in-flight packet table.
    #[inline]
    pub fn packets(&self) -> &PacketTable {
        &self.packets
    }

    /// Total flits currently buffered in the network: the sum of the
    /// per-router occupancy counters.
    pub fn flits_in_network(&self) -> u64 {
        self.slab.flits.iter().map(|&c| u64::from(c)).sum()
    }

    /// Register a packet about to be injected by `msg.src`'s NIC. The
    /// message stays in the store; routing-relevant fields are cached in
    /// the packet table entry.
    pub fn begin_packet(&mut self, h: MsgHandle, msg: &Message, now: u64) {
        let dst_router = self.topo.nic_router(msg.dst);
        self.packets.insert(PacketState {
            msg: h,
            mtype: msg.mtype,
            src: msg.src,
            dst: msg.dst,
            dst_router,
            crossed_dateline: 0,
            injected_at: now,
        });
        self.counters.packets_injected += 1;
    }

    /// Flat slab index of `nic`'s injection VC `vc`, and its router.
    #[inline]
    fn injection_slot(&self, nic: NicId, vc: u8) -> (usize, usize) {
        let (r, base) = self.nic_slot[nic.index()];
        let s = base as usize + vc as usize;
        (r as usize, s)
    }

    /// Free flit slots in the injection buffer (local input VC `vc` of
    /// `nic`'s router).
    #[inline]
    pub fn injection_free(&self, nic: NicId, vc: u8) -> u32 {
        let (r, s) = self.injection_slot(nic, vc);
        if !self.is_touched(r) {
            return self.buf_depth();
        }
        let i = r * self.slab.dims.slots + s;
        self.buf_depth() - self.slab.len_at(i) as u32
    }

    /// True if injection VC `vc` of `nic` is between packets (its last
    /// buffered flit, if any, is a tail) — a new packet's head may enter.
    #[inline]
    pub fn injection_vc_idle(&self, nic: NicId, vc: u8) -> bool {
        let (r, s) = self.injection_slot(nic, vc);
        if !self.is_touched(r) {
            return true;
        }
        let i = r * self.slab.dims.slots + s;
        let len = self.slab.len_at(i);
        len == 0 || self.slab.flit_at(i, len - 1).is_tail
    }

    /// Push one flit from `nic` into injection VC `vc`. Returns false
    /// (without effect) when the buffer is full. Wakes the router: local
    /// injection precedes [`Network::step`] within a cycle, so the flit is
    /// routable this very cycle, exactly as under the dense scan. This is
    /// one of the two points that touch a router (the other is flit
    /// arrival in `apply_moves`).
    pub fn inject_flit(&mut self, nic: NicId, vc: u8, flit: Flit) -> bool {
        if self.injection_free(nic, vc) == 0 {
            return false;
        }
        self.allocate();
        let (r, s) = self.injection_slot(nic, vc);
        touch(&mut self.touched, &mut self.materialized, r);
        self.slab.rows_mut().push_flit(r, s, flit);
        self.slab.flits[r] += 1;
        self.counters.flits_injected += 1;
        self.wake(r);
        true
    }

    /// Advance the network one cycle.
    ///
    /// Only routers on the wake-list are processed; the rest are provably
    /// inert (no flits, no owned or under-credited output VCs — checked by
    /// a dense shadow sweep in debug builds) and every phase is a no-op on
    /// them, so skipping changes nothing observable. The worklist is
    /// sorted ascending so grant and move ordering match the dense 0..N
    /// scan bit-exactly. Debug builds additionally re-execute the cycle
    /// with a reference four-phase implementation on a snapshot and
    /// compare the end states.
    pub fn step(&mut self, cycle: u64, routing: &dyn Routing, ej: &mut dyn EjectControl) {
        self.begin_cycle();
        #[cfg(not(debug_assertions))]
        self.run_solo(cycle, routing, ej);
        #[cfg(debug_assertions)]
        {
            self.skipped_router_check(cycle);
            let mut scratch = std::mem::take(&mut self.shadow);
            scratch.snapshot(self);
            let mut rec = shadow::RecordEj::new(ej);
            self.run_solo(cycle, routing, &mut rec);
            scratch.take_logs(std::slice::from_ref(&rec));
            scratch.run_reference_and_compare(self, cycle, routing);
            self.shadow = scratch;
        }
        self.rearm();
    }

    /// Build this cycle's worklist from the wake set and publish the
    /// scheduler counters. Shared by [`Network::step`] and
    /// [`Network::step_sharded`], so both execute the same worklist.
    fn begin_cycle(&mut self) {
        self.allocate();
        self.drain_wake_set();
        mdd_obs::counter_add(
            CounterId::RouterTicksSkipped,
            (self.slab.routers - self.worklist.len()) as u64,
        );
        mdd_obs::counter_add(CounterId::FusedPassRouters, self.worklist.len() as u64);
    }

    /// Re-arm: a router still holding work schedules itself for the next
    /// cycle — unless its pass just proved it fully stalled, in which case
    /// it sleeps until an external event (credit return, flit arrival,
    /// ownership release, injection, extraction) wakes it. Every one of
    /// those events wakes the router at the point it mutates it, so a
    /// sleeping router is frozen.
    fn rearm(&mut self) {
        for wi in 0..self.worklist.len() {
            let r = self.worklist[wi] as usize;
            if self.slab.flits[r] > 0 && !self.slab.sleep_ok[r] {
                self.wake(r);
            }
        }
    }

    /// Clear the previous cycle's arrival mask sparsely (only the words
    /// it actually wrote), then drain the two-level wake set: summary
    /// words ascending, group words within each ascending, bits within
    /// each word ascending — the dense 0..N router order, touching only
    /// populated words.
    fn drain_wake_set(&mut self) {
        self.worklist.clear();
        for &wi in &self.cur_words {
            self.cur_mask[wi as usize] = 0;
        }
        self.cur_words.clear();
        for si in 0..self.active_summary.len() {
            let mut sw = std::mem::take(&mut self.active_summary[si]);
            while sw != 0 {
                let wi = si * 64 + sw.trailing_zeros() as usize;
                sw &= sw - 1;
                let w = std::mem::take(&mut self.active_bits[wi]);
                debug_assert_ne!(w, 0, "summary bit over an empty wake word");
                self.cur_mask[wi] = w;
                self.cur_words.push(wi as u32);
                let base = (wi * 64) as u32;
                let mut bits = w;
                while bits != 0 {
                    self.worklist.push(base + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
    }

    /// The sequential cycle: one shard spanning every router, run on the
    /// calling thread, then the same barrier as the sharded step.
    fn run_solo<E: EjectControl + ?Sized>(
        &mut self,
        cycle: u64,
        routing: &dyn Routing,
        ej: &mut E,
    ) {
        let mut outs = std::mem::take(&mut self.shard_scratch);
        outs.truncate(1);
        let mut sc = outs.pop().unwrap_or_default();
        sc.reset(1);
        let out = {
            let Network {
                topo,
                slab,
                touched,
                packets,
                net_port,
                links,
                active_bits,
                worklist,
                cur_mask,
                solo,
                ..
            } = &mut *self;
            let shared = StepShared {
                topo,
                dims: slab.dims,
                net_port,
                links,
                packets,
                cur_mask,
                plan: solo,
            };
            let task = ShardTask {
                lo: 0,
                hi: slab.routers,
                word_base: 0,
                rows: slab.rows_mut(),
                touched,
                active_bits,
                worklist,
                ej,
                sc,
            };
            run_shard(task, &shared, cycle, routing)
        };
        outs.push(out);
        self.finish_cycle(&mut outs, cycle);
        self.shard_scratch = outs;
    }

    /// The cycle barrier: drain the shards' mailboxes in fixed (src, dst)
    /// order, apply the deferred packet-table events in (shard, move)
    /// order — the sequential traversal's own order — and publish the
    /// merged counters. Returns the number of mailbox effects applied.
    fn finish_cycle(&mut self, outs: &mut [ShardScratch], cycle: u64) -> u64 {
        // Shards set their own wake words without the shared summary level
        // (a summary word spans up to 4096 routers and may straddle shard
        // bounds); they report each word they made nonzero instead.
        for out in outs.iter() {
            for &w in &out.woken_words {
                self.active_summary[w as usize >> 6] |= 1 << (w & 63);
            }
        }
        let slots = self.slab.dims.slots;
        let mut mailbox_effects = 0u64;
        for out in outs.iter_mut() {
            for dst in 0..out.mail.len() {
                let mut effects = std::mem::take(&mut out.mail[dst]);
                mailbox_effects += effects.len() as u64;
                for eff in &effects {
                    match *eff {
                        CrossEffect::Credit { router, slot } => {
                            let r = router as usize;
                            let i = r * slots + slot as usize;
                            debug_assert!(self.slab.out_used[i] > 0, "credit returned twice");
                            self.slab.out_used[i] -= 1;
                            self.wake(r);
                        }
                        CrossEffect::Arrival { router, slot, flit } => {
                            let r = router as usize;
                            let s = slot as usize;
                            touch(&mut self.touched, &mut self.materialized, r);
                            self.slab.rows_mut().push_flit(r, s, flit);
                            let i = r * slots + s;
                            if self.cur_mask[r >> 6] >> (r & 63) & 1 == 1
                                && self.slab.blocked[i] == 0
                            {
                                self.slab.blocked[i] = cycle + 1;
                            }
                            self.slab.flits[r] += 1;
                            self.wake(r);
                        }
                    }
                }
                effects.clear();
                out.mail[dst] = effects;
            }
        }
        for out in outs.iter_mut() {
            for ev in out.pk.drain(..) {
                match ev {
                    PkEvent::Dateline { msg, mask } => match self.packets.get_mut(msg) {
                        Some(st) => st.crossed_dateline |= mask,
                        None => debug_assert!(false, "dateline hop by unregistered packet"),
                    },
                    PkEvent::Delivered { msg } => {
                        let st = self.packets.remove(msg);
                        debug_assert!(st.is_some(), "delivered packet must be registered");
                    }
                }
            }
        }
        // Merge per-shard counter and observability deltas, published
        // once — the hot loops stay free of shared-counter traffic.
        let mut obs = ObsDeltas::default();
        let mut moves_routed = 0u64;
        for out in outs.iter() {
            self.counters.flits_moved += out.counters.flits_moved;
            self.counters.flits_delivered += out.counters.flits_delivered;
            self.counters.packets_delivered += out.counters.packets_delivered;
            self.materialized += out.materialized;
            obs.allocs += out.obs.allocs;
            obs.stalls += out.obs.stalls;
            obs.burst_flits += out.obs.burst_flits;
            moves_routed += out.moves_routed;
        }
        mdd_obs::counter_add(CounterId::FlitsRouted, moves_routed);
        mdd_obs::counter_add(CounterId::VcAllocs, obs.allocs);
        mdd_obs::counter_add(CounterId::VcStalls, obs.stalls);
        mdd_obs::counter_add(CounterId::LinkBurstFlits, obs.burst_flits);
        mailbox_effects
    }

    /// Debug-only: every router the activity scheduler is about to skip
    /// must be in the exact state on which the whole pipeline is a no-op,
    /// and the per-router flit counters must agree with the buffers.
    #[cfg(debug_assertions)]
    fn skipped_router_check(&self, cycle: u64) {
        // Wake-set invariant: a nonzero word is always covered by its
        // summary bit (the drain relies on walking summary bits only).
        for (wi, &w) in self.active_bits.iter().enumerate() {
            debug_assert!(
                w == 0 || self.active_summary[wi >> 6] >> (wi & 63) & 1 == 1,
                "wake word {wi} set without its summary bit at cycle {cycle}"
            );
        }
        debug_assert_eq!(
            self.touched.iter().map(|w| w.count_ones()).sum::<u32>(),
            self.materialized,
            "touched-router count out of sync at cycle {cycle}"
        );
        let sl = &self.slab;
        let (slots, nvcs) = (sl.dims.slots, sl.dims.vcs);
        for r in 0..sl.routers {
            if !self.is_touched(r) {
                // An untouched router never held a flit since the last
                // reset; its rows must be pristine.
                debug_assert!(
                    !sl.is_allocated() || (sl.flits[r], sl.in_occ[r], sl.out_owned[r]) == (0, 0, 0),
                    "router {r}: state on an untouched router at cycle {cycle}"
                );
                continue;
            }
            debug_assert_eq!(
                sl.flits[r],
                Router::new(sl, r).buffered_flits(),
                "router {r}: flit counter out of sync at cycle {cycle}"
            );
            for s in 0..slots {
                debug_assert_eq!(
                    sl.in_occ[r] >> s & 1 == 1,
                    sl.len[r * slots + s] > 0,
                    "router {r}: occupancy bit {s} out of sync at cycle {cycle}"
                );
            }
            if self.worklist.binary_search(&(r as u32)).is_ok() {
                continue;
            }
            for s in 0..slots {
                let i = r * slots + s;
                if sl.len[i] == 0 {
                    // An empty VC may keep its route mid-packet (the flits
                    // seen so far moved on, the rest are still upstream or
                    // at the source NIC); no phase acts on it until the
                    // next flit arrival re-wakes the router.
                    debug_assert_eq!(
                        sl.blocked[i], 0,
                        "router {r}: empty VC {s} with a blocked timer at {cycle}"
                    );
                    continue;
                }
                // A skipped occupied slot must be provably inert: its
                // blocked timer already runs, and it is either a
                // memo-stalled transit head (no release since the last
                // full attempt) or a routed-but-credit-starved requester.
                // Anything else would have re-armed or been woken.
                debug_assert!(
                    sl.blocked[i] != 0,
                    "router {r} slept with an unmarked occupied VC {s} at {cycle}"
                );
                if sl.route[i] == 0 {
                    debug_assert!(
                        sl.flit_at(i, 0).is_head(),
                        "router {r} slept with an unrouted body flit at VC {s}, cycle {cycle}"
                    );
                    debug_assert_eq!(
                        sl.stall_epoch[i],
                        sl.alloc_epoch[r] + 1,
                        "router {r} slept with a non-memoized waiting head at VC {s}, \
                         cycle {cycle}"
                    );
                } else {
                    let q = sl.route[i] as usize - 1;
                    debug_assert!(
                        self.net_port[q],
                        "router {r} slept with an eject-routed flit at VC {s}, cycle {cycle}"
                    );
                    debug_assert_eq!(
                        sl.out_used[r * slots + q * nvcs + sl.route_vc[i] as usize] as usize,
                        sl.dims.depth,
                        "router {r} slept with a creditable requester at VC {s}, cycle {cycle}"
                    );
                }
            }
        }
    }

    /// Call `f(r)` for every touched router, ascending.
    fn for_each_touched(&self, mut f: impl FnMut(usize)) {
        for (wi, &w) in self.touched.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                f(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }

    /// Append the packets whose head flit has been blocked at router
    /// `r` for at least `threshold` cycles as of `now` — slot-ascending,
    /// the same order the full-network sweep produces within one router.
    fn blocked_heads_router(
        &self,
        r: usize,
        threshold: u64,
        now: u64,
        out: &mut Vec<(NodeId, MsgHandle)>,
    ) {
        if threshold == 0 || !self.is_touched(r) || self.slab.flits[r] == 0 {
            return;
        }
        let slots = self.slab.dims.slots;
        let mut occ = self.slab.in_occ[r];
        while occ != 0 {
            let i = r * slots + occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let f = self.slab.flit_at(i, 0);
            let since = self.slab.blocked[i];
            if f.is_head() && since != 0 && now.saturating_sub(since - 1) >= threshold {
                out.push((NodeId(r as u32), f.msg));
            }
        }
    }

    /// Collect into `out` the packets whose head flit has been blocked at
    /// a router for at least `threshold` cycles as of `now` — the
    /// candidates for Disha router-side token capture. `out` is cleared
    /// first; callers keep a scratch vector so the periodic detector sweep
    /// allocates nothing in steady state.
    pub fn blocked_heads_into(&self, threshold: u64, now: u64, out: &mut Vec<(NodeId, MsgHandle)>) {
        out.clear();
        self.for_each_touched(|r| self.blocked_heads_router(r, threshold, now, out));
    }

    /// [`Network::blocked_heads_into`] restricted to one router — what a
    /// token stop at `node` actually needs. Identical victim order to
    /// filtering the full sweep down to `node`, without walking the other
    /// `N - 1` routers.
    pub fn blocked_heads_at(
        &self,
        node: NodeId,
        threshold: u64,
        now: u64,
        out: &mut Vec<(NodeId, MsgHandle)>,
    ) {
        out.clear();
        self.blocked_heads_router(node.index(), threshold, now, out);
    }

    /// Remove every buffered flit of packet `id` from the network,
    /// releasing virtual-channel ownership and restoring upstream credits,
    /// in preparation for recovery-lane transport. Returns `None` if the
    /// packet is unknown (already delivered).
    ///
    /// A packet's flits in any one VC buffer form one contiguous run
    /// (wormhole flow control never interleaves packets within a VC), so
    /// each buffer is reclaimed by a single block move and its upstream
    /// credits are returned in one batch — the burst path of the data
    /// plane, counted by `link_burst_flits`.
    pub fn extract_packet(&mut self, h: MsgHandle) -> Option<ExtractedPacket> {
        let st = self.packets.remove(h)?;
        let mut flits_removed = 0u32;
        let mut burst_flits = 0u64;
        let mut head_router = None;
        let d = self.slab.dims;
        let (nvcs, slots) = (d.vcs, d.slots);
        let ports = self.links.ports;
        let hb = h.to_bits();
        let Network {
            slab,
            touched,
            links,
            net_port,
            active_bits,
            active_summary,
            ..
        } = self;
        let mut rows = slab.rows_mut();
        // Only touched routers can hold flits or own output VCs.
        for (wi, &tw) in touched.iter().enumerate() {
            let mut tw = tw;
            while tw != 0 {
                let r = wi * 64 + tw.trailing_zeros() as usize;
                tw &= tw - 1;
                let mut removed_here = 0u32;
                let mut occ = rows.in_occ[r];
                while occ != 0 {
                    let s = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    // Locate the packet's contiguous run in this buffer.
                    let len = rows.len[r * slots + s] as usize;
                    let mut run_start = len;
                    let mut run_len = 0usize;
                    let mut had_head = false;
                    for k in 0..len {
                        let f = rows.flit_at(r, s, k);
                        if f.msg == h {
                            if run_len == 0 {
                                run_start = k;
                            }
                            debug_assert_eq!(
                                run_start + run_len,
                                k,
                                "a packet's flits must be contiguous within a VC"
                            );
                            run_len += 1;
                            had_head |= f.is_head();
                        }
                    }
                    if run_len == 0 {
                        continue;
                    }
                    rows.remove_run(r, s, run_start, run_len);
                    if run_start == 0 {
                        rows.route[r * slots + s] = 0;
                        rows.blocked[r * slots + s] = 0;
                    }
                    flits_removed += run_len as u32;
                    removed_here += run_len as u32;
                    burst_flits += run_len as u64;
                    if had_head {
                        head_router = Some(NodeId(r as u32));
                    }
                    // Restore upstream credits for the freed slots in one
                    // batch.
                    let p = s / nvcs;
                    if net_port[p] {
                        let up = links.nbr[r * ports + p] as usize;
                        let up_slot = links.opp[p] as usize * nvcs + s % nvcs;
                        rows.out_used[up * slots + up_slot] -= run_len as u16;
                        wake_bit(active_bits, active_summary, up);
                    }
                }
                rows.flits[r] -= removed_here;
                // Release any output VCs the packet held (it can hold one at
                // a router it no longer buffers flits in — the wormhole
                // spans routers head to tail).
                let mut released = false;
                let mut owned = rows.out_owned[r];
                while owned != 0 {
                    let s = owned.trailing_zeros() as usize;
                    owned &= owned - 1;
                    if rows.out_owner[r * slots + s] == hb {
                        rows.release_out(r, s);
                        released = true;
                    }
                }
                // A rescue mutates router state out of band; wake everything
                // it touched so remaining traffic reschedules.
                if removed_here > 0 || released {
                    wake_bit(active_bits, active_summary, r);
                }
            }
        }
        mdd_obs::counter_add(CounterId::LinkBurstFlits, burst_flits);
        let src_router = self.topo.nic_router(st.src);
        Some(ExtractedPacket {
            head_router: head_router.unwrap_or(src_router),
            flits_in_network: flits_removed,
            injected_at: st.injected_at,
            msg: st.msg,
        })
    }

    /// Busy-cycle counter of one output virtual channel (network ports).
    pub fn vc_busy(&self, node: NodeId, port: PortId, vc: u8) -> u64 {
        if !self.is_touched(node.index()) {
            return 0;
        }
        let d = self.slab.dims;
        self.slab.vc_busy[node.index() * d.slots + port.index() * d.vcs + vc as usize]
    }

    /// Utilization statistics over all *network* virtual channels after
    /// `cycles` of operation: `(mean, max, coefficient_of_variation)`.
    /// A high CV quantifies the unbalanced channel usage the paper blames
    /// for strict avoidance's early saturation (Section 4.3.2).
    pub fn vc_utilization(&self, cycles: u64) -> (f64, f64, f64) {
        if cycles == 0 {
            return (0.0, 0.0, 0.0);
        }
        let ports = self.topo.ports_per_router();
        let mut vals = Vec::new();
        for node in self.topo.routers() {
            for p in 0..ports {
                if self.topo.port_dim_dir(PortId(p as u8)).is_none() {
                    continue; // local ports excluded
                }
                // On meshes, skip nonexistent boundary links.
                let (d, dir) = self.topo.port_dim_dir(PortId(p as u8)).unwrap();
                if self.topo.neighbor(node, d, dir).is_none() {
                    continue;
                }
                for v in 0..self.vcs() {
                    vals.push(self.vc_busy(node, PortId(p as u8), v) as f64 / cycles as f64);
                }
            }
        }
        if vals.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = vals.len() as f64;
        let mean = vals.iter().sum::<f64>() / n;
        let max = vals.iter().copied().fold(0.0, f64::max);
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let cv = if mean > 1e-12 { var.sqrt() / mean } else { 0.0 };
        (mean, max, cv)
    }

    /// Drop every in-flight packet and clear all buffers (used when
    /// resetting between measurement runs; not part of the modelled
    /// hardware). Zeroes only the touched routers' rows.
    pub fn hard_reset(&mut self) {
        let Network { slab, touched, .. } = self;
        for_each_run(touched, touched, slab.routers, |lo, hi| {
            slab.zero_rows(lo, hi);
        });
        touched.fill(0);
        self.materialized = 0;
        self.packets = PacketTable::new();
        self.active_bits.fill(0);
        self.active_summary.fill(0);
        self.cur_mask.fill(0);
        self.cur_words.clear();
        self.worklist.clear();
    }

    /// Check the network's conservation laws, in any build. Cost scales
    /// with the routers traffic has touched, not with network size:
    ///
    /// * on every network link VC, upstream credits plus downstream
    ///   buffered flits equal the buffer depth;
    /// * each input VC's occupancy bit is set exactly when it buffers a
    ///   flit, and each router's flit counter equals the sum of its
    ///   buffers;
    /// * every owned output VC is owned by an in-flight packet.
    ///
    /// Valid between steps (not inside one). Returns the first violation
    /// in router-ascending order.
    pub fn audit(&self) -> Result<(), AuditError> {
        let mut res = Ok(());
        self.for_each_touched(|r| {
            if res.is_ok() {
                res = self.audit_router(r);
            }
        });
        res
    }

    fn audit_router(&self, r: usize) -> Result<(), AuditError> {
        let sl = &self.slab;
        let d = sl.dims;
        let node = NodeId(r as u32);
        let at = |s: usize| (PortId((s / d.vcs) as u8), (s % d.vcs) as u8);
        let mut buffered = 0u32;
        for s in 0..d.slots {
            let len = sl.len_at(r * d.slots + s) as u32;
            buffered += len;
            if (sl.in_occ[r] >> s & 1 == 1) != (len > 0) {
                let (port, vc) = at(s);
                return Err(AuditError::Occupancy {
                    router: node,
                    port,
                    vc,
                    len,
                });
            }
        }
        if sl.flits[r] != buffered {
            return Err(AuditError::FlitCount {
                router: node,
                counted: sl.flits[r],
                buffered,
            });
        }
        let mut owned = sl.out_owned[r];
        while owned != 0 {
            let s = owned.trailing_zeros() as usize;
            owned &= owned - 1;
            let owner = MsgHandle::from_bits(sl.out_owner[r * d.slots + s]);
            if !self.packets.contains(owner) {
                let (port, vc) = at(s);
                return Err(AuditError::DeadOwner {
                    router: node,
                    port,
                    vc,
                    owner,
                });
            }
        }
        // Both directions of every link, so a link is checked when either
        // end is touched (an untouched end holds no flits and no credits).
        for p in 0..d.ports {
            let nb = self.links.nbr[r * d.ports + p];
            if !self.net_port[p] || nb == u32::MAX {
                continue;
            }
            let q = self.links.opp[p] as usize;
            for v in 0..d.vcs {
                self.audit_link(r, p, nb as usize, q, v)?;
                self.audit_link(nb as usize, q, r, p, v)?;
            }
        }
        Ok(())
    }

    /// Credit conservation on the link from output `(out_port, vc)` of
    /// `up` to input `(in_port, vc)` of `down`.
    fn audit_link(
        &self,
        up: usize,
        out_port: usize,
        down: usize,
        in_port: usize,
        vc: usize,
    ) -> Result<(), AuditError> {
        let sl = &self.slab;
        let d = sl.dims;
        let used = sl.out_used[up * d.slots + out_port * d.vcs + vc];
        let buffered = sl.len[down * d.slots + in_port * d.vcs + vc];
        if used == buffered {
            return Ok(());
        }
        Err(AuditError::Credits {
            router: NodeId(up as u32),
            port: PortId(out_port as u8),
            vc: vc as u8,
            credits: d.depth as i64 - i64::from(used),
            downstream_flits: u32::from(buffered),
            depth: d.depth as u32,
        })
    }
}

/// Per-cycle observability deltas, published in one batch.
#[derive(Default, Debug)]
struct ObsDeltas {
    allocs: u64,
    stalls: u64,
    burst_flits: u64,
}

/// Partition of the router index space into contiguous shard ranges for
/// [`Network::step_sharded`].
///
/// Every interior boundary is a multiple of 64 (a whole wake-set word),
/// so the per-shard `active_bits` slices never share a word and shards
/// can set wake bits for their own routers without synchronization. On
/// networks smaller than `shards * 64` routers, trailing shards own
/// empty ranges — degenerate but valid (their workers return
/// immediately), so shard-count-invariance tests cover small topologies
/// too.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// `shards + 1` range boundaries: shard `s` owns `[bounds[s],
    /// bounds[s+1])`.
    bounds: Vec<u32>,
    /// Uniform shard width in routers (a multiple of 64); the last shard
    /// absorbs the remainder.
    stride: u32,
}

impl ShardPlan {
    /// Split `num_routers` routers into `shards` contiguous ranges of
    /// whole wake-set words.
    pub fn new(num_routers: u32, shards: u32) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let words = (num_routers as usize).div_ceil(64);
        let wps = words.div_ceil(shards as usize).max(1);
        let stride = (wps * 64) as u32;
        let bounds = (0..=shards as u64)
            .map(|s| (s * u64::from(stride)).min(u64::from(num_routers)) as u32)
            .collect();
        ShardPlan { bounds, stride }
    }

    /// Number of shards (trailing ones may own empty ranges on small
    /// networks).
    #[inline]
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Router range `[lo, hi)` owned by shard `s`.
    #[inline]
    pub fn range(&self, s: usize) -> (u32, u32) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// The shard owning router `r`.
    #[inline]
    pub fn shard_of(&self, r: u32) -> usize {
        ((r / self.stride) as usize).min(self.shards() - 1)
    }

    /// Total routers covered (== the network's router count).
    #[inline]
    pub fn num_routers(&self) -> u32 {
        self.bounds[self.shards()]
    }
}

/// One cross-shard side effect of a granted move, buffered into the
/// destination shard's mailbox during the parallel phase and applied at
/// the cycle barrier. Each `(router, slot)` cell receives at most one
/// credit and at most one arrival per cycle (one grant per output port,
/// 1:1 link wiring), so in-cycle effects touch disjoint state and
/// deferred application converges to the same state the sequential
/// interleaving produces; the fixed (src, dst) drain order makes the
/// schedule deterministic independent of worker timing.
#[derive(Clone, Copy, Debug)]
enum CrossEffect {
    /// Credit return to an upstream router owned by another shard (plus
    /// the implied wake).
    Credit {
        /// Upstream router (global index).
        router: u32,
        /// Its flat output-VC slot.
        slot: u16,
    },
    /// Flit arrival at a downstream router owned by another shard (plus
    /// the implied touch, wake and arrival-side blocked mark).
    Arrival {
        /// Downstream router (global index).
        router: u32,
        /// Its flat input-VC slot.
        slot: u16,
        /// The flit traversing the link.
        flit: Flit,
    },
}

/// Deferred [`PacketTable`] mutation recorded by a shard (the table is
/// shared read-only during the parallel phase so every shard's
/// allocation pass observes start-of-cycle routing state, exactly as
/// the sequential schedule's all-passes-before-all-applies does).
/// Applied at the barrier in (shard, move) order — which, because
/// shards are ascending contiguous ranges and each shard's move list is
/// router-ascending, is the sequential traversal's own order.
#[derive(Clone, Copy, Debug)]
enum PkEvent {
    /// A head flit crossed a dateline link: OR `mask` into the packet's
    /// `crossed_dateline` bits.
    Dateline { msg: MsgHandle, mask: u8 },
    /// A tail flit ejected: remove the packet from the table.
    Delivered { msg: MsgHandle },
}

/// Per-shard reusable scratch plus the per-cycle outputs a shard hands
/// back to the coordinator at the barrier.
#[derive(Debug)]
struct ShardScratch {
    cand: Vec<RouteCandidate>,
    moves: Vec<Move>,
    /// Switch-allocation request chains: per-port heads (`u16::MAX` =
    /// empty) and per-slot next links. An entry packs the requester's
    /// input port in its high byte and slot index in the low byte. Heads
    /// are restored to empty by the grant loop (every gathered port is
    /// processed exactly once), and next links are always written before
    /// they are read within a pass, so neither needs per-pass clearing.
    req_head: [u16; 64],
    req_next: [u16; 128],
    /// Outgoing mailboxes, indexed by destination shard.
    mail: Vec<Vec<CrossEffect>>,
    /// Deferred packet-table events, in move order.
    pk: Vec<PkEvent>,
    /// Wake-set words this shard turned nonzero (their summary bits are
    /// set at the barrier).
    woken_words: Vec<u32>,
    /// This cycle's transport-counter delta.
    counters: NetworkCounters,
    /// This cycle's observability delta.
    obs: ObsDeltas,
    /// Moves granted this cycle (the `flits_routed` contribution).
    moves_routed: u64,
    /// Routers first touched by intra-shard arrivals this cycle.
    materialized: u32,
}

impl Default for ShardScratch {
    fn default() -> Self {
        ShardScratch {
            cand: Vec::with_capacity(64),
            moves: Vec::with_capacity(256),
            req_head: [u16::MAX; 64],
            req_next: [u16::MAX; 128],
            mail: Vec::new(),
            pk: Vec::new(),
            woken_words: Vec::new(),
            counters: NetworkCounters::default(),
            obs: ObsDeltas::default(),
            moves_routed: 0,
            materialized: 0,
        }
    }
}

impl ShardScratch {
    /// Clear the per-cycle outputs for a cycle run with `nshards` shards.
    fn reset(&mut self, nshards: usize) {
        self.mail.resize_with(nshards, Vec::new);
        self.woken_words.clear();
        self.counters = NetworkCounters::default();
        self.obs = ObsDeltas::default();
        self.moves_routed = 0;
        self.materialized = 0;
    }
}

/// Read-only network state shared by every shard during the parallel
/// phase. `packets` and `cur_mask` are frozen for the whole phase:
/// packet-table mutations are deferred as [`PkEvent`]s and the arrival
/// mask was fully built by the wake-set drain.
struct StepShared<'a> {
    topo: &'a Topology,
    dims: Dims,
    net_port: &'a [bool],
    links: &'a Links,
    packets: &'a PacketTable,
    cur_mask: &'a [u64],
    plan: &'a ShardPlan,
}

/// One shard's mutable view of the network: its router range `lo..hi`
/// of the slab (window-relative indices `r - lo`), its words of the wake
/// and touched bitsets (offset by `word_base`), its slice of the
/// ascending worklist, its endpoint controller and its scratch.
struct ShardTask<'a, E: ?Sized> {
    lo: usize,
    hi: usize,
    word_base: usize,
    rows: Rows<'a>,
    touched: &'a mut [u64],
    active_bits: &'a mut [u64],
    worklist: &'a [u32],
    ej: &'a mut E,
    sc: ShardScratch,
}

impl<E: ?Sized> ShardTask<'_, E> {
    /// Wake router `r` (in this shard's range) for the next cycle.
    #[inline]
    fn wake(&mut self, r: usize) {
        let w = &mut self.active_bits[(r >> 6) - self.word_base];
        if *w == 0 {
            self.sc.woken_words.push((r >> 6) as u32);
        }
        *w |= 1 << (r & 63);
    }
}

/// One shard's whole cycle: fused passes over its worklist slice, then
/// application of its own moves ([`apply_moves`]).
fn run_shard<E: EjectControl + ?Sized>(
    mut t: ShardTask<'_, E>,
    sh: &StepShared<'_>,
    cycle: u64,
    routing: &dyn Routing,
) -> ShardScratch {
    for wi in 0..t.worklist.len() {
        let r = t.worklist[wi] as usize;
        router_pass(&mut t, sh, r, cycle, routing);
    }
    t.sc.moves_routed = t.sc.moves.len() as u64;
    apply_moves(&mut t, sh, cycle);
    t.sc
}

/// One router's fused pass: a single rotated walk over its occupancy
/// bitmask performs route computation / VC allocation for waiting
/// heads, blocked-timer pre-marking, and switch-request gathering;
/// per-port round-robin grants follow. The rr hint and the emitted moves
/// use global router indices, so every pseudo-random and round-robin
/// decision is independent of the shard layout.
///
/// ### Ordering contract (why this equals the phased pipeline)
///
/// * Allocation mutations are router-local (this router's routes and
///   output-VC owners) except [`EjectControl::can_accept`], whose call
///   sequence is router-ascending, rotated-slot order — identical to
///   the phased allocation sweep.
/// * Grants select the *minimum round-robin rank* among a port's
///   eligible requesters; the rank depends only on the requester's
///   slot index and the port's `rr_out` pointer, so the gather order
///   (rotated here, ascending in the phased reference) is immaterial.
/// * Credits are only mutated by the traversal phase, which runs after
///   every router's fused pass — all grant decisions see
///   start-of-cycle credits.
/// * Moves are emitted per router in ascending-output-port order, so
///   the global move list matches the phased switch sweep exactly.
fn router_pass<E: EjectControl + ?Sized>(
    t: &mut ShardTask<'_, E>,
    sh: &StepShared<'_>,
    r: usize,
    cycle: u64,
    routing: &dyn Routing,
) {
    let li = r - t.lo;
    let d = sh.dims;
    let (nvcs, total, depth) = (d.vcs, d.slots, d.depth);
    let base = li * total;
    // Stall-counter compensation for a slept gap: a scheduler that
    // re-armed this fully-stalled router every cycle would have
    // re-counted each memo-stalled head once per cycle. The router's
    // state was frozen while it slept (sleeping implies no external
    // event touched it), so the count per skipped cycle is exactly
    // what it was at sleep time.
    let gap = cycle.saturating_sub(t.rows.last_pass[li]);
    if gap > 1 {
        t.sc.obs.stalls += (gap - 1) * u64::from(t.rows.sleep_stalls[li]);
    }
    t.rows.last_pass[li] = cycle;
    let mut pass_stalls = 0u32;
    let mut dst_head = false;
    let moves_before = t.sc.moves.len();
    // Requested output ports; the per-port request chains live in the
    // scratch (see `ShardScratch::req_head`).
    let mut port_mask = 0u64;
    // Waiting heads that need a full allocation attempt, in scan order.
    let mut pend = [0u8; 128];
    let mut npend = 0usize;
    t.rows.sync_rr_alloc(li, cycle);
    {
        let (rows, sc) = (&mut t.rows, &mut t.sc);
        let start = rows.rr_alloc[li] as usize % total;
        let memo = rows.alloc_epoch[li] + 1;
        // This router's rows, sliced once so the walk indexes them by slot.
        let blocked = &mut rows.blocked[base..base + total];
        let route = &rows.route[base..base + total];
        let stall_epoch = &rows.stall_epoch[base..base + total];
        let head = &rows.head[base..base + total];
        let fl_seq = &rows.fl_seq[base * depth..(base + total) * depth];
        // Visit occupied slots in the dense scan's rotated order
        // (`start..total` then `0..start`, ascending within each half).
        // Slots the dense scan would have acted on all hold a flit, so
        // restricting to the occupancy mask is exact.
        let occ = rows.in_occ[li];
        let low = occ & ((1u128 << start) - 1);
        let mut high = occ ^ low;
        let mut rest = low;
        loop {
            let idx = if high != 0 {
                let i = high.trailing_zeros() as usize;
                high &= high - 1;
                i
            } else if rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                i
            } else {
                break;
            };
            // Blocked-timer pre-mark (fused phase 4): every occupied
            // slot not already blocked starts its timer this cycle; the
            // traversal phase re-derives the mark for slots that move.
            if blocked[idx] == 0 {
                blocked[idx] = cycle + 1;
            }
            // Phase 2 (gather): a routed slot with a buffered flit
            // stands as a switch requester for its output port.
            let q = route[idx];
            if q != 0 {
                let q = (q - 1) as usize;
                port_mask |= 1 << q;
                sc.req_next[idx] = sc.req_head[q];
                sc.req_head[q] = ((idx / nvcs) << 8) as u16 | idx as u16;
            } else if fl_seq[idx * depth + head[idx] as usize] >> 1 == 0 {
                // Phase 1: route computation & VC allocation.
                if stall_epoch[idx] == memo {
                    // Memoized stall: no output VC on this router has
                    // been released since the last full attempt, and
                    // the candidate set of a waiting packet is fixed,
                    // so every candidate is still owner-busy.
                    sc.obs.stalls += 1;
                    pass_stalls += 1;
                } else {
                    pend[npend] = idx as u8;
                    npend += 1;
                }
            }
        }
        rows.rr_alloc[li] = rows.rr_alloc[li].wrapping_add(1);
        rows.rr_cycle[li] = cycle + 1;
    }
    // Phase 1, deferred: full allocation attempts for the (rare)
    // non-memoized waiting heads. Deferral is exact: allocation only
    // mutates output-VC ownership, ejection earmarks, and the
    // attempting slot's own route — none of which the scan above reads
    // for *other* slots — and processing `pend` in scan order preserves
    // both the intra-router claim order (an earlier head can take an
    // output VC a later head wanted) and the `can_accept` call
    // sequence of the dense reference.
    for &slot in &pend[..npend] {
        let idx = slot as usize;
        let h = t.rows.flit_at(li, idx, 0).msg;
        match alloc_slot(t, sh, r, idx, h, cycle, routing) {
            AllocOutcome::Granted => {
                // A freshly routed head is a switch requester this
                // same cycle. Chain position is immaterial: grants
                // minimize rank over the set.
                debug_assert_ne!(t.rows.route[base + idx], 0);
                let q = (t.rows.route[base + idx] - 1) as usize;
                port_mask |= 1 << q;
                t.sc.req_next[idx] = t.sc.req_head[q];
                t.sc.req_head[q] = ((idx / nvcs) << 8) as u16 | idx as u16;
            }
            AllocOutcome::StalledTransit => pass_stalls += 1,
            AllocOutcome::StalledAtDst => {
                pass_stalls += 1;
                dst_head = true;
            }
        }
    }
    // Phase 2 (grant): each requested output port (ascending) grants
    // the eligible requester closest after its round-robin pointer.
    {
        let (rows, sc) = (&mut t.rows, &mut t.sc);
        let route_vc = &rows.route_vc[base..base + total];
        let out_used = &rows.out_used[base..base + total];
        let head = &rows.head[base..base + total];
        let fl_seq = &rows.fl_seq[base * depth..(base + total) * depth];
        let rr_out = &mut rows.rr_out[li * d.ports..(li + 1) * d.ports];
        let full = depth as u16;
        let mut in_used = 0u64; // input ports granted this cycle
        while port_mask != 0 {
            let q = port_mask.trailing_zeros() as usize;
            port_mask &= port_mask - 1;
            let rr = rr_out[q] as usize % total;
            let is_net = sh.net_port[q];
            let mut best: Option<(usize, usize, usize)> = None;
            let mut contenders = 0u32;
            let mut cur = sc.req_head[q];
            sc.req_head[q] = u16::MAX; // restore the empty-chain invariant
            while cur != u16::MAX {
                let idx = (cur & 0xff) as usize;
                let p = (cur >> 8) as usize;
                cur = sc.req_next[idx];
                if in_used & (1 << p) != 0 {
                    continue;
                }
                // Network outputs need a credit; local outputs were
                // reserved at acceptance time.
                if is_net && out_used[q * nvcs + route_vc[idx] as usize] == full {
                    continue;
                }
                contenders += 1;
                let mut rank = idx + total - rr;
                if rank >= total {
                    rank -= total;
                }
                if best.is_none_or(|(b, _, _)| rank < b) {
                    best = Some((rank, idx, p));
                }
            }
            if let Some((_, idx, p)) = best {
                in_used |= 1 << p;
                rr_out[q] = if idx + 1 == total { 0 } else { (idx + 1) as u8 };
                // Burst streaming: an uncontended port granting a
                // packet-body flit is a wormhole stream in flight — the
                // continuation of a multi-flit block transfer that
                // needed no arbitration this cycle.
                if contenders == 1 && fl_seq[idx * depth + head[idx] as usize] >> 1 != 0 {
                    sc.obs.burst_flits += 1;
                }
                sc.moves.push(Move {
                    router: r as u32,
                    in_port: p as u8,
                    in_vc: (idx - p * nvcs) as u8,
                    out_port: q as u8,
                    out_vc: route_vc[idx],
                });
            }
        }
    }
    // Sleep decision. No grant anywhere implies every routed slot is
    // credit-blocked (a port with a creditable requester always grants
    // someone, and local routes never need credits), and with every
    // waiting head memo-stalled away from its destination, re-running
    // this pass is a state no-op until an external event arrives. A
    // head stalled at its destination router keeps the router awake:
    // ejection admission must be re-asked as endpoint queues drain.
    let stalled = !dst_head && t.sc.moves.len() == moves_before;
    t.rows.sleep_ok[li] = stalled;
    t.rows.sleep_stalls[li] = if stalled { pass_stalls } else { 0 };
}

/// Full route-computation + VC-allocation attempt for the head `h` at
/// slot `idx` of router `r` — the non-memoized path. Reads the shared
/// start-of-cycle packet table; all mutations stay within the router (a
/// head's candidates are output VCs of the router it waits at).
fn alloc_slot<E: EjectControl + ?Sized>(
    t: &mut ShardTask<'_, E>,
    sh: &StepShared<'_>,
    r: usize,
    idx: usize,
    h: MsgHandle,
    cycle: u64,
    routing: &dyn Routing,
) -> AllocOutcome {
    let li = r - t.lo;
    let node = NodeId(r as u32);
    let i = li * sh.dims.slots + idx;
    let Some(pkt) = sh.packets.get(h).copied() else {
        debug_assert!(false, "flit in network without a registered packet");
        return AllocOutcome::Granted;
    };
    t.sc.cand.clear();
    let hint = cycle
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((r as u64) << 8)
        .wrapping_add(idx as u64);
    routing.candidates(sh.topo, node, &pkt, hint, &mut t.sc.cand);
    debug_assert!(
        !t.sc.cand.is_empty(),
        "routing function returned no candidates for {h:?} at {node}"
    );
    let mut granted = false;
    for ci in 0..t.sc.cand.len() {
        let c = t.sc.cand[ci];
        if let Some(local) = sh.topo.port_local_index(c.port) {
            debug_assert_eq!(
                node, pkt.dst_router,
                "local candidate away from destination router"
            );
            let nic = sh.topo.nic_at(node, local);
            if t.ej.can_accept(nic, h, cycle) {
                t.rows.route[i] = c.port.0 + 1;
                t.rows.route_vc[i] = 0;
                granted = true;
                break;
            }
        } else {
            let out_slot = c.port.index() * sh.dims.vcs + c.vc as usize;
            if t.rows.out_free(li, out_slot) {
                t.rows.own_out(li, out_slot, h);
                t.rows.route[i] = c.port.0 + 1;
                t.rows.route_vc[i] = c.vc;
                granted = true;
                break;
            }
        }
    }
    if granted {
        t.sc.obs.allocs += 1;
        AllocOutcome::Granted
    } else {
        t.sc.obs.stalls += 1;
        if pkt.dst_router != node {
            // All candidates are output VCs of this router and all are
            // owner-busy; memoize until one is released. Destination
            // heads are exempt: their stall is an ejection refusal,
            // and `can_accept` both has side effects and depends on
            // NIC state this router cannot version.
            t.rows.stall_epoch[i] = t.rows.alloc_epoch[li] + 1;
            AllocOutcome::StalledTransit
        } else {
            AllocOutcome::StalledAtDst
        }
    }
}

/// Phase 3: apply the shard's granted moves (link traversal),
/// table-driven. In-range effects apply directly; credit returns and
/// flit arrivals for routers of another shard go to that shard's
/// mailbox, and packet-table mutations are recorded as [`PkEvent`]s —
/// both applied at the barrier.
///
/// Also re-derives the blocked-timer marks the fused pre-marking could
/// not know yet: a popped slot restarts (still occupied) or clears
/// (emptied) its timer, and a flit arriving at a router covered by
/// this cycle's worklist starts one — exactly the state the phased
/// pipeline's trailing sweep would have left.
fn apply_moves<E: EjectControl + ?Sized>(
    t: &mut ShardTask<'_, E>,
    sh: &StepShared<'_>,
    cycle: u64,
) {
    let d = sh.dims;
    let (nvcs, slots) = (d.vcs, d.slots);
    let ports = sh.links.ports;
    let (lo, hi) = (t.lo, t.hi);
    for mi in 0..t.sc.moves.len() {
        let Move {
            router: r,
            in_port,
            in_vc,
            out_port,
            out_vc,
        } = t.sc.moves[mi];
        let r = r as usize;
        let li = r - lo;
        let in_slot = in_port as usize * nvcs + in_vc as usize;
        let flit = t.rows.pop_flit(li, in_slot);
        let i = li * slots + in_slot;
        t.rows.blocked[i] = if t.rows.len[i] > 0 { cycle + 1 } else { 0 };
        if flit.is_tail {
            t.rows.route[i] = 0;
        }
        t.rows.flits[li] -= 1;
        // Return a credit upstream (network inputs only; NICs poll
        // injection space directly). The credit is an event for the
        // upstream router: wake it so it can use the freed slot.
        let up = sh.links.nbr[r * ports + in_port as usize];
        if up != u32::MAX {
            let upu = up as usize;
            let up_slot = sh.links.opp[in_port as usize] as usize * nvcs + in_vc as usize;
            if (lo..hi).contains(&upu) {
                let j = (upu - lo) * slots + up_slot;
                debug_assert!(t.rows.out_used[j] > 0, "credit returned twice");
                t.rows.out_used[j] -= 1;
                t.wake(upu);
            } else {
                t.sc.mail[sh.plan.shard_of(up)].push(CrossEffect::Credit {
                    router: up,
                    slot: up_slot as u16,
                });
            }
        }
        if sh.net_port[out_port as usize] {
            let out_slot = out_port as usize * nvcs + out_vc as usize;
            let o = li * slots + out_slot;
            t.rows.vc_busy[o] += 1;
            debug_assert!(
                (t.rows.out_used[o] as usize) < d.depth,
                "move without a credit"
            );
            t.rows.out_used[o] += 1;
            if flit.is_tail {
                t.rows.release_out(li, out_slot);
            }
            let dl = sh.links.dateline[r * ports + out_port as usize];
            if dl != 0 && flit.is_head() {
                t.sc.pk.push(PkEvent::Dateline {
                    msg: flit.msg,
                    mask: dl,
                });
            }
            let down = sh.links.nbr[r * ports + out_port as usize] as usize;
            debug_assert!(
                down != u32::MAX as usize,
                "allocated output implies the link exists"
            );
            let down_slot = sh.links.opp[out_port as usize] as usize * nvcs + out_vc as usize;
            if (lo..hi).contains(&down) {
                // Flit arrival: the second (and only other) point that
                // touches a router.
                touch(t.touched, &mut t.sc.materialized, down - t.word_base * 64);
                let dl = down - lo;
                t.rows.push_flit(dl, down_slot, flit);
                // Arrival mark: the trailing sweep of the phased pipeline
                // would see this flit (post-move occupancy) at any router
                // it covers this cycle.
                let j = dl * slots + down_slot;
                if sh.cur_mask[down >> 6] >> (down & 63) & 1 == 1 && t.rows.blocked[j] == 0 {
                    t.rows.blocked[j] = cycle + 1;
                }
                t.rows.flits[dl] += 1;
                t.wake(down);
            } else {
                t.sc.mail[sh.plan.shard_of(down as u32)].push(CrossEffect::Arrival {
                    router: down as u32,
                    slot: down_slot as u16,
                    flit,
                });
            }
        } else {
            let nic = NicId(sh.links.nic[r * ports + out_port as usize]);
            debug_assert!(nic.0 != u32::MAX, "output is network or local");
            if flit.is_tail {
                let st = sh
                    .packets
                    .get(flit.msg)
                    .expect("delivered packet must be registered");
                t.sc.counters.packets_delivered += 1;
                t.ej.deliver_packet(nic, st.msg, st.injected_at, cycle);
                t.sc.pk.push(PkEvent::Delivered { msg: flit.msg });
            } else {
                t.ej.deliver_flit(nic, flit.msg, cycle);
            }
            t.sc.counters.flits_delivered += 1;
        }
        t.sc.counters.flits_moved += 1;
    }
    t.sc.moves.clear();
}

impl Network {
    /// Advance the network one cycle with the per-cycle work partitioned
    /// across `plan.shards()` scoped worker threads — bit-identical to
    /// [`Network::step`] at any shard count.
    ///
    /// Each shard runs the fused pass over its slice of the worklist and
    /// its router range of the slab, then applies its own moves; effects
    /// landing in another shard's router range (credit returns, flit
    /// arrivals, wakes) are buffered into per-(src, dst) mailboxes and
    /// drained at the cycle barrier in fixed (src, dst) order, and
    /// packet-table mutations are deferred the same way. `ejs[s]` is
    /// shard `s`'s endpoint controller; ejection for a router always
    /// lands in its owning shard's controller, so controllers never race.
    /// In debug builds the cycle is validated against the phased
    /// reference pipeline exactly like the sequential step, with the
    /// per-shard endpoint logs merged in the sequential schedule's order.
    pub fn step_sharded<E: EjectControl + Send>(
        &mut self,
        cycle: u64,
        routing: &(dyn Routing + Sync),
        plan: &ShardPlan,
        ejs: &mut [E],
    ) {
        assert_eq!(
            ejs.len(),
            plan.shards(),
            "one endpoint controller per shard"
        );
        assert_eq!(
            plan.num_routers() as usize,
            self.slab.routers,
            "shard plan covers a different network"
        );
        self.begin_cycle();
        #[cfg(not(debug_assertions))]
        self.run_shards(cycle, routing, plan, ejs);
        #[cfg(debug_assertions)]
        {
            self.skipped_router_check(cycle);
            let mut scratch = std::mem::take(&mut self.shadow);
            scratch.snapshot(self);
            let mut recs: Vec<shadow::RecordEj<&mut E>> =
                ejs.iter_mut().map(shadow::RecordEj::new).collect();
            self.run_shards(cycle, routing, plan, &mut recs);
            scratch.take_logs(&recs);
            scratch.run_reference_and_compare(self, cycle, routing);
            self.shadow = scratch;
        }
        self.rearm();
    }

    /// The parallel phase plus barrier drain of one sharded cycle.
    fn run_shards<E: EjectControl + Send>(
        &mut self,
        cycle: u64,
        routing: &(dyn Routing + Sync),
        plan: &ShardPlan,
        ejs: &mut [E],
    ) {
        let nshards = plan.shards();
        let total_words = self.active_bits.len();
        let mut scratch = std::mem::take(&mut self.shard_scratch);
        scratch.resize_with(nshards, ShardScratch::default);
        for sc in &mut scratch {
            sc.reset(nshards);
        }
        let mut outs;
        {
            let Network {
                topo,
                slab,
                touched,
                packets,
                net_port,
                links,
                active_bits,
                worklist,
                cur_mask,
                ..
            } = &mut *self;
            let shared = StepShared {
                topo: &*topo,
                dims: slab.dims,
                net_port: &*net_port,
                links: &*links,
                packets: &*packets,
                cur_mask: &*cur_mask,
                plan,
            };
            let mut tasks: Vec<ShardTask<'_, E>> = Vec::with_capacity(nshards);
            let mut rows_rest = slab.rows_mut();
            let mut touched_rest: &mut [u64] = touched;
            let mut bits_rest: &mut [u64] = active_bits;
            let mut wl_rest: &[u32] = worklist;
            let mut ejs_rest: &mut [E] = ejs;
            let mut sc_it = scratch.into_iter();
            let mut word_lo = 0usize;
            for s in 0..nshards {
                let (lo, hi) = plan.range(s);
                // Interior bounds are either stride-aligned (whole words)
                // or clamped to `num_routers` mid-word; in the clamped
                // case every later shard is empty, so the covering word
                // belongs to this shard and rounding *up* is safe.
                let word_hi = if s + 1 == nshards {
                    total_words
                } else {
                    (hi as usize).div_ceil(64).min(total_words)
                };
                let (rows, rest) = rows_rest.split_at((hi - lo) as usize);
                rows_rest = rest;
                let (tw, rest) = std::mem::take(&mut touched_rest).split_at_mut(word_hi - word_lo);
                touched_rest = rest;
                let (bits, rest) = std::mem::take(&mut bits_rest).split_at_mut(word_hi - word_lo);
                bits_rest = rest;
                let (ej, rest) = std::mem::take(&mut ejs_rest)
                    .split_first_mut()
                    .expect("one endpoint controller per shard");
                ejs_rest = rest;
                let split = wl_rest.partition_point(|&r| r < hi);
                let (wl, rest) = wl_rest.split_at(split);
                wl_rest = rest;
                tasks.push(ShardTask {
                    lo: lo as usize,
                    hi: hi as usize,
                    word_base: word_lo,
                    rows,
                    touched: tw,
                    active_bits: bits,
                    worklist: wl,
                    ej,
                    sc: sc_it.next().expect("scratch sized to shard count"),
                });
                word_lo = word_hi;
            }
            outs = rayon::scope_map(tasks, |t| run_shard(t, &shared, cycle, routing));
        }
        let mailbox_effects = self.finish_cycle(&mut outs, cycle);
        mdd_obs::counter_add(CounterId::ShardMailboxFlits, mailbox_effects);
        mdd_obs::counter_add(
            CounterId::ShardBarrierWaits,
            (nshards as u64).saturating_sub(1),
        );
        self.shard_scratch = outs;
    }
}

/// What one full allocation attempt did — feeds the router's sleep
/// decision.
#[derive(Clone, Copy, PartialEq, Eq)]
enum AllocOutcome {
    /// A route (network output VC or ejection reservation) was granted.
    Granted,
    /// Every candidate output VC is owner-busy; the stall is memoized.
    StalledTransit,
    /// The destination NIC refused admission; must be re-asked each cycle.
    StalledAtDst,
}

/// Debug-build shadow machinery: every [`Network::step`] is re-executed by
/// a literal four-phase reference pipeline on a pre-cycle snapshot, with
/// endpoint interactions recorded during the real (fused) pass and
/// replayed to the reference; the two end states must match field by
/// field. This checks the fused pass, the stall memo, the blocked-timer
/// patch rules and the link tables against the phased semantics every
/// single cycle of every debug run.
#[cfg(debug_assertions)]
mod shadow {
    use super::*;

    /// One recorded endpoint interaction of the real pass.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) enum EjEvent {
        Accept {
            nic: NicId,
            msg: MsgHandle,
            ok: bool,
        },
        Flit {
            nic: NicId,
            msg: MsgHandle,
        },
        Packet {
            nic: NicId,
            msg: MsgHandle,
            injected_at: u64,
        },
    }

    /// Per-shard endpoint recorder wrapping the real [`EjectControl`].
    /// `can_accept` events and delivery events are kept in separate
    /// logs: every shard runs its allocation pass before its traversal,
    /// so the reference order is all accepts (shard order ==
    /// router-ascending) followed by all deliveries (same) —
    /// [`Scratch::take_logs`] concatenates them accordingly.
    pub(super) struct RecordEj<E> {
        inner: E,
        accepts: Vec<EjEvent>,
        delivers: Vec<EjEvent>,
    }

    impl<E: EjectControl> RecordEj<E> {
        pub(super) fn new(inner: E) -> Self {
            RecordEj {
                inner,
                accepts: Vec::new(),
                delivers: Vec::new(),
            }
        }
    }

    impl<E: EjectControl> EjectControl for RecordEj<E> {
        fn can_accept(&mut self, nic: NicId, msg: MsgHandle, cycle: u64) -> bool {
            let ok = self.inner.can_accept(nic, msg, cycle);
            self.accepts.push(EjEvent::Accept { nic, msg, ok });
            ok
        }
        fn deliver_flit(&mut self, nic: NicId, msg: MsgHandle, cycle: u64) {
            self.delivers.push(EjEvent::Flit { nic, msg });
            self.inner.deliver_flit(nic, msg, cycle);
        }
        fn deliver_packet(&mut self, nic: NicId, msg: MsgHandle, injected_at: u64, cycle: u64) {
            self.delivers.push(EjEvent::Packet {
                nic,
                msg,
                injected_at,
            });
            self.inner.deliver_packet(nic, msg, injected_at, cycle);
        }
    }

    /// Replays a recorded log to the reference pipeline, asserting the
    /// call sequences are identical.
    struct ReplayEj<'a> {
        log: &'a [EjEvent],
        pos: usize,
    }

    impl EjectControl for ReplayEj<'_> {
        fn can_accept(&mut self, nic: NicId, msg: MsgHandle, _cycle: u64) -> bool {
            let ev = self.log.get(self.pos).copied();
            self.pos += 1;
            match ev {
                Some(EjEvent::Accept { nic: n, msg: m, ok }) if n == nic && m == msg => ok,
                other => panic!(
                    "shadow: reference asked can_accept({nic:?}, {msg:?}) but the \
                     real pass recorded {other:?}"
                ),
            }
        }
        fn deliver_flit(&mut self, nic: NicId, msg: MsgHandle, _cycle: u64) {
            let ev = self.log.get(self.pos).copied();
            self.pos += 1;
            assert_eq!(
                ev,
                Some(EjEvent::Flit { nic, msg }),
                "shadow: flit delivery sequences diverged"
            );
        }
        fn deliver_packet(&mut self, nic: NicId, msg: MsgHandle, injected_at: u64, _cycle: u64) {
            let ev = self.log.get(self.pos).copied();
            self.pos += 1;
            assert_eq!(
                ev,
                Some(EjEvent::Packet {
                    nic,
                    msg,
                    injected_at
                }),
                "shadow: packet delivery sequences diverged"
            );
        }
    }

    /// Reusable snapshot + reference-pipeline scratch (all allocations
    /// are reused across cycles).
    #[derive(Default, Debug)]
    pub(super) struct Scratch {
        slab: Slab,
        touched: Vec<u64>,
        packets: PacketTable,
        counters: NetworkCounters,
        active_bits: Vec<u64>,
        ej_log: Vec<EjEvent>,
        cand: Vec<RouteCandidate>,
        moves: Vec<Move>,
    }

    /// Panic with the first differing router and entry if routers
    /// `lo..hi` of two arrays with `stride` entries per router differ.
    fn same<T: PartialEq + std::fmt::Debug>(
        what: &str,
        a: &[T],
        b: &[T],
        stride: usize,
        lo: usize,
        hi: usize,
        cycle: u64,
    ) {
        let (x, y) = (&a[lo * stride..hi * stride], &b[lo * stride..hi * stride]);
        if x != y {
            let k = x
                .iter()
                .zip(y)
                .position(|(p, q)| p != q)
                .expect("slices differ");
            panic!(
                "shadow: router {} {what} entry {} diverged at {cycle}: reference {:?}, fused {:?}",
                lo + k / stride,
                k % stride,
                x[k],
                y[k]
            );
        }
    }

    impl Scratch {
        /// Capture the pre-cycle state. Only routers touched on either
        /// side are copied: the rest are all-zero in both (a router
        /// untouched by the network but touched by the previous snapshot
        /// is copied too, which re-zeroes it after a reset).
        pub(super) fn snapshot(&mut self, net: &Network) {
            if self.slab.dims != net.slab.dims || self.slab.routers != net.slab.routers {
                self.slab = Slab::new(net.slab.dims, net.slab.routers);
                self.touched = vec![0; net.touched.len()];
            }
            if net.slab.is_allocated() && !self.slab.is_allocated() {
                self.slab.allocate();
            }
            let Scratch { slab, touched, .. } = self;
            for_each_run(&net.touched, touched, net.slab.routers, |lo, hi| {
                slab.copy_rows(&net.slab, lo, hi);
            });
            self.touched.clone_from(&net.touched);
            self.packets.clone_from(&net.packets);
            self.counters = net.counters;
            self.active_bits.clone_from(&net.active_bits);
        }

        /// Take the endpoint log of one cycle from the shards' recorders,
        /// in the sequential schedule's order: all accepts in shard order,
        /// then all deliveries in shard order.
        pub(super) fn take_logs<E>(&mut self, recs: &[RecordEj<E>]) {
            self.ej_log.clear();
            for rec in recs {
                self.ej_log.extend_from_slice(&rec.accepts);
            }
            for rec in recs {
                self.ej_log.extend_from_slice(&rec.delivers);
            }
        }

        /// Run the phased reference pipeline on the snapshot and compare
        /// its end state against the fused pipeline's (`net`, already
        /// advanced).
        pub(super) fn run_reference_and_compare(
            &mut self,
            net: &Network,
            cycle: u64,
            routing: &dyn Routing,
        ) {
            let log = std::mem::take(&mut self.ej_log);
            let mut ej = ReplayEj { log: &log, pos: 0 };
            self.ref_alloc_phase(net, cycle, routing, &mut ej);
            self.ref_switch_phase(net);
            self.ref_apply_moves(net, cycle, &mut ej);
            self.ref_blocked_sweep(net, cycle);
            assert_eq!(
                ej.pos,
                log.len(),
                "shadow: the fused pass performed more endpoint calls than the reference"
            );
            self.ej_log = log;
            self.compare(net, cycle);
        }

        /// Reference phase 1: route computation & output-VC allocation,
        /// rotated occupancy order, full candidate recomputation (no stall
        /// memo).
        fn ref_alloc_phase(
            &mut self,
            net: &Network,
            cycle: u64,
            routing: &dyn Routing,
            ej: &mut dyn EjectControl,
        ) {
            let Scratch {
                slab,
                packets,
                cand,
                ..
            } = self;
            let d = slab.dims;
            let mut rows = slab.rows_mut();
            for &r in &net.worklist {
                let r = r as usize;
                let node = NodeId(r as u32);
                rows.sync_rr_alloc(r, cycle);
                let start = rows.rr_alloc[r] as usize % d.slots;
                let occ = rows.in_occ[r];
                let low = occ & ((1u128 << start) - 1);
                let mut high = occ ^ low;
                let mut pending = low;
                loop {
                    let idx = if high != 0 {
                        let i = high.trailing_zeros() as usize;
                        high &= high - 1;
                        i
                    } else if pending != 0 {
                        let i = pending.trailing_zeros() as usize;
                        pending &= pending - 1;
                        i
                    } else {
                        break;
                    };
                    let i = r * d.slots + idx;
                    if rows.route[i] != 0 {
                        continue;
                    }
                    let front = rows.flit_at(r, idx, 0);
                    if !front.is_head() {
                        continue;
                    }
                    let h = front.msg;
                    let Some(pkt) = packets.get(h).copied() else {
                        continue;
                    };
                    cand.clear();
                    let hint = cycle
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add((r as u64) << 8)
                        .wrapping_add(idx as u64);
                    routing.candidates(&net.topo, node, &pkt, hint, cand);
                    for &c in cand.iter() {
                        if let Some(local) = net.topo.port_local_index(c.port) {
                            let nic = net.topo.nic_at(node, local);
                            if ej.can_accept(nic, h, cycle) {
                                rows.route[i] = c.port.0 + 1;
                                rows.route_vc[i] = 0;
                                break;
                            }
                        } else {
                            let out_slot = c.port.index() * d.vcs + c.vc as usize;
                            if rows.out_free(r, out_slot) {
                                rows.own_out(r, out_slot, h);
                                rows.route[i] = c.port.0 + 1;
                                rows.route_vc[i] = c.vc;
                                break;
                            }
                        }
                    }
                }
                rows.rr_alloc[r] = rows.rr_alloc[r].wrapping_add(1);
                rows.rr_cycle[r] = cycle + 1;
            }
        }

        /// Reference phase 2: switch allocation — requests gathered in
        /// ascending slot order, then per-port round-robin grants.
        fn ref_switch_phase(&mut self, net: &Network) {
            self.moves.clear();
            let sl = &mut self.slab;
            let d = sl.dims;
            let (nvcs, total) = (d.vcs, d.slots);
            for &r in &net.worklist {
                let r = r as usize;
                let base = r * total;
                let mut reqs: Vec<(usize, usize, u8)> = Vec::new();
                let mut port_mask = 0u64;
                let mut occ = sl.in_occ[r];
                while occ != 0 {
                    let idx = occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    if sl.route[base + idx] != 0 {
                        let q = sl.route[base + idx] as usize - 1;
                        port_mask |= 1 << q;
                        reqs.push((idx, q, sl.route_vc[base + idx]));
                    }
                }
                let mut in_used = [false; 64];
                while port_mask != 0 {
                    let q = port_mask.trailing_zeros() as usize;
                    port_mask &= port_mask - 1;
                    let rr = sl.rr_out[r * d.ports + q] as usize % total;
                    let mut best: Option<(usize, usize, u8)> = None;
                    for &(idx, op, ov) in &reqs {
                        if op != q || in_used[idx / nvcs] {
                            continue;
                        }
                        if net.net_port[q]
                            && sl.out_used[base + q * nvcs + ov as usize] as usize == d.depth
                        {
                            continue;
                        }
                        let rank = (idx + total - rr) % total;
                        if best.is_none_or(|(b, _, _)| rank < b) {
                            best = Some((rank, idx, ov));
                        }
                    }
                    if let Some((_, idx, ov)) = best {
                        in_used[idx / nvcs] = true;
                        sl.rr_out[r * d.ports + q] = ((idx + 1) % total) as u8;
                        self.moves.push(Move {
                            router: r as u32,
                            in_port: (idx / nvcs) as u8,
                            in_vc: (idx % nvcs) as u8,
                            out_port: q as u8,
                            out_vc: ov,
                        });
                    }
                }
            }
        }

        /// Reference phase 3: link traversal via direct topology queries
        /// (independently validating the link tables).
        fn ref_apply_moves(&mut self, net: &Network, cycle: u64, ej: &mut dyn EjectControl) {
            let Scratch {
                slab,
                touched,
                packets,
                counters,
                active_bits,
                moves,
                ..
            } = self;
            let d = slab.dims;
            let (nvcs, slots) = (d.vcs, d.slots);
            let mut rows = slab.rows_mut();
            for &Move {
                router: r,
                in_port,
                in_vc,
                out_port,
                out_vc,
            } in moves.iter()
            {
                let r = r as usize;
                let node = NodeId(r as u32);
                let in_slot = in_port as usize * nvcs + in_vc as usize;
                let flit = rows.pop_flit(r, in_slot);
                rows.blocked[r * slots + in_slot] = 0;
                if flit.is_tail {
                    rows.route[r * slots + in_slot] = 0;
                }
                rows.flits[r] -= 1;
                if let Some((dim, dir)) = net.topo.port_dim_dir(PortId(in_port)) {
                    let up = net
                        .topo
                        .neighbor(node, dim, dir)
                        .expect("input link exists");
                    let upport = net.topo.port(dim, dir.opposite());
                    rows.out_used[up.index() * slots + upport.index() * nvcs + in_vc as usize] -= 1;
                    active_bits[up.index() >> 6] |= 1 << (up.index() & 63);
                }
                let out = PortId(out_port);
                if let Some((d2, dir2)) = net.topo.port_dim_dir(out) {
                    let out_slot = out_port as usize * nvcs + out_vc as usize;
                    rows.vc_busy[r * slots + out_slot] += 1;
                    rows.out_used[r * slots + out_slot] += 1;
                    if flit.is_tail {
                        rows.release_out(r, out_slot);
                    }
                    if flit.is_head() && net.topo.crosses_dateline(node, d2, dir2) {
                        if let Some(st) = packets.get_mut(flit.msg) {
                            st.crossed_dateline |= 1 << d2;
                        }
                    }
                    let down = net
                        .topo
                        .neighbor(node, d2, dir2)
                        .expect("output link exists");
                    let dport = net.topo.port(d2, dir2.opposite());
                    let down_slot = dport.index() * nvcs + out_vc as usize;
                    // Mirror the real pass's arrival touch.
                    touched[down.index() >> 6] |= 1 << (down.index() & 63);
                    rows.push_flit(down.index(), down_slot, flit);
                    rows.flits[down.index()] += 1;
                    active_bits[down.index() >> 6] |= 1 << (down.index() & 63);
                } else {
                    let local = net.topo.port_local_index(out).expect("local port");
                    let nic = net.topo.nic_at(node, local);
                    if flit.is_tail {
                        let st = packets.remove(flit.msg).expect("registered packet");
                        counters.packets_delivered += 1;
                        ej.deliver_packet(nic, st.msg, st.injected_at, cycle);
                    } else {
                        ej.deliver_flit(nic, flit.msg, cycle);
                    }
                    counters.flits_delivered += 1;
                }
                counters.flits_moved += 1;
            }
        }

        /// Reference phase 4: the trailing blocked-timer sweep.
        fn ref_blocked_sweep(&mut self, net: &Network, cycle: u64) {
            let sl = &mut self.slab;
            for &r in &net.worklist {
                let r = r as usize;
                let mut occ = sl.in_occ[r];
                while occ != 0 {
                    let i = r * sl.dims.slots + occ.trailing_zeros() as usize;
                    occ &= occ - 1;
                    if sl.blocked[i] == 0 {
                        sl.blocked[i] = cycle + 1;
                    }
                }
            }
        }

        /// Compare the reference end state against the fused pipeline's.
        /// The memoization clocks (`stall_epoch`, `alloc_epoch`) and the
        /// sleep bookkeeping are excluded: they are fused-pass state with
        /// no phased counterpart.
        fn compare(&self, net: &Network, cycle: u64) {
            assert_eq!(
                self.counters, net.counters,
                "shadow: counters diverged at {cycle}"
            );
            assert_eq!(
                self.active_bits, net.active_bits,
                "shadow: wake sets diverged at {cycle}"
            );
            assert!(
                self.packets == net.packets,
                "shadow: packet tables diverged at {cycle}"
            );
            assert_eq!(
                self.touched, net.touched,
                "shadow: touched-router frontier diverged at {cycle}"
            );
            let (a, b) = (&self.slab, &net.slab);
            let d = a.dims;
            let (flit, slot, port) = (d.slots * d.depth, d.slots, d.ports);
            for_each_run(&self.touched, &self.touched, a.routers, |lo, hi| {
                same("flit count", &a.flits, &b.flits, 1, lo, hi, cycle);
                same("occupancy", &a.in_occ, &b.in_occ, 1, lo, hi, cycle);
                same("ring head", &a.head, &b.head, slot, lo, hi, cycle);
                same("buffer length", &a.len, &b.len, slot, lo, hi, cycle);
                same("flit message", &a.fl_msg, &b.fl_msg, flit, lo, hi, cycle);
                same("flit sequence", &a.fl_seq, &b.fl_seq, flit, lo, hi, cycle);
                same("route port", &a.route, &b.route, slot, lo, hi, cycle);
                same("blocked timer", &a.blocked, &b.blocked, slot, lo, hi, cycle);
                same("ownership", &a.out_owned, &b.out_owned, 1, lo, hi, cycle);
                same(
                    "used credits",
                    &a.out_used,
                    &b.out_used,
                    slot,
                    lo,
                    hi,
                    cycle,
                );
                same("vc_busy", &a.vc_busy, &b.vc_busy, slot, lo, hi, cycle);
                same("rr_out", &a.rr_out, &b.rr_out, port, lo, hi, cycle);
                same("rr_alloc", &a.rr_alloc, &b.rr_alloc, 1, lo, hi, cycle);
                same("rr_cycle", &a.rr_cycle, &b.rr_cycle, 1, lo, hi, cycle);
                for i in lo * slot..hi * slot {
                    // route_vc is only meaningful where a route is set,
                    // and an owner only where its ownership bit is.
                    let (r, s) = (i / slot, i % slot);
                    if a.route[i] != 0 {
                        assert_eq!(
                            a.route_vc[i], b.route_vc[i],
                            "shadow: router {r} route vc slot {s} at {cycle}"
                        );
                    }
                    if a.out_owned[r] >> s & 1 == 1 {
                        assert_eq!(
                            a.out_owner[i], b.out_owner[i],
                            "shadow: router {r} out-VC {s} owner at {cycle}"
                        );
                    }
                }
            });
        }
    }
}

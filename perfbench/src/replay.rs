//! A traced replay of `Simulator::step` and `Simulator::run_cycles`.
//!
//! The replay wires the same components as `mdd_core::Simulator` from
//! their public constructors and drives them in the same per-cycle order,
//! opening a [`Tracer`] span around each layer's calls:
//!
//! `traffic` → `nic.issue` → `nic.tick` → `nic.deflect` (DR) or
//! `recovery` (PR) → `nic.inject` → `router`,
//!
//! with `core.ff` around the quiescent fast-forward check and
//! `core.build` around construction. Routing and ejection run inside
//! `Network::step`; they are counted through pass-through wrappers, not
//! timed. The replay must end bit-identical to `Simulator` for the same
//! configuration ([`Fingerprint`] checks it), so whenever
//! `Simulator::step` changes, this file must follow.

use crate::due::DueSet;
use crate::trace::{Layer, Tracer};
use mdd_core::{PrRecovery, Scheme, SchemeConfigError, SimConfig, SimResult, Simulator};
use mdd_nic::{Nic, NicConfig, NicStats};
use mdd_protocol::{IdAlloc, MessageStore, MsgHandle, MsgType};
use mdd_router::{EjectControl, Network, PacketState, RouteCandidate, Routing};
use mdd_routing::{SchemeRouting, VcMap};
use mdd_topology::{NicId, NodeId, Topology, TopologyKind};
use mdd_traffic::{SyntheticTraffic, TrafficSource};
use std::cell::Cell;

/// The state a run must end in, compared bit for bit between the replay
/// and `Simulator`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Final cycle.
    pub cycle: u64,
    /// Total flit-hops moved by the network.
    pub flits_moved: u64,
    /// Transactions generated in the window.
    pub generated: u64,
    /// Messages consumed in the window.
    pub messages: u64,
    /// Transactions completed in the window.
    pub transactions: u64,
    /// Deadlocks detected, deflections, endpoint and router rescues.
    pub recovery_events: [u64; 4],
    /// `throughput.to_bits()`.
    pub throughput_bits: u64,
    /// `avg_latency.to_bits()`.
    pub latency_bits: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished run.
    pub fn new(r: &SimResult, cycle: u64, flits_moved: u64) -> Self {
        Fingerprint {
            cycle,
            flits_moved,
            generated: r.generated,
            messages: r.messages_delivered,
            transactions: r.transactions,
            recovery_events: [r.deadlocks, r.deflections, r.rescues, r.router_rescues],
            throughput_bits: r.throughput.to_bits(),
            latency_bits: r.avg_latency.to_bits(),
        }
    }

    /// Run `cfg` on an untraced `Simulator` and fingerprint it.
    pub fn of_simulator(cfg: &SimConfig) -> Result<(SimResult, Fingerprint), SchemeConfigError> {
        let mut sim = Simulator::new(cfg.clone())?;
        let r = sim.run();
        let fp = Fingerprint::new(&r, sim.cycle(), sim.network().counters().flits_moved);
        Ok((r, fp))
    }
}

/// Work counts gathered by the replay's own wrappers and loops.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct LayerCounts {
    /// Simulated cycles, fast-forwarded ones included.
    pub cycles: u64,
    /// Cycles skipped by quiescent fast-forward.
    pub ff_cycles: u64,
    /// NICs times simulated cycles.
    pub nic_cycles: u64,
    /// Source-queue heads offered to a NIC.
    pub issue_tries: u64,
    /// Heads the NIC accepted.
    pub issued: u64,
    /// `Nic::tick` calls.
    pub ticks_run: u64,
    /// `Nic::try_deflect` calls.
    pub deflect_calls: u64,
    /// Calls that deflected.
    pub deflections: u64,
    /// `Nic::injection_tick` calls.
    pub inject_calls: u64,
    /// Flits accepted into injection buffers.
    pub flits_injected: u64,
    /// `Routing::candidates` calls.
    pub routing_calls: u64,
    /// Candidates those calls returned.
    pub routing_candidates: u64,
    /// `EjectControl::can_accept` calls.
    pub eject_asked: u64,
    /// Calls that accepted.
    pub eject_accepted: u64,
    /// Transactions generated.
    pub generated: u64,
    /// PR recovery episodes started.
    pub episodes: u64,
    /// Messages carried over the PR recovery lane.
    pub lane_transfers: u64,
}

impl LayerCounts {
    /// Element-wise sum (for multi-point runs).
    pub fn add(&mut self, o: &LayerCounts) {
        self.cycles += o.cycles;
        self.ff_cycles += o.ff_cycles;
        self.nic_cycles += o.nic_cycles;
        self.issue_tries += o.issue_tries;
        self.issued += o.issued;
        self.ticks_run += o.ticks_run;
        self.deflect_calls += o.deflect_calls;
        self.deflections += o.deflections;
        self.inject_calls += o.inject_calls;
        self.flits_injected += o.flits_injected;
        self.routing_calls += o.routing_calls;
        self.routing_candidates += o.routing_candidates;
        self.eject_asked += o.eject_asked;
        self.eject_accepted += o.eject_accepted;
        self.generated += o.generated;
        self.episodes += o.episodes;
        self.lane_transfers += o.lane_transfers;
    }
}

/// Pass-through [`Routing`] that counts candidate computations.
struct CountingRouting {
    inner: SchemeRouting,
    calls: Cell<u64>,
    candidates: Cell<u64>,
}

impl Routing for CountingRouting {
    fn candidates(
        &self,
        topo: &Topology,
        node: NodeId,
        pkt: &PacketState,
        rr_hint: u64,
        out: &mut Vec<RouteCandidate>,
    ) {
        self.inner.candidates(topo, node, pkt, rr_hint, out);
        self.calls.set(self.calls.get() + 1);
        self.candidates
            .set(self.candidates.get() + out.len() as u64);
    }

    fn injection_vcs(&self, pkt: &PacketState, out: &mut Vec<u8>) {
        self.inner.injection_vcs(pkt, out);
    }

    fn dateline_sensitive(&self, mtype: MsgType) -> bool {
        self.inner.dateline_sensitive(mtype)
    }
}

/// The replay's [`EjectControl`]: delivers into the NIC array, wakes the
/// receiving NIC's schedule, and counts acceptance decisions.
struct Eject<'a> {
    store: &'a MessageStore,
    nics: &'a mut [Nic],
    due: &'a mut DueSet,
    asked: u64,
    accepted: u64,
}

impl EjectControl for Eject<'_> {
    fn can_accept(&mut self, nic: NicId, msg: MsgHandle, _cycle: u64) -> bool {
        let ok = self.nics[nic.index()].can_accept(self.store.get(msg));
        self.asked += 1;
        self.accepted += u64::from(ok);
        ok
    }

    fn deliver_flit(&mut self, nic: NicId, _msg: MsgHandle, _cycle: u64) {
        self.nics[nic.index()].on_flit();
    }

    fn deliver_packet(&mut self, nic: NicId, msg: MsgHandle, _injected_at: u64, _cycle: u64) {
        self.nics[nic.index()].on_packet(msg, self.store.get(msg));
        self.due.set(nic.index(), 0);
    }
}

/// One traced simulation instance.
pub struct Replay {
    cfg: SimConfig,
    topo: Topology,
    net: Network,
    routing: CountingRouting,
    nics: Vec<Nic>,
    store: MessageStore,
    traffic: SyntheticTraffic,
    recovery: Option<PrRecovery>,
    ids: IdAlloc,
    cycle: u64,
    due: DueSet,
    due_list: Vec<u32>,
    srcs: Vec<NicId>,
    tr: Tracer,
    n: LayerCounts,
}

impl Replay {
    /// Build the components of `Simulator::new(cfg)` inside a
    /// `core.build` span. Only the sequential execution path is replayed:
    /// `cfg.shards` must be at most 1 and the CWG oracle off.
    pub fn new(cfg: SimConfig, mut tr: Tracer) -> Result<Self, SchemeConfigError> {
        assert!(
            cfg.shards <= 1 && cfg.cwg_interval.is_none(),
            "the replay covers the sequential path without the CWG oracle"
        );
        tr.open(Layer::CoreBuild);
        let num_nics = cfg.num_nodes();
        let mut traffic =
            SyntheticTraffic::new(cfg.pattern.clone(), num_nics, cfg.load, cfg.dest, cfg.seed);
        if cfg.sparse_arrivals {
            traffic = traffic.sparse_arrivals();
        }
        let escape = if cfg.mesh { 1 } else { 2 };
        let map = match VcMap::build(cfg.scheme, cfg.pattern.protocol(), cfg.vcs, escape) {
            Ok(map) => map,
            Err(e) => {
                tr.close();
                return Err(e);
            }
        };
        let kind = if cfg.mesh {
            TopologyKind::Mesh
        } else {
            TopologyKind::Torus
        };
        let topo = Topology::new(kind, &cfg.radix, cfg.bristle);
        let routing = CountingRouting {
            inner: SchemeRouting::new(map),
            calls: Cell::new(0),
            candidates: Cell::new(0),
        };
        let net = Network::new(topo.clone(), cfg.vcs, cfg.flit_buf);
        let dr = matches!(cfg.scheme, Scheme::DeflectiveRecovery);
        let nic_cfg = NicConfig {
            queue_capacity: cfg.queue_capacity,
            service_time: cfg.service_time,
            mshr_limit: cfg.mshr_limit,
            detect_threshold: cfg.detect_threshold,
            queue_org: cfg.effective_queue_org(),
            preallocate_replies: dr,
            preallocate_return_replies: dr,
        };
        let mut nics: Vec<Nic> = topo
            .nics()
            .map(|n| Nic::new(n, nic_cfg, cfg.pattern.clone(), cfg.vcs))
            .collect();
        for nic in &mut nics {
            nic.measuring = false;
        }
        let recovery = matches!(cfg.scheme, Scheme::ProgressiveRecovery).then(|| {
            PrRecovery::new(
                &topo,
                cfg.pattern.clone(),
                cfg.token_hop,
                cfg.lane_hop,
                cfg.router_block_threshold,
            )
        });
        let due = DueSet::new(nics.len());
        tr.close();
        Ok(Replay {
            cfg,
            topo,
            net,
            routing,
            nics,
            store: MessageStore::new(),
            traffic,
            recovery,
            ids: IdAlloc::new(),
            cycle: 0,
            due,
            due_list: Vec::new(),
            srcs: Vec::new(),
            tr,
            n: LayerCounts::default(),
        })
    }

    /// The tracer, for reading self times and spans.
    pub fn tracer(&self) -> &Tracer {
        &self.tr
    }

    /// Work counts so far.
    pub fn counts(&self) -> LayerCounts {
        let mut n = self.n;
        n.nic_cycles = n.cycles * self.nics.len() as u64;
        n.routing_calls = self.routing.calls.get();
        n.routing_candidates = self.routing.candidates.get();
        n.flits_injected = self.net.counters().flits_injected;
        n.generated = self.traffic.generated();
        if let Some(rec) = &self.recovery {
            n.episodes = rec.episodes_started;
            n.lane_transfers = rec.lane_transfers();
        }
        n
    }

    fn set_measuring(&mut self, on: bool) {
        for nic in &mut self.nics {
            nic.measuring = on;
        }
    }

    fn issue_from_source(&mut self, i: usize, c: u64) {
        let nic_id = NicId(i as u32);
        while let Some(head) = self.traffic.pending_head(nic_id) {
            self.n.issue_tries += 1;
            if !self.nics[i].can_issue_request(self.store.get(head).mtype) {
                break;
            }
            let h = self.traffic.pop_pending(nic_id).expect("head exists");
            self.nics[i].issue_request(h, &self.store);
            self.due.set(i, c);
            self.n.issued += 1;
        }
    }

    /// One cycle, in `Simulator::step`'s order.
    fn step(&mut self) {
        let c = self.cycle;
        self.tr.open(Layer::Traffic);
        self.traffic.tick(c, &mut self.ids, &mut self.store);
        let mut srcs = std::mem::take(&mut self.srcs);
        let sparse = self.traffic.pending_sources(&mut srcs);
        self.tr.close();

        self.tr.open(Layer::NicIssue);
        if sparse {
            for &nic in &srcs {
                self.issue_from_source(nic.index(), c);
            }
        } else {
            for i in 0..self.nics.len() {
                self.issue_from_source(i, c);
            }
        }
        self.tr.close();
        self.srcs = srcs;

        // A PR rescue episode may touch any NIC: tick densely meanwhile.
        let episode_before = self
            .recovery
            .as_ref()
            .is_some_and(PrRecovery::episode_active);
        let mut due = std::mem::take(&mut self.due_list);
        if episode_before {
            self.tr.open(Layer::NicTick);
            for nic in &mut self.nics {
                nic.tick(c, &mut self.ids, &mut self.store);
            }
            self.tr.close();
            self.n.ticks_run += self.nics.len() as u64;
        } else {
            self.due.due_into(c, &mut due);
            self.tr.open(Layer::NicTick);
            for &i in &due {
                self.nics[i as usize].tick(c, &mut self.ids, &mut self.store);
            }
            self.tr.close();
            self.n.ticks_run += due.len() as u64;
        }

        match self.cfg.scheme {
            Scheme::DeflectiveRecovery => {
                self.tr.open(Layer::NicDeflect);
                for nic in &mut self.nics {
                    if nic.detection_fired(c) {
                        self.n.deflect_calls += 1;
                        if nic.try_deflect(c, &mut self.ids, &mut self.store) {
                            self.n.deflections += 1;
                        }
                    }
                }
                self.tr.close();
            }
            Scheme::ProgressiveRecovery => {
                let rec = self.recovery.as_mut().expect("PR has recovery state");
                self.tr.open(Layer::Recovery);
                rec.step(
                    &mut self.net,
                    &mut self.nics,
                    &self.topo,
                    c,
                    &mut self.store,
                );
                self.tr.close();
            }
            Scheme::StrictAvoidance { .. } => {}
        }
        let episode_after = episode_before
            || self
                .recovery
                .as_ref()
                .is_some_and(PrRecovery::episode_active);
        if episode_after {
            self.due.wake_all(c);
            self.due.due_into(c, &mut due);
        }

        self.tr.open(Layer::NicInject);
        for &i in &due {
            let i = i as usize;
            self.nics[i].injection_tick(&mut self.net, &self.routing, c, &self.store);
            self.due.set(i, self.nics[i].next_tick_cycle(c + 1));
        }
        self.tr.close();
        self.n.inject_calls += due.len() as u64;
        self.due_list = due;

        let mut ej = Eject {
            store: &self.store,
            nics: &mut self.nics,
            due: &mut self.due,
            asked: 0,
            accepted: 0,
        };
        self.tr.open(Layer::Router);
        self.net.step(c, &self.routing, &mut ej);
        self.tr.close();
        self.n.eject_asked += ej.asked;
        self.n.eject_accepted += ej.accepted;
        self.cycle += 1;
        self.n.cycles += 1;
    }

    /// `Simulator::fast_forward_target` for the replayed configurations
    /// (generation on, no CWG oracle).
    fn fast_forward_target(&self, end: u64) -> Option<u64> {
        let c = self.cycle;
        if !self.net.is_idle() || self.traffic.backlog() != 0 {
            return None;
        }
        let mut target = end
            .min(self.traffic.next_arrival_cycle(c))
            .min(self.due.min_next());
        if let Some(rec) = &self.recovery {
            target = target.min(rec.next_event_cycle()?);
        }
        (target > c).then_some(target)
    }

    /// `Simulator::run_cycles`, inside one `bench.harness` span.
    pub fn run_cycles(&mut self, n: u64) {
        let end = self.cycle.saturating_add(n);
        self.tr.open(Layer::Harness);
        while self.cycle < end {
            self.tr.open(Layer::CoreFf);
            let target = self.fast_forward_target(end);
            self.tr.close();
            if let Some(target) = target {
                self.n.ff_cycles += target - self.cycle;
                self.n.cycles += target - self.cycle;
                self.cycle = target;
                continue;
            }
            self.step();
        }
        self.tr.close();
    }

    /// `Simulator::run`: warm-up, then the measurement window; returns the
    /// same `SimResult` and the run's [`Fingerprint`].
    pub fn run(&mut self) -> (SimResult, Fingerprint) {
        self.set_measuring(false);
        self.run_cycles(self.cfg.warmup);
        self.set_measuring(true);
        let net0 = self.net.counters();
        let gen0 = self.traffic.generated();
        let rec0 = self.recovery.as_ref().map_or(0, |r| r.router_captures);
        self.run_cycles(self.cfg.measure);
        let net1 = self.net.counters();
        let rec1 = self.recovery.as_ref().map_or(0, |r| r.router_captures);
        self.set_measuring(false);

        let agg = NicStats::merge_all(self.nics.iter().map(|n| &n.stats));
        let util = self.net.vc_utilization(self.cycle.max(1));
        let nodes = self.topo.num_nics() as f64;
        let r = SimResult {
            applied_load: self.cfg.load,
            throughput: (net1.flits_delivered - net0.flits_delivered) as f64
                / nodes
                / self.cfg.measure as f64,
            avg_latency: agg.msg_latency.mean(),
            latency_quantiles: agg.msg_latency_quantiles.estimates(),
            messages_delivered: agg.messages_consumed,
            transactions: agg.transactions_completed,
            deadlocks: agg.deadlocks_detected,
            router_rescues: rec1 - rec0,
            deflections: agg.deflections,
            rescues: agg.rescues,
            generated: self.traffic.generated() - gen0,
            mc_utilization: agg.mc_busy_cycles as f64 / (nodes * self.cycle.max(1) as f64),
            cwg_checks: 0,
            cwg_deadlocked_checks: 0,
            vc_util_mean: util.0,
            vc_util_max: util.1,
            vc_util_cv: util.2,
            obs: None,
        };
        let fp = Fingerprint::new(&r, self.cycle, net1.flits_moved);
        (r, fp)
    }

    /// Give the tracer back (after the run).
    pub fn into_tracer(self) -> Tracer {
        self.tr
    }
}

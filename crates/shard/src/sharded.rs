//! The sharded network facade.
//!
//! [`ShardedNetwork`] presents the same surface as a single
//! [`Network`] — enqueue, step, stats, energies, audits, snapshots —
//! while running one engine per contiguous node range. Each cycle,
//! every shard drains its inbound mailboxes for the cycle, runs the
//! engine's normal compute/commit phases, and deposits boundary
//! traffic for future cycles; the end of the cycle is the only
//! synchronisation barrier. Results are bit-identical to the
//! single-engine simulator for any shard count (see `docs/SCALING.md`
//! for the argument, and this crate's tests for the proof by
//! comparison).
//!
//! Threaded stepping uses long-lived workers, one per shard after the
//! first, started on the first threaded [`ShardedNetwork::step`] and
//! joined when the network drops. Each cycle the caller hands shards
//! `1..N` to their workers over channels, steps shard 0 itself, and
//! takes the cells back; every handoff wait spins briefly, then
//! yields, then blocks, so a cycle costs no thread spawn and an idle
//! network costs no CPU.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use orion_net::{FaultSchedule, NodeId, TopologyKind};
use orion_obs::{NodeState, ObsEvent, ObsSink};
use orion_sim::energy::Component;
use orion_sim::network::{EngineMode, Network, NetworkSpec};
use orion_sim::snapshot::{ByteReader, ByteWriter, SnapshotError, SNAPSHOT_VERSION};
use orion_sim::{AuditViolation, PacketId, PowerModels, SimStats, StallDiagnostics, StallKind};
use orion_tech::Joules;

use crate::mailbox::{MailGrid, MailboxIo};
use crate::plan::ShardPlan;

/// One shard: its engine plus reusable per-cycle scratch.
#[derive(Debug)]
struct ShardCell {
    net: Network,
    /// Inbound boundary flits, indexed by source shard (own index
    /// unused). Refilled from the grid each cycle.
    inbound_flits: Vec<Vec<orion_sim::FlitMsg>>,
    inbound_credits: Vec<Vec<orion_sim::CreditMsg>>,
    /// Recorded observability events drained after each cycle.
    events: Vec<ObsEvent>,
}

impl ShardCell {
    /// Drains this cycle's inbound mail and runs one engine cycle,
    /// sending boundary traffic through `grid`.
    fn step(&mut self, me: usize, grid: &MailGrid, cycle: u64) {
        for src in 0..grid.shards() {
            if src == me {
                continue;
            }
            grid.drain_flits(src, me, cycle, &mut self.inbound_flits[src]);
            grid.drain_credits(src, me, cycle, &mut self.inbound_credits[src]);
        }
        let mut io = MailboxIo::new(grid, me);
        self.net
            .step_with_io(&mut io, &mut self.inbound_flits, &mut self.inbound_credits);
    }
}

/// Handoff waits poll this many times with a spin hint...
const SPIN_POLLS: u32 = 256;
/// ...then this many times with a `yield_now` in between, before
/// blocking on the channel.
const YIELD_POLLS: u32 = 64;

/// Receives the next message, or `None` once the sender is gone. A
/// message that arrives within the spin/yield window is taken without
/// an OS wake-up; a longer wait blocks and burns no CPU.
fn wait<T>(rx: &Receiver<T>) -> Option<T> {
    for poll in 0..SPIN_POLLS + YIELD_POLLS {
        match rx.try_recv() {
            Ok(msg) => return Some(msg),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if poll < SPIN_POLLS => std::hint::spin_loop(),
            Err(TryRecvError::Empty) => std::thread::yield_now(),
        }
    }
    rx.recv().ok()
}

/// A long-lived thread that steps one shard cell per cycle: it
/// receives the cell and the cycle, runs [`ShardCell::step`], and
/// sends the cell back.
#[derive(Debug)]
struct Worker {
    jobs: SyncSender<(ShardCell, u64)>,
    done: Receiver<ShardCell>,
    handle: JoinHandle<()>,
}

impl Worker {
    /// Starts the worker for shard `me`.
    fn spawn(me: usize, grid: Arc<MailGrid>) -> Worker {
        let (jobs, job_rx) = sync_channel::<(ShardCell, u64)>(1);
        let (done_tx, done) = sync_channel(1);
        let handle = std::thread::Builder::new()
            .name(format!("orion-shard-{me}"))
            .spawn(move || {
                while let Some((mut cell, cycle)) = wait(&job_rx) {
                    cell.step(me, &grid, cycle);
                    if done_tx.send(cell).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn shard worker thread");
        Worker { jobs, done, handle }
    }

    /// Closes both channels and joins the thread. A worker still
    /// stepping finishes its cycle, fails to hand the cell back and
    /// exits.
    fn join(self) -> std::thread::Result<()> {
        let Worker { jobs, done, handle } = self;
        drop((jobs, done));
        handle.join()
    }
}

/// A network partitioned across shard engines, bit-identical to a
/// single [`Network`] built from the same spec.
#[derive(Debug)]
pub struct ShardedNetwork {
    /// The shard cells in shard order. Between steps this holds every
    /// shard; during a threaded step only shard 0 stays here.
    cells: Vec<ShardCell>,
    grid: Arc<MailGrid>,
    plan: ShardPlan,
    spec: NetworkSpec,
    /// The single global packet-id sequence, threaded through
    /// whichever shard injects next.
    next_packet: u64,
    /// The master observer; shard engines carry recorder sinks whose
    /// events are replayed into it in canonical order.
    obs: Option<Box<ObsSink>>,
    parallel: bool,
    /// Workers for shards `1..`, started by the first threaded step.
    workers: Vec<Worker>,
}

impl ShardedNetwork {
    /// Builds a network evenly partitioned into `shards` contiguous
    /// ranges.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or exceeds the node count.
    pub fn new(spec: NetworkSpec, models: PowerModels, shards: usize) -> ShardedNetwork {
        let plan = ShardPlan::contiguous(spec.topology.num_nodes(), shards);
        ShardedNetwork::with_plan(spec, models, plan)
    }

    /// Builds a network partitioned by an explicit [`ShardPlan`]
    /// (property tests exercise uneven plans).
    ///
    /// # Panics
    ///
    /// Panics if the plan's node count differs from the topology's.
    pub fn with_plan(spec: NetworkSpec, models: PowerModels, plan: ShardPlan) -> ShardedNetwork {
        assert_eq!(
            plan.num_nodes(),
            spec.topology.num_nodes(),
            "plan does not cover the topology"
        );
        let shards = plan.shards();
        let cells = (0..shards)
            .map(|i| ShardCell {
                net: Network::new_shard(spec.clone(), models.clone(), i, plan.bounds()),
                inbound_flits: (0..shards).map(|_| Vec::new()).collect(),
                inbound_credits: (0..shards).map(|_| Vec::new()).collect(),
                events: Vec::new(),
            })
            .collect();
        ShardedNetwork {
            cells,
            grid: Arc::new(MailGrid::new(shards)),
            plan,
            spec,
            next_packet: 0,
            obs: None,
            parallel: shards > 1 && std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
            workers: Vec::new(),
        }
    }

    /// The partitioning plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// The network specification.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Whether [`ShardedNetwork::step`] runs shards on worker threads.
    /// Either mode is bit-identical; threading only changes wall-clock
    /// time. Defaults to `true` when there is more than one shard and
    /// the host has more than one CPU.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// Forces threaded or sequential stepping (see
    /// [`ShardedNetwork::parallel`]).
    pub fn set_parallel(&mut self, on: bool) {
        self.parallel = on;
    }

    /// Selects the stepper for every shard engine (see
    /// [`EngineMode`]). Sparse and dense are bit-identical; the wake
    /// path for boundary traffic needs no extra plumbing because
    /// drained mailbox messages flow through each engine's ordinary
    /// arrival and credit sites.
    pub fn set_engine_mode(&mut self, mode: EngineMode) {
        for cell in &mut self.cells {
            cell.net.set_engine_mode(mode);
        }
    }

    /// The active stepper (identical across shards).
    pub fn engine_mode(&self) -> EngineMode {
        self.cells[0].net.engine_mode()
    }

    /// True when every shard engine is idle *and* the boundary
    /// mailboxes hold no flit or credit — the only remaining work, if
    /// any, sits on per-shard event wheels. Only meaningful at the
    /// cycle barrier (between [`ShardedNetwork::step`] calls).
    pub fn is_idle(&self) -> bool {
        self.cells.iter().all(|c| c.net.is_idle()) && self.grid.is_empty()
    }

    /// The earliest future cycle with a scheduled event on any
    /// shard's wheels, if any.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.cells
            .iter()
            .filter_map(|c| c.net.next_event_cycle())
            .min()
    }

    /// Jumps every shard's clock in lockstep over provably dead
    /// cycles (see [`Network::skip_idle_cycles`]); the mailbox-empty
    /// condition in [`ShardedNetwork::is_idle`] guarantees no
    /// boundary message is due in the gap. Returns the new cycle.
    pub fn skip_idle_cycles(&mut self, target: u64) -> u64 {
        let cycle = self.cycle();
        if target <= cycle || !self.is_idle() {
            return cycle;
        }
        let stop = self.next_event_cycle().map_or(target, |e| target.min(e));
        if stop > cycle {
            for cell in &mut self.cells {
                let reached = cell.net.skip_idle_cycles(stop);
                debug_assert_eq!(reached, stop, "shards must skip in lockstep");
            }
        }
        self.cycle()
    }

    /// Current simulation cycle (identical across shards).
    pub fn cycle(&self) -> u64 {
        self.cells[0].net.cycle()
    }

    /// Advances every shard one cycle and replays observability
    /// events. The return from this method is the inter-shard barrier:
    /// all boundary traffic produced this cycle sits in the mailboxes,
    /// due at `cycle + 1` (credits) or `cycle + 2` (flits).
    ///
    /// # Panics
    ///
    /// Re-raises a panic from any shard's engine, threaded or not;
    /// the network must then be dropped. A step after a worker's
    /// panic panics: that worker's shard is gone.
    pub fn step(&mut self) {
        assert_eq!(
            self.cells.len(),
            self.plan.shards(),
            "a shard worker panicked in an earlier step; the network must be dropped"
        );
        let cycle = self.cycle();
        if self.parallel && self.cells.len() > 1 {
            self.step_threaded(cycle);
        } else {
            for (me, cell) in self.cells.iter_mut().enumerate() {
                cell.step(me, &self.grid, cycle);
            }
        }
        self.replay_obs();
    }

    /// One cycle with shards `1..` on their workers and shard 0 on the
    /// calling thread. Cells come back in shard order.
    fn step_threaded(&mut self, cycle: u64) {
        if self.workers.is_empty() {
            self.workers = (1..self.cells.len())
                .map(|me| Worker::spawn(me, Arc::clone(&self.grid)))
                .collect();
        }
        for (worker, cell) in self.workers.iter().zip(self.cells.drain(1..)) {
            worker
                .jobs
                .send((cell, cycle))
                .expect("shard workers live as long as the network");
        }
        self.cells[0].step(0, &self.grid, cycle);
        for i in 0..self.workers.len() {
            match wait(&self.workers[i].done) {
                Some(cell) => self.cells.push(cell),
                // The worker dropped its sender while unwinding: raise
                // its panic here. `Drop` joins the other workers.
                None => match self.workers.remove(i).join() {
                    Err(payload) => std::panic::resume_unwind(payload),
                    Ok(()) => panic!("shard worker exited while holding its cell"),
                },
            }
        }
    }

    /// Replays each shard's recorded events into the master sink in
    /// canonical order: phase by phase ([`ObsEvent::phase`]), shards
    /// ascending within a phase — the order a single engine would have
    /// emitted them.
    fn replay_obs(&mut self) {
        let Some(master) = self.obs.as_deref_mut() else {
            return;
        };
        for cell in &mut self.cells {
            if let Some(rec) = cell.net.obs_mut() {
                let mut events = std::mem::take(&mut cell.events);
                rec.take_events(&mut events);
                cell.events = events;
            }
        }
        for phase in 0..3u8 {
            for cell in &self.cells {
                for e in &cell.events {
                    if e.phase() == phase {
                        master.apply(e);
                    }
                }
            }
        }
    }

    /// Queues a packet at `src`'s shard, allocating from the global
    /// packet-id sequence — ids match a single-engine run injecting in
    /// the same order.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is outside the topology.
    pub fn enqueue_packet(&mut self, src: NodeId, dst: NodeId, tagged: bool) -> PacketId {
        self.enqueue_packet_len(src, dst, self.spec.packet_len, tagged)
    }

    /// Queues a packet of explicit length (see
    /// [`Network::enqueue_packet_len`]).
    pub fn enqueue_packet_len(
        &mut self,
        src: NodeId,
        dst: NodeId,
        len: u32,
        tagged: bool,
    ) -> PacketId {
        let s = self.plan.shard_of(src.0);
        let cell = &mut self.cells[s];
        cell.net.set_next_packet(self.next_packet);
        let id = cell.net.enqueue_packet_len(src, dst, len, tagged);
        self.next_packet = cell.net.next_packet_id();
        // Injection-time events reach the master sink immediately, in
        // call order — the same order a single engine applies them.
        if let Some(master) = self.obs.as_deref_mut() {
            if let Some(rec) = cell.net.obs_mut() {
                let mut events = std::mem::take(&mut cell.events);
                rec.take_events(&mut events);
                for e in &events {
                    master.apply(e);
                }
                cell.events = events;
            }
        }
        id
    }

    /// Attaches the master observer; every shard engine gets a
    /// recorder sink feeding it.
    pub fn set_obs(&mut self, obs: ObsSink) {
        self.obs = Some(Box::new(obs));
        for cell in &mut self.cells {
            cell.net.set_obs(ObsSink::recorder());
        }
    }

    /// The attached master observer, if any.
    pub fn obs(&self) -> Option<&ObsSink> {
        self.obs.as_deref()
    }

    /// Mutable access to the master observer.
    pub fn obs_mut(&mut self) -> Option<&mut ObsSink> {
        self.obs.as_deref_mut()
    }

    /// Detaches and returns the master observer, dropping the shard
    /// recorders.
    pub fn take_obs(&mut self) -> Option<ObsSink> {
        self.replay_obs();
        for cell in &mut self.cells {
            cell.net.take_obs();
        }
        self.obs.take().map(|b| *b)
    }

    /// Installs a fault schedule on every shard (each consults it for
    /// its own sources).
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        for cell in &mut self.cells {
            cell.net.set_fault_schedule(schedule.clone());
        }
    }

    /// Merged performance statistics: counters summed, the latency
    /// sample re-interleaved into whole-network delivery order (cycle,
    /// then ascending shard — which is ascending destination node).
    pub fn stats_merged(&self) -> SimStats {
        if self.cells.len() == 1 {
            return self.cells[0].net.stats().clone();
        }
        let mut out = SimStats::new();
        for cell in &self.cells {
            let s = cell.net.stats();
            out.packets_injected += s.packets_injected;
            out.packets_delivered += s.packets_delivered;
            out.flits_delivered += s.flits_delivered;
            out.tagged_injected += s.tagged_injected;
            out.tagged_delivered += s.tagged_delivered;
            out.packets_dropped += s.packets_dropped;
            out.flits_dropped += s.flits_dropped;
            out.tagged_dropped += s.tagged_dropped;
            out.packets_detoured += s.packets_detoured;
        }
        let mut idx = vec![0usize; self.cells.len()];
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (s, cell) in self.cells.iter().enumerate() {
                let log = cell.net.delivery_log();
                debug_assert_eq!(log.len(), cell.net.stats().latencies().len());
                if idx[s] < log.len() {
                    let c = log[idx[s]];
                    // Strict < keeps the lowest shard on ties.
                    if best.is_none_or(|(bc, _)| c < bc) {
                        best = Some((c, s));
                    }
                }
            }
            let Some((_, s)) = best else { break };
            out.push_latency_sample(self.cells[s].net.stats().latencies()[idx[s]]);
            idx[s] += 1;
        }
        out
    }

    /// Tagged packets still in flight. A boundary packet is injected
    /// in its source shard but delivered in its destination shard, so
    /// per-shard `tagged_outstanding` can underflow; the counters must
    /// be summed network-wide *before* subtracting.
    pub fn tagged_outstanding(&self) -> u64 {
        let (injected, delivered, dropped) =
            self.cells.iter().fold((0u64, 0u64, 0u64), |acc, c| {
                let s = c.net.stats();
                (
                    acc.0 + s.tagged_injected,
                    acc.1 + s.tagged_delivered,
                    acc.2 + s.tagged_dropped,
                )
            });
        injected - delivered - dropped
    }

    /// Packets delivered, summed over shards.
    pub fn packets_delivered(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.stats().packets_delivered)
            .sum()
    }

    /// Packets dropped at injection, summed over shards.
    pub fn packets_dropped(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.stats().packets_dropped)
            .sum()
    }

    /// Flits anywhere in the system: shard engines plus boundary
    /// mailboxes.
    pub fn flits_in_flight(&self) -> usize {
        self.cells
            .iter()
            .map(|c| c.net.flits_in_flight())
            .sum::<usize>()
            + self.grid.in_transit() as usize
    }

    /// `true` when no flits remain in any shard or mailbox.
    pub fn is_drained(&self) -> bool {
        self.flits_in_flight() == 0
    }

    /// Flits waiting in source queues, summed over shards.
    pub fn source_backlog(&self) -> usize {
        self.cells.iter().map(|c| c.net.source_backlog()).sum()
    }

    /// The cycle at which a flit last moved anywhere.
    pub fn last_progress_cycle(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.last_progress_cycle())
            .max()
            .expect("at least one shard")
    }

    fn last_delivery_cycle(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.last_delivery_cycle())
            .max()
            .expect("at least one shard")
    }

    fn last_credit_cycle(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.net.last_credit_cycle())
            .max()
            .expect("at least one shard")
    }

    /// Whole-network watchdog check, mirroring
    /// [`Network::check_stall`] over the merged progress clocks.
    pub fn check_stall(&self, window: u64) -> Option<StallKind> {
        if window == 0 || self.is_drained() {
            return None;
        }
        let cycle = self.cycle();
        if cycle - self.last_progress_cycle() >= window {
            return Some(StallKind::Deadlock);
        }
        let injected: u64 = self
            .cells
            .iter()
            .map(|c| c.net.stats().packets_injected)
            .sum();
        let undelivered = injected > self.packets_delivered() + self.packets_dropped();
        if undelivered && cycle - self.last_delivery_cycle() >= window {
            return Some(StallKind::Livelock);
        }
        None
    }

    /// Whole-network stall diagnostics: merged progress clocks plus
    /// every shard's occupied VCs (ascending shard = ascending node).
    pub fn stall_diagnostics(&self, kind: StallKind, window: u64) -> StallDiagnostics {
        let cycle = self.cycle();
        let mut stalled_vcs = Vec::new();
        for cell in &self.cells {
            stalled_vcs.extend(cell.net.stall_diagnostics(kind, window).stalled_vcs);
        }
        let source_backlog = self.source_backlog();
        StallDiagnostics {
            kind,
            cycle,
            window,
            cycles_since_flit_movement: cycle - self.last_progress_cycle(),
            cycles_since_delivery: cycle - self.last_delivery_cycle(),
            cycles_since_credit: cycle - self.last_credit_cycle(),
            flits_in_network: self.flits_in_flight() - source_backlog,
            source_backlog,
            packets_delivered: self.packets_delivered(),
            packets_dropped: self.packets_dropped(),
            stalled_vcs,
        }
    }

    /// Runs every stateless invariant check: whole-network flit
    /// conservation (boundary flits in transit count as in flight),
    /// then each shard's local checks in shard order.
    pub fn audit(&self) -> Vec<AuditViolation> {
        let mut violations = Vec::new();
        let (mut enqueued, mut ejected, mut dropped) = (0u64, 0u64, 0u64);
        for cell in &self.cells {
            let (e, j, d) = cell.net.audit_counters();
            enqueued += e;
            ejected += j;
            dropped += d;
        }
        let in_flight = self.flits_in_flight() as u64;
        if enqueued != ejected + dropped + in_flight {
            violations.push(AuditViolation::FlitConservation {
                enqueued,
                ejected,
                dropped,
                in_flight,
            });
        }
        for cell in &self.cells {
            violations.extend(cell.net.audit_local());
        }
        violations
    }

    /// Accumulated energy at `node` for `component` — exact, read from
    /// the owning shard's ledger (only the owner ever charges a node).
    pub fn node_energy(&self, node: usize, component: Component) -> Joules {
        let s = self.plan.shard_of(node);
        self.cells[s].net.ledger().energy(node, component)
    }

    /// Total accumulated energy, summed shard by shard in shard order
    /// (deterministic; may differ from a single ledger's node-by-node
    /// sum by float rounding only).
    pub fn total_energy_j(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| c.net.ledger().total_energy().0)
            .sum()
    }

    /// Flits carried by the channel leaving `node` through `out_port`
    /// since the last measurement reset (owner-exact).
    pub fn link_flits(&self, node: usize, out_port: usize) -> u64 {
        let s = self.plan.shard_of(node);
        self.cells[s].net.link_flits(node, out_port)
    }

    /// Every node's probe-visible state in global node order.
    pub fn node_states(&self) -> Vec<NodeState> {
        let mut out = Vec::with_capacity(self.plan.num_nodes());
        for cell in &self.cells {
            out.extend(cell.net.node_states());
        }
        out
    }

    /// Clears energy and performance counters on every shard at the
    /// warm-up boundary (see [`Network::reset_measurement`]).
    pub fn reset_measurement(&mut self) {
        for cell in &mut self.cells {
            cell.net.reset_measurement();
        }
    }

    /// Serialises the complete sharded state: topology shape (kind,
    /// dimensions, radices), plan, packet sequence, every shard
    /// engine's payload, and the boundary mailboxes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u32(SNAPSHOT_VERSION);
        let topo = &self.spec.topology;
        w.u8(topology_kind_tag(topo.kind()));
        w.u8(topo.dims() as u8);
        for dim in 0..topo.dims() {
            w.u32(topo.radix(dim));
        }
        w.usize(self.plan.shards());
        for &b in self.plan.bounds() {
            w.usize(b);
        }
        w.u64(self.next_packet);
        for cell in &self.cells {
            let payload = cell.net.snapshot();
            w.usize(payload.len());
            w.bytes(&payload);
        }
        self.grid.encode(&mut w);
        w.into_vec()
    }

    /// Restores state captured by [`ShardedNetwork::snapshot`] into
    /// this network, which must have been freshly built from the same
    /// spec, models and plan. A snapshot taken on a different topology
    /// shape or at a different shard count is a typed
    /// [`SnapshotError::Mismatch`] before any state is touched, never a
    /// panic or a silently wrong resume.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::WrongVersion(version));
        }
        let topo = &self.spec.topology;
        if r.u8()? != topology_kind_tag(topo.kind()) {
            return Err(SnapshotError::Mismatch("topology kind"));
        }
        if r.u8()? != topo.dims() as u8 {
            return Err(SnapshotError::Mismatch("topology dimensions"));
        }
        for dim in 0..topo.dims() {
            if r.u32()? != topo.radix(dim) {
                return Err(SnapshotError::Mismatch("topology radix"));
            }
        }
        if r.usize()? != self.plan.shards() {
            return Err(SnapshotError::Mismatch("shard count"));
        }
        for &b in self.plan.bounds() {
            if r.usize()? != b {
                return Err(SnapshotError::Mismatch("shard bounds"));
            }
        }
        let next_packet = r.u64()?;
        for cell in &mut self.cells {
            let len = r.count(1)?;
            let payload = r.take_bytes(len)?;
            cell.net.restore(payload)?;
        }
        self.grid.restore(&mut r, &self.spec.topology)?;
        let cycle = self.cells[0].net.cycle();
        if self.cells.iter().any(|c| c.net.cycle() != cycle) {
            return Err(SnapshotError::Invalid("shard cycles out of step"));
        }
        self.next_packet = next_packet;
        Ok(())
    }
}

impl Drop for ShardedNetwork {
    fn drop(&mut self) {
        for worker in self.workers.drain(..) {
            // A worker's panic was already raised by `step`.
            let _ = worker.join();
        }
    }
}

/// The snapshot tag of a topology kind.
fn topology_kind_tag(kind: TopologyKind) -> u8 {
    match kind {
        TopologyKind::Torus => 0,
        TopologyKind::Mesh => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_net::{DimensionOrder, Topology};
    use orion_power::{
        ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind,
        CrossbarParams, CrossbarPower, LinkPower,
    };
    use orion_sim::{RouterKind, VcRouterSpec};
    use orion_tech::{Microns, ProcessNode, Technology};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn network(shards: usize) -> ShardedNetwork {
        let tech = Technology::new(ProcessNode::Nm100);
        let crossbar =
            CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 64), tech)
                .expect("valid crossbar");
        let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), tech)
            .expect("valid arbiter")
            .with_control_energy(crossbar.control_energy());
        let models = PowerModels {
            flit_bits: 64,
            buffer: BufferPower::new(&BufferParams::new(16, 64), tech).expect("valid buffer"),
            crossbar,
            arbiter,
            link: LinkPower::on_chip(Microns::from_mm(3.0), 64, tech),
            central: None,
        };
        let spec = NetworkSpec {
            topology: Topology::torus(&[4, 4]).expect("valid torus"),
            router: RouterKind::Vc(VcRouterSpec::virtual_channel(5, 2, 8, 64)),
            packet_len: 5,
            dim_order: DimensionOrder::YFirst,
        };
        let mut net = ShardedNetwork::new(spec, models, shards);
        net.set_parallel(true);
        net
    }

    #[test]
    fn worker_panic_reaches_the_caller_and_a_fresh_network_still_works() {
        let mut net = network(2);
        net.enqueue_packet(NodeId(0), NodeId(15), true);
        net.step();
        assert_eq!(
            net.workers.len(),
            1,
            "the first threaded step starts the worker"
        );
        // Shard 1 drains this slot this cycle, on its worker thread;
        // shard 0, on the caller's thread, never touches it.
        net.grid.poison_flit_slot(0, 1, net.cycle());
        let payload = catch_unwind(AssertUnwindSafe(|| net.step()))
            .expect_err("the worker's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            message.contains("poisoned mailbox"),
            "the worker's own panic is re-raised, got {message:?}"
        );
        assert!(
            catch_unwind(AssertUnwindSafe(|| net.step())).is_err(),
            "a network that lost a cell refuses to step"
        );
        drop(net);

        let mut fresh = network(2);
        for node in 0..16 {
            fresh.enqueue_packet(NodeId(node), NodeId(15 - node), true);
        }
        for _ in 0..2_000 {
            if fresh.is_drained() {
                break;
            }
            fresh.step();
        }
        assert!(fresh.is_drained());
        assert_eq!(fresh.packets_delivered(), 16);
        assert!(fresh.audit().is_empty());
    }
}

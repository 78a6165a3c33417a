//! The replayer: steps a cell's configuration at the cell's rate
//! through `TrafficPattern`, `Network` and `ShardedNetwork` directly,
//! with a span around each call, to time the layers below `core`.

use std::hint::black_box;

use orion_exp::Cell;
use orion_net::NodeId;
use orion_shard::ShardedNetwork;
use orion_sim::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// The engine a replay steps.
enum Engine {
    Mono(Box<Network>),
    Sharded(Box<ShardedNetwork>),
}

/// Work one replay did, for normalising span time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayWork {
    /// Router-cycles stepped (routers × cycles).
    pub router_cycles: u64,
    /// Flits carried over links.
    pub flit_hops: u64,
    /// Packets enqueued.
    pub packets: u64,
    /// Sum over cycles of the flits in flight after the step.
    pub flits_in_flight_sum: u64,
    /// Cycles stepped.
    pub cycles: u64,
}

impl ReplayWork {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: ReplayWork) {
        self.router_cycles += other.router_cycles;
        self.flit_hops += other.flit_hops;
        self.packets += other.packets;
        self.flits_in_flight_sum += other.flits_in_flight_sum;
        self.cycles += other.cycles;
    }
}

/// Steps `cell` for `cycles` cycles on `shards` shards (1 = the
/// monolithic `Network`), snapshotting the monolithic engine every
/// `snapshot_every` cycles (0 = never).
pub fn replay(
    cell: &Cell,
    cycles: u64,
    shards: usize,
    snapshot_every: u64,
    op: u64,
    tr: &mut Tracer,
) -> Result<ReplayWork, String> {
    let root = tr.begin("bench.replay", None, op);
    let config = cell.config();
    let s = tr.begin("power.build", Some(root), op);
    let built = config.build();
    tr.end(s);
    let (spec, models) = built.map_err(|e| e.to_string())?;
    let mut pattern = cell
        .traffic
        .pattern(&config.topology, cell.rate)
        .map_err(|e| e.to_string())?;
    let mut engine = if shards > 1 {
        Engine::Sharded(Box::new(ShardedNetwork::new(spec, models, shards)))
    } else {
        Engine::Mono(Box::new(Network::new(spec, models)))
    };
    let (traffic, enqueue, step) = match engine {
        Engine::Mono(_) => ("net.traffic", "sim.enqueue", "sim.step"),
        Engine::Sharded(_) => ("net.traffic", "shard.enqueue", "shard.step"),
    };
    let nodes: Vec<NodeId> = config.topology.nodes().collect();
    let ports = config.topology.ports_per_router();
    let mut rng = StdRng::seed_from_u64(cell.derived_seed());
    let mut work = ReplayWork::default();

    for cycle in 1..=cycles {
        let s = tr.begin(traffic, Some(root), op);
        for &node in &nodes {
            if pattern.should_inject(node, &mut rng) {
                if let Some(dst) = pattern.destination(node, &mut rng) {
                    let e = tr.begin(enqueue, Some(s), op);
                    match &mut engine {
                        Engine::Mono(n) => black_box(n.enqueue_packet(node, dst, false)),
                        Engine::Sharded(n) => black_box(n.enqueue_packet(node, dst, false)),
                    };
                    tr.end(e);
                    work.packets += 1;
                }
            }
        }
        tr.end(s);

        let s = tr.begin(step, Some(root), op);
        match &mut engine {
            Engine::Mono(n) => n.step(),
            Engine::Sharded(n) => n.step(),
        }
        tr.end(s);

        work.flits_in_flight_sum += match &engine {
            Engine::Mono(n) => n.flits_in_flight(),
            Engine::Sharded(n) => n.flits_in_flight(),
        } as u64;
        if let Engine::Mono(n) = &engine {
            if snapshot_every > 0 && cycle % snapshot_every == 0 {
                let s = tr.begin("sim.snapshot", Some(root), op);
                let image = black_box(n.snapshot());
                tr.end(s);
                tr.sample("sim.snapshot_bytes", image.len() as f64);
            }
        }
    }
    for node in 0..nodes.len() {
        for port in 0..ports {
            work.flit_hops += match &engine {
                Engine::Mono(n) => n.link_flits(node, port),
                Engine::Sharded(n) => n.link_flits(node, port),
            };
        }
    }
    work.cycles = cycles;
    work.router_cycles = cycles * nodes.len() as u64;
    tr.end(root);
    Ok(work)
}

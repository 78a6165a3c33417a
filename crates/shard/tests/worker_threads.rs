//! Shard workers are joined when their network drops: creating,
//! stepping and dropping many threaded networks leaves the process's
//! thread count where it started. This is the only test in its binary,
//! so no other test's threads come and go while it counts.

use orion_net::{DimensionOrder, NodeId, Topology};
use orion_power::{
    ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind,
    CrossbarParams, CrossbarPower, LinkPower,
};
use orion_shard::ShardedNetwork;
use orion_sim::{NetworkSpec, PowerModels, RouterKind, VcRouterSpec};
use orion_tech::{Microns, ProcessNode, Technology};
use std::time::{Duration, Instant};

fn network() -> ShardedNetwork {
    let tech = Technology::new(ProcessNode::Nm100);
    let crossbar = CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 64), tech)
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
    ShardedNetwork::new(spec, models, 4)
}

/// The `Threads:` line of `/proc/self/status`, where the OS has one.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
}

#[test]
fn dropping_threaded_networks_joins_their_workers() {
    let Some(before) = threads() else {
        eprintln!("no /proc/self/status on this OS; nothing to count");
        return;
    };
    for i in 0..100 {
        let mut net = network();
        net.set_parallel(true);
        net.enqueue_packet(NodeId(i % 16), NodeId((i + 5) % 16), true);
        for _ in 0..5 {
            net.step();
        }
    }
    // A joined thread can linger in the count for a moment after
    // `join` returns; a leak never leaves it.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = threads().expect("readable above");
    while after != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        after = threads().expect("readable above");
    }
    assert_eq!(
        after, before,
        "shard worker threads outlived their networks"
    );
}

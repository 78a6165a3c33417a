//! Pins the claim in docs/PERFORMANCE.md that, after warm-up, a
//! simulated cycle performs no heap allocation: a counting global
//! allocator watches a loaded 4×4 network step until it drains.
//!
//! The count is per thread, so the test harness's own threads cannot
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use orion_net::{DimensionOrder, NodeId, Topology};
use orion_power::{
    ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind,
    CrossbarParams, CrossbarPower, LinkPower,
};
use orion_sim::{Network, NetworkSpec, PowerModels, RouterKind, VcRouterSpec};
use orion_tech::{Microns, ProcessNode, Technology};

/// The system allocator, counting allocations made by threads that
/// switched counting on. The default `alloc_zeroed` and `realloc` go
/// through `alloc`, so they are counted too.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

fn network() -> Network {
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
    Network::new(spec, models)
}

/// Every node sends one packet to every other node.
fn load(net: &mut Network) {
    for src in 0..16 {
        for dst in 0..16 {
            if src != dst {
                net.enqueue_packet(NodeId(src), NodeId(dst), false);
            }
        }
    }
}

fn drain(net: &mut Network) {
    let mut guard = 0;
    while !net.is_drained() {
        net.step();
        guard += 1;
        assert!(guard < 100_000, "drain did not converge");
    }
}

#[test]
fn draining_a_loaded_network_allocates_nothing() {
    let mut net = network();
    // Warm-up: draining a double load grows the flit arena, the event
    // wheel slots and the sink table past what one load needs.
    load(&mut net);
    load(&mut net);
    drain(&mut net);
    let delivered = net.stats().packets_delivered;
    assert_eq!(delivered, 2 * 16 * 15);

    load(&mut net);
    let allocations = allocations_in(|| drain(&mut net));
    assert_eq!(net.stats().packets_delivered, delivered + 16 * 15);
    assert_eq!(allocations, 0, "stepping a warmed-up network allocated");
}

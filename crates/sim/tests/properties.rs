//! Property tests for the allocation-free core's two load-bearing data
//! structures (see docs/PERFORMANCE.md):
//!
//! * the ring-buffer [`FlitFifo`] is observationally equivalent to the
//!   `VecDeque`-backed [`VecFlitFifo`] it replaced (kept here as the
//!   differential oracle), under arbitrary push / push_stored / pop /
//!   peek sequences — contents, order, bypass flags, and exact SRAM
//!   write activities all match;
//! * the generational [`FlitArena`] conserves allocations under random
//!   alloc/take schedules — no leak, and every double-free or
//!   use-after-free trips the generation check — cross-checked against
//!   the network-level invariant auditor on live traffic.

use std::collections::VecDeque;
use std::sync::Arc;

use orion_net::{dor_route, DimensionOrder, NodeId, Topology};
use orion_power::{
    ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CrossbarKind,
    CrossbarParams, CrossbarPower, LinkPower, WriteActivity,
};
use orion_sim::flit::make_packet;
use orion_sim::{
    scaled_hamming, Flit, FlitArena, FlitFifo, InvariantAuditor, Network, NetworkSpec, PacketId,
    PowerModels, RouterKind, VcRouterSpec,
};
use orion_tech::{Microns, ProcessNode, Technology};
use proptest::prelude::*;

/// The original `VecDeque`-backed flit FIFO (v0.3.0 and earlier).
///
/// Behaviourally identical to [`FlitFifo`] — the tests below drive
/// both with arbitrary push/pop/peek sequences and assert every
/// observable (contents, order, activities, bypass flags) matches. Not
/// used by the simulator.
#[derive(Debug, Clone)]
pub struct VecFlitFifo<T> {
    queue: VecDeque<T>,
    stored: VecDeque<bool>,
    capacity: usize,
    width: u32,
    slots: Vec<u64>,
    wr_ptr: usize,
    last_bus: u64,
}

impl<T> VecFlitFifo<T> {
    /// Creates an empty FIFO of `capacity` flits of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `width` is zero.
    pub fn new(capacity: usize, width: u32) -> VecFlitFifo<T> {
        assert!(capacity > 0, "fifo capacity must be positive");
        assert!(width > 0, "flit width must be positive");
        VecFlitFifo {
            queue: VecDeque::with_capacity(capacity),
            stored: VecDeque::with_capacity(capacity),
            capacity,
            width,
            slots: vec![0; capacity],
            wr_ptr: 0,
            last_bus: 0,
        }
    }

    /// Number of flits currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no flits are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// The item at the head of the queue, if any.
    pub fn head(&self) -> Option<&T> {
        self.queue.front()
    }

    /// See [`FlitFifo::push`](FlitFifo::push).
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full.
    pub fn push(&mut self, item: T, payload: u64) -> Option<WriteActivity> {
        assert!(
            self.queue.len() < self.capacity,
            "fifo overflow: credit flow control violated"
        );
        if self.queue.is_empty() {
            self.queue.push_back(item);
            self.stored.push_back(false);
            return None;
        }
        let new = payload;
        let old_in_slot = self.slots[self.wr_ptr];
        let activity = WriteActivity {
            switching_bitlines: scaled_hamming(new, self.last_bus, self.width),
            switching_cells: scaled_hamming(new, old_in_slot, self.width),
        };
        self.slots[self.wr_ptr] = new;
        self.wr_ptr = (self.wr_ptr + 1) % self.capacity;
        self.last_bus = new;
        self.queue.push_back(item);
        self.stored.push_back(true);
        activity.into()
    }

    /// See [`FlitFifo::push_stored`](FlitFifo::push_stored).
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full.
    pub fn push_stored(&mut self, item: T, payload: u64) -> WriteActivity {
        assert!(
            self.queue.len() < self.capacity,
            "fifo overflow: credit flow control violated"
        );
        let new = payload;
        let old_in_slot = self.slots[self.wr_ptr];
        let activity = WriteActivity {
            switching_bitlines: scaled_hamming(new, self.last_bus, self.width),
            switching_cells: scaled_hamming(new, old_in_slot, self.width),
        };
        self.slots[self.wr_ptr] = new;
        self.wr_ptr = (self.wr_ptr + 1) % self.capacity;
        self.last_bus = new;
        self.queue.push_back(item);
        self.stored.push_back(true);
        activity
    }

    /// See [`FlitFifo::pop`](FlitFifo::pop).
    pub fn pop(&mut self) -> Option<(T, bool)> {
        let item = self.queue.pop_front()?;
        let stored = self.stored.pop_front().expect("stored flags in sync");
        Some((item, stored))
    }

    /// Iterates over the buffered items from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }
}

/// One FIFO operation drawn by the strategies below: the discriminant
/// picks the operation, the payload feeds pushes.
fn apply_op(
    op: u8,
    payload: u64,
    ring: &mut FlitFifo<u64>,
    reference: &mut VecFlitFifo<u64>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    match op % 4 {
        // push (with empty-bypass)
        0 => {
            if ring.free() > 0 {
                let a = ring.push(payload, payload);
                let b = reference.push(payload, payload);
                prop_assert_eq!(a, b);
            }
        }
        // push_stored (always charges)
        1 => {
            if ring.free() > 0 {
                let a = ring.push_stored(payload, payload);
                let b = reference.push_stored(payload, payload);
                prop_assert_eq!(a, b);
            }
        }
        // pop
        2 => {
            prop_assert_eq!(ring.pop(), reference.pop());
        }
        // peek
        _ => {
            prop_assert_eq!(ring.head(), reference.head());
        }
    }
    Ok(())
}

/// A packet of `n` flits from node 0 to node 5 of a 4×4 torus.
fn flits(n: u32) -> Vec<Flit> {
    let t = Topology::torus(&[4, 4]).unwrap();
    let r = Arc::new(dor_route(&t, NodeId(0), NodeId(5), DimensionOrder::YFirst));
    make_packet(PacketId(9), NodeId(0), NodeId(5), r, n, 0, false)
}

#[test]
fn ring_wraps_many_times_without_reordering() {
    // Push/pop far past the capacity so head and write pointer wrap
    // repeatedly; order and mirror state must track throughout.
    let mut ring = FlitFifo::new(3, 64);
    let mut reference = VecFlitFifo::new(3, 64);
    let fs = flits(8);
    let mut next = 0usize;
    for round in 0..50 {
        if round % 3 != 2 && ring.free() > 0 {
            let f = fs[next % fs.len()].clone();
            next += 1;
            let p = f.payload;
            let a = ring.push(f.clone(), p);
            let b = reference.push(f, p);
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.switching_bitlines, b.switching_bitlines);
                assert_eq!(a.switching_cells, b.switching_cells);
            }
        } else {
            let a = ring.pop();
            let b = reference.pop();
            match (a, b) {
                (Some((fa, sa)), Some((fb, sb))) => {
                    assert_eq!(fa.payload, fb.payload);
                    assert_eq!(fa.seq, fb.seq);
                    assert_eq!(sa, sb);
                }
                (None, None) => {}
                other => panic!("ring/reference diverged: {other:?}"),
            }
        }
        assert_eq!(ring.len(), reference.len());
        assert_eq!(
            ring.head().map(|f| f.payload),
            reference.head().map(|f| f.payload)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ring and reference FIFO agree on every observable after every
    /// operation of an arbitrary sequence.
    #[test]
    fn ring_fifo_matches_vec_reference(
        capacity in 1usize..9,
        ops in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..64),
    ) {
        let mut ring: FlitFifo<u64> = FlitFifo::new(capacity, 64);
        let mut reference: VecFlitFifo<u64> = VecFlitFifo::new(capacity, 64);
        for (op, payload) in ops {
            apply_op(op, payload, &mut ring, &mut reference)?;
            prop_assert_eq!(ring.len(), reference.len());
            prop_assert_eq!(ring.free(), reference.free());
            prop_assert_eq!(ring.is_empty(), reference.is_empty());
            let a: Vec<u64> = ring.iter().copied().collect();
            let b: Vec<u64> = reference.iter().copied().collect();
            prop_assert_eq!(a, b);
        }
        // Drain both: the tails must agree too.
        while !ring.is_empty() {
            prop_assert_eq!(ring.pop(), reference.pop());
        }
        prop_assert!(reference.is_empty());
    }

    /// The arena conserves flits under random alloc/take schedules:
    /// `live()` always equals outstanding handles, every take returns
    /// the exact flit stored, and full drains leave the arena empty
    /// while the slab stops growing at its high-water mark.
    #[test]
    fn arena_conserves_allocations(
        schedule in proptest::collection::vec((any::<bool>(), any::<u8>()), 0..128),
    ) {
        let topo = Topology::torus(&[4, 4]).expect("valid");
        let route = std::sync::Arc::new(orion_net::dor_route(
            &topo,
            NodeId(0),
            NodeId(5),
            DimensionOrder::YFirst,
        ));
        let mut arena = FlitArena::new();
        let mut outstanding = Vec::new();
        let mut next_id = 0u64;
        let mut high_water = 0usize;
        for (is_alloc, pick) in schedule {
            if is_alloc {
                let f = orion_sim::flit::make_packet(
                    orion_sim::PacketId(next_id),
                    NodeId(0),
                    NodeId(5),
                    route.clone(),
                    1,
                    0,
                    false,
                )
                .remove(0);
                let h = arena.alloc(f);
                outstanding.push((h, next_id));
                next_id += 1;
            } else if !outstanding.is_empty() {
                let (h, id) = outstanding.remove(pick as usize % outstanding.len());
                let f = arena.take(h);
                prop_assert_eq!(f.packet.0, id);
            }
            prop_assert_eq!(arena.live(), outstanding.len());
            high_water = high_water.max(outstanding.len());
            prop_assert!(arena.capacity() >= outstanding.len());
        }
        for (h, id) in outstanding.drain(..) {
            prop_assert_eq!(arena.take(h).packet.0, id);
        }
        prop_assert!(arena.is_empty());
        prop_assert!(
            arena.capacity() <= high_water.max(1),
            "slab grew past the high-water mark"
        );
    }

    /// Network-level cross-check: a live network under random traffic
    /// passes every invariant audit (including arena accounting: live
    /// slots == flits in flight) at every step.
    #[test]
    fn network_arena_accounting_holds_under_traffic(
        seed in any::<u64>(),
        rate_millis in 10u64..180,
        cycles in 50u64..250,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let topo = Topology::torus(&[4, 4]).expect("valid");
        let mut net = Network::new(
            NetworkSpec {
                topology: topo.clone(),
                router: RouterKind::Vc(VcRouterSpec::virtual_channel(5, 2, 4, 64)),
                packet_len: 5,
                dim_order: DimensionOrder::YFirst,
            },
            models(),
        );
        let mut auditor = InvariantAuditor::new();
        let mut pattern =
            TrafficPattern::uniform(&topo, rate_millis as f64 / 1000.0).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..cycles {
            for node in topo.nodes() {
                if pattern.should_inject(node, &mut rng) {
                    let dst = pattern.destination(node, &mut rng).expect("uniform");
                    net.enqueue_packet(node, dst, false);
                }
            }
            net.step();
            let violations = auditor.check(&net);
            prop_assert!(
                violations.is_empty(),
                "audit violations at cycle {}: {:?}",
                net.cycle(),
                violations
            );
        }
    }
}

use orion_net::TrafficPattern;

fn models() -> PowerModels {
    let tech = Technology::new(ProcessNode::Nm100);
    let crossbar = CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 64), tech)
        .expect("valid");
    let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), tech)
        .expect("valid")
        .with_control_energy(crossbar.control_energy());
    PowerModels {
        flit_bits: 64,
        buffer: BufferPower::new(&BufferParams::new(8, 64), tech).expect("valid"),
        crossbar,
        arbiter,
        link: LinkPower::on_chip(Microns::from_mm(3.0), 64, tech),
        central: None,
    }
}

/// Outside the proptest block: double-free and use-after-free are not
/// merely *detected* statistically — any stale handle use panics, which
/// the generation check guarantees deterministically.
#[test]
fn arena_cannot_double_free_without_panic() {
    let topo = Topology::torus(&[4, 4]).expect("valid");
    let route = std::sync::Arc::new(orion_net::dor_route(
        &topo,
        NodeId(0),
        NodeId(5),
        DimensionOrder::YFirst,
    ));
    let f = orion_sim::flit::make_packet(
        orion_sim::PacketId(1),
        NodeId(0),
        NodeId(5),
        route,
        1,
        0,
        false,
    )
    .remove(0);
    let mut arena = FlitArena::new();
    let h = arena.alloc(f.clone());
    arena.take(h);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = arena.take(h);
    }));
    assert!(result.is_err(), "double free must panic");
    // The slot is reusable after the failed take.
    let mut arena = FlitArena::new();
    let h1 = arena.alloc(f.clone());
    arena.take(h1);
    let h2 = arena.alloc(f);
    assert_eq!(arena.capacity(), 1);
    let _ = arena.take(h2);
}

//! Proof that the node firmware's packet hot path performs **zero heap
//! allocations**: a counting global allocator wraps the system allocator
//! and the test asserts the counter does not move across full firmware
//! packet walks. The AP side's served packet is held to the same bar: the
//! symbol-level uplink core on a warm
//! [`SymbolScratch`](milback_core::SymbolScratch) draws, decides and
//! measures a packet without touching the heap.
//!
//! This is an integration test (its own crate) so the counting allocator
//! — which needs `unsafe impl GlobalAlloc` — stays out of the
//! `#![forbid(unsafe_code)]` library crates. Together with the
//! `--no-default-features` (`no_std`) build of `milback-node` in CI, it
//! pins the "allocation-free node core" property the batching PR
//! established: an MCU port of `firmware`/`mode`/`power` needs no heap at
//! all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use milback_core::{LinkSimulator, Scene, SymbolScratch, SystemConfig};
use milback_node::firmware::{Direction, Event, Firmware, State};
use milback_node::power::NodePowerModel;
use milback_node::{PortMode, ToggleSchedule};
use mmwave_sigproc::random::GaussianSource;

/// System allocator with a per-thread allocation counter. Deallocations
/// and reallocations are counted too — the hot path must not touch the
/// heap in any way. The counter is per thread because libtest runs this
/// file's tests on parallel threads: a process-global count would charge
/// one test's allocations to another test's measuring window.
struct CountingAlloc;

thread_local! {
    // `const`-initialized and drop-free, so touching it never allocates
    // and never fails, even during thread teardown.
    static ALLOC_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_op() {
    let _ = ALLOC_OPS.try_with(|ops| ops.set(ops.get() + 1));
}

// SAFETY: delegates every operation verbatim to `System`; the counter is a
// thread-local integer with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_op();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_op();
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_op();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` on the calling thread and returns how many heap operations it
/// performed there.
fn alloc_ops_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_OPS.with(Cell::get);
    let out = f();
    let after = ALLOC_OPS.with(Cell::get);
    (after - before, out)
}

/// Drives one full packet through the firmware state machine with dwell
/// ticks — the MCU main-loop body.
fn walk_packet(fw: &mut Firmware, direction: Direction) {
    let bursts = match direction {
        Direction::Uplink => 3,
        Direction::Downlink => 2,
    };
    for _ in 0..bursts {
        fw.step(Event::BurstStart, 45e-6).unwrap();
    }
    fw.step(Event::Field1GapTimeout, 20e-6).unwrap();
    fw.step(Event::BurstStart, 500e-6).unwrap(); // Field 2 begins
    fw.step(Event::Field2Complete, 2e-3).unwrap();
    fw.step(Event::PayloadComplete, 1e-6).unwrap();
    assert_eq!(fw.state(), State::PacketDone);
    fw.step(Event::Reset, 1e-6).unwrap();
    assert_eq!(fw.state(), State::Idle);
}

#[test]
fn firmware_packet_walk_is_allocation_free() {
    // Construct outside the measured window (construction may allocate;
    // the steady-state loop must not).
    let mut fw = Firmware::new(NodePowerModel::milback_default());
    // Warm up once so any lazy one-time setup is out of the way.
    walk_packet(&mut fw, Direction::Downlink);

    let (ops, ()) = alloc_ops_during(|| {
        for k in 0..100 {
            let dir = if k % 2 == 0 {
                Direction::Downlink
            } else {
                Direction::Uplink
            };
            walk_packet(&mut fw, dir);
        }
    });
    assert_eq!(ops, 0, "firmware step path touched the heap {ops} times");
    // The ledger really ran: energy accumulated across the packets.
    assert!(fw.energy_j() > 0.0);
    assert_eq!(fw.packet_counts().0 + fw.packet_counts().1, 101);
}

#[test]
fn rejected_transitions_are_allocation_free_too() {
    let mut fw = Firmware::new(NodePowerModel::milback_default());
    let (ops, err) = alloc_ops_during(|| fw.step(Event::PayloadComplete, 1e-6).unwrap_err());
    assert_eq!(ops, 0, "the error path must not allocate (it is `Copy`)");
    assert_eq!(err.event, Event::PayloadComplete);
}

#[test]
fn switch_count_is_allocation_free_and_presizes_exactly() {
    let t = ToggleSchedule {
        rate_hz: 10e3,
        initial: PortMode::Reflective,
    };
    let (ops, count) = alloc_ops_during(|| t.switch_count(0.0, 5e-3));
    assert_eq!(ops, 0, "the count-only schedule variant must not allocate");
    // And the enumeration allocates exactly once, at the right capacity.
    let (ops, times) = alloc_ops_during(|| t.switch_times_s(0.0, 5e-3));
    assert_eq!(times.len(), count);
    assert_eq!(times.capacity(), count);
    assert!(
        ops <= 1,
        "pre-sized enumeration should allocate at most once, did {ops} ops"
    );
}

#[test]
fn served_packet_symbol_core_is_allocation_free() {
    let sim = LinkSimulator::new(
        SystemConfig::milback_default(),
        Scene::single_node(4.0, 12f64.to_radians()),
    )
    .unwrap();
    let budget = sim.uplink_budget().unwrap();
    let mut rng = GaussianSource::new(7);
    // A campaign's 16-byte packet (sorting-network threshold) and a long
    // one (the threshold sorts its keys in the scratch).
    for payload in [rng.bytes(16), rng.bytes(300)] {
        let mut scratch = SymbolScratch::new();
        // The first packet sizes the buffers; steady state starts after.
        LinkSimulator::uplink_symbols(&budget, &payload, &mut rng, &mut scratch).unwrap();
        let (ops, delivered) = alloc_ops_during(|| {
            (0..50)
                .filter(|_| {
                    let out =
                        LinkSimulator::uplink_symbols(&budget, &payload, &mut rng, &mut scratch)
                            .unwrap();
                    out.ber == 0.0 && scratch.decoded() == &payload[..]
                })
                .count()
        });
        assert_eq!(
            ops,
            0,
            "a served {}-byte packet touched the heap {ops} times",
            payload.len()
        );
        // The core really ran: every packet decoded at 4 m.
        assert_eq!(delivered, 50);
    }
}

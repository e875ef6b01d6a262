//! Allocation guard for the hot round loop: after a warm-up has sized the
//! reusable [`RoundBuffers`] arena, executing further rounds must perform
//! **zero** heap allocations — through the analytic engine (the clean
//! sweeps' hot path, also as driven by the protocol executor
//! `Network::step_into`) and through the event engine (the reference the
//! engine-agreement tests run). Unobserved and reversed network rounds
//! (`Network::step_unobserved` / `Network::step_reversed`) take no buffers
//! and must allocate nothing, with or without a fault plan. A counting
//! global allocator measures an exact replay of the warm-up rounds against
//! a fresh state, so any per-round allocation sneaking back into the
//! engines fails the test deterministically.

use ring_protocols::exec::{Network, StepBuffers};
use ring_protocols::fault::{FaultParams, FaultPlan};
use ring_protocols::ids::IdAssignment;
use ring_sim::{
    EngineKind, LocalDirection, Model, ObjectiveDirection, RingConfig, RingState, RoundBuffers,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator with a per-thread allocation counter bolted on
/// (per thread, so tests running in parallel do not count each other).
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth of an existing buffer is an allocation for this test's
        // purposes: the arena is supposed to have reached steady state.
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A deterministic per-round direction pattern that exercises both
/// movement directions and collisions (without allocating: the slice is
/// mutated in place).
fn fill_directions(directions: &mut [ObjectiveDirection], round: u64) {
    for (agent, slot) in directions.iter_mut().enumerate() {
        // Mix round and agent so the collision structure changes from
        // round to round.
        let bit = (round.wrapping_mul(0x9e37_79b9) >> (agent % 13)) & 1;
        *slot = if bit == 0 {
            ObjectiveDirection::Clockwise
        } else {
            ObjectiveDirection::Anticlockwise
        };
    }
}

/// Replays `rounds` identical rounds through a fresh state into the given
/// arena, returning the final rotation index as a use of the results.
fn replay(
    config: &RingConfig,
    engine: EngineKind,
    bufs: &mut RoundBuffers,
    directions: &mut [ObjectiveDirection],
    rounds: u64,
) -> usize {
    let mut state = RingState::new(config);
    let mut last = 0usize;
    for round in 0..rounds {
        fill_directions(directions, round);
        last = state
            .execute_round_objective_into(directions, engine, bufs)
            .expect("round executes")
            .shift;
    }
    last
}

fn ring(n: usize) -> RingConfig {
    RingConfig::builder(n)
        .random_positions(2015)
        .alternating_chirality()
        .build()
        .expect("valid config")
}

/// Warms a [`RoundBuffers`] arena with `ROUNDS` rounds on the given
/// engine, then replays the identical rounds against a fresh `RingState`.
/// The state is one rotation offset, so even its construction inside the
/// measured region allocates nothing: the whole replay must not allocate.
fn assert_warm_rounds_allocate_nothing(engine: EngineKind, sizes: &[usize]) {
    const ROUNDS: u64 = 64;
    for &n in sizes {
        let config = ring(n);
        let mut bufs = RoundBuffers::new();
        let mut directions = vec![ObjectiveDirection::Clockwise; n];
        // Warm-up: size every buffer in the arena, including the event
        // engine's collision scratch.
        let warm = replay(&config, engine, &mut bufs, &mut directions, ROUNDS);

        let before = allocations();
        let replayed = replay(&config, engine, &mut bufs, &mut directions, ROUNDS);
        let total = allocations() - before;

        assert_eq!(warm, replayed, "replay must be deterministic");
        assert_eq!(
            total, 0,
            "{engine:?}, n = {n}: {total} allocations across {ROUNDS} warm rounds; \
             the round loop must be allocation-free after warm-up"
        );
    }
}

#[test]
fn analytic_rounds_allocate_nothing_after_warmup() {
    assert_warm_rounds_allocate_nothing(EngineKind::Analytic, &[8, 13, 256]);
}

#[test]
fn event_engine_rounds_allocate_nothing_after_warmup() {
    assert_warm_rounds_allocate_nothing(EngineKind::Event, &[8, 13]);
}

#[test]
fn perceptive_network_steps_allocate_nothing_after_warmup() {
    const ROUNDS: u64 = 64;
    for n in [8usize, 13, 256] {
        let config = ring(n);
        let ids = IdAssignment::random(n, 4 * n as u64, 2015);
        let mut objective = vec![ObjectiveDirection::Clockwise; n];
        let mut directions = vec![LocalDirection::Right; n];
        let mut bufs = StepBuffers::new();
        let mut run = |net: &mut Network<'_>, bufs: &mut StepBuffers| {
            for round in 0..ROUNDS {
                // The pattern's bits double as local directions: every
                // agent moves, as the perceptive model requires.
                fill_directions(&mut objective, round);
                for (local, &dir) in directions.iter_mut().zip(&objective) {
                    *local = LocalDirection::from_bit(dir == ObjectiveDirection::Clockwise);
                }
                net.step_into(&directions, bufs).expect("round executes");
            }
            net.ground_truth_offset()
        };
        let network = || {
            Network::new(&config, ids.clone(), Model::Perceptive)
                .expect("valid network")
                .with_engine(EngineKind::Analytic)
        };

        let warm = run(&mut network(), &mut bufs);
        // Network construction (identifier table, structure handles) is
        // not a round: build the fresh network outside the measured region.
        let mut fresh = network();
        let before = allocations();
        let replayed = run(&mut fresh, &mut bufs);
        let total = allocations() - before;

        assert_eq!(warm, replayed, "replay must be deterministic");
        assert!(bufs.observations().iter().any(|o| o.coll.is_some()));
        assert_eq!(
            total, 0,
            "n = {n}: {total} allocations across {ROUNDS} warm perceptive steps"
        );
    }
}

#[test]
fn unobserved_and_reversed_network_steps_allocate_nothing() {
    const ROUNDS: u64 = 64;
    let faults = FaultParams {
        drop_per_mille: 200,
        crashes: 2,
        churn: 2,
        adversarial: true,
    };
    for n in [8usize, 13, 256] {
        let config = ring(n);
        let ids = IdAssignment::random(n, 4 * n as u64, 2015);
        let mut objective = vec![ObjectiveDirection::Clockwise; n];
        let mut directions = vec![LocalDirection::Right; n];
        let mut run = |net: &mut Network<'_>| {
            for round in 0..ROUNDS {
                fill_directions(&mut objective, round);
                for (local, &dir) in directions.iter_mut().zip(&objective) {
                    *local = LocalDirection::from_bit(dir == ObjectiveDirection::Clockwise);
                }
                if round % 2 == 0 {
                    net.step_unobserved(&directions).expect("round executes");
                } else {
                    net.step_reversed(&directions).expect("round executes");
                }
            }
            net.ground_truth_offset()
        };
        for plan in [None, Some(FaultPlan::new(faults, n, 2015))] {
            // Network and fault-plan construction is not a round: build
            // both outside the measured region.
            let network = || {
                let net =
                    Network::new(&config, ids.clone(), Model::Perceptive).expect("valid network");
                match &plan {
                    Some(plan) => net.with_faults(plan.clone()),
                    None => net,
                }
            };
            let warm = run(&mut network());
            let mut fresh = network();
            let before = allocations();
            let replayed = run(&mut fresh);
            let total = allocations() - before;

            assert_eq!(warm, replayed, "replay must be deterministic");
            assert_eq!(fresh.rounds_used(), ROUNDS);
            assert_eq!(
                total,
                0,
                "n = {n}, faults {}: {total} allocations across {ROUNDS} unobserved steps",
                plan.is_some()
            );
        }
    }
}

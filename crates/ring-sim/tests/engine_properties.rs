//! Property tests validating the analytic engine against the event-driven
//! reference engine, against the rotation-index lemma (Lemma 1 of the
//! paper) and against a per-agent oracle of the same round, for arbitrary
//! configurations and direction assignments.

use proptest::prelude::*;
use ring_sim::prelude::*;

/// Strategy: a ring size, a position seed and an objective direction vector
/// (optionally including idle agents).
fn round_inputs(allow_idle: bool) -> impl Strategy<Value = (usize, u64, Vec<ObjectiveDirection>)> {
    (5usize..24, any::<u64>()).prop_flat_map(move |(n, seed)| {
        let dir = if allow_idle {
            prop_oneof![
                Just(ObjectiveDirection::Clockwise),
                Just(ObjectiveDirection::Anticlockwise),
                Just(ObjectiveDirection::Idle),
            ]
            .boxed()
        } else {
            prop_oneof![
                Just(ObjectiveDirection::Clockwise),
                Just(ObjectiveDirection::Anticlockwise),
            ]
            .boxed()
        };
        (Just(n), Just(seed), proptest::collection::vec(dir, n))
    })
}

fn identity_slots(n: usize) -> Vec<usize> {
    (0..n).collect()
}

fn close(a: f64, b: f64) -> bool {
    let d = (a - b).abs();
    d < 1e-6 || (1.0 - d).abs() < 1e-6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Lemma 1: in every round each agent ends at the initial position of
    /// the agent `(n_C - n_A) mod n` places further clockwise, also with
    /// idle agents present.
    #[test]
    fn rotation_index_lemma_holds((n, seed, dirs) in round_inputs(true)) {
        let config = RingConfig::builder(n).random_positions(seed).build().unwrap();
        let mut ring = RingState::new(&config);
        let expected = rotation_index(&dirs);
        let outcome = ring.execute_round_objective(&dirs, EngineKind::Analytic).unwrap();
        prop_assert_eq!(outcome.rotation, expected);
        for agent in 0..n {
            prop_assert_eq!(ring.slot_of_agent(agent), (agent + expected.shift) % n);
        }
    }

    /// The analytic engine and the event-driven engine agree on the
    /// clockwise displacement of every agent (any round, idles allowed).
    #[test]
    fn engines_agree_on_displacement((n, seed, dirs) in round_inputs(true)) {
        let config = RingConfig::builder(n).random_positions(seed).build().unwrap();
        let analytic = AnalyticEngine::new().execute(config.positions(), 0, &dirs);
        let traj = EventEngine::new().simulate(&config, &identity_slots(n), &dirs);
        for agent in 0..n {
            let expected = analytic.cw_displacement[agent].as_fraction();
            let got = traj.cw_displacement[agent];
            prop_assert!(close(expected, got),
                "agent {}: analytic {} vs event {}", agent, expected, got);
        }
    }

    /// The analytic engine and the event-driven engine agree on every
    /// agent's first-collision distance (any round, idles allowed).
    #[test]
    fn engines_agree_on_first_collisions((n, seed, dirs) in round_inputs(true)) {
        let config = RingConfig::builder(n).random_positions(seed).build().unwrap();
        let analytic = AnalyticEngine::new().execute(config.positions(), 0, &dirs);
        let traj = EventEngine::new().simulate(&config, &identity_slots(n), &dirs);
        for agent in 0..n {
            match (analytic.first_collision[agent], traj.first_collision[agent]) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert!(
                    (a.as_fraction() - b).abs() < 1e-6,
                    "agent {}: analytic {} vs event {}", agent, a.as_fraction(), b
                ),
                (a, b) => prop_assert!(false, "agent {}: {:?} vs {:?}", agent, a, b),
            }
        }
    }

    /// A `SINGLEROUND` followed by the corresponding `REVERSEDROUND` puts
    /// every agent back where it started (the basic tool used throughout
    /// the paper's perceptive-model algorithms).
    #[test]
    fn reversed_round_undoes_single_round((n, seed, dirs) in round_inputs(true)) {
        let config = RingConfig::builder(n)
            .random_positions(seed)
            .random_chirality(seed ^ 0xabcdef)
            .build()
            .unwrap();
        let mut ring = RingState::new(&config);
        let reversed: Vec<ObjectiveDirection> = dirs.iter().map(|d| d.opposite()).collect();
        ring.execute_round_objective(&dirs, EngineKind::Analytic).unwrap();
        ring.execute_round_objective(&reversed, EngineKind::Analytic).unwrap();
        prop_assert!(ring.at_initial_positions());
    }

    /// `dist()` is zero for every agent exactly when the rotation index is
    /// zero (the 1-round zero-rotation probe used by the protocols).
    #[test]
    fn dist_zero_iff_rotation_zero((n, seed, dirs) in round_inputs(true)) {
        let config = RingConfig::builder(n)
            .random_positions(seed)
            .random_chirality(seed.rotate_left(7))
            .build()
            .unwrap();
        let mut ring = RingState::new(&config);
        let outcome = ring.execute_round_objective(&dirs, EngineKind::Analytic).unwrap();
        for obs in &outcome.observations {
            prop_assert_eq!(obs.dist.is_zero(), outcome.rotation.is_zero());
        }
    }
}

/// Ring sizes for the oracle comparison: the smallest rings (below the
/// protocols' minimum, so only the raw kernel runs there) and the sizes on
/// either side of the 64- and 256-agent boundaries.
const ORACLE_SIZES: [usize; 9] = [2, 3, 4, 63, 64, 65, 255, 256, 257];

/// SplitMix64: the deterministic source of positions and rounds for one
/// oracle case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// `n` distinct, sorted, even tick positions with gaps anywhere from two
/// ticks up to `1/(2n)` of the circle.
fn oracle_positions(n: usize, rng: &mut Mix) -> Vec<Point> {
    let step = CIRCUMFERENCE / (4 * n as u64);
    let mut tick = 2 * rng.below(step);
    (0..n)
        .map(|_| {
            let point = Point::from_ticks(tick);
            tick += 2 + 2 * rng.below(step);
            point
        })
        .collect()
}

/// One round of the given kind: 0 — everybody moves the same way; 1 — a
/// single agent moves opposite to everybody else; 2 — random movers; 3 —
/// lazy, with random idle agents.
fn oracle_directions(kind: u64, n: usize, rng: &mut Mix) -> Vec<ObjectiveDirection> {
    use ObjectiveDirection::{Anticlockwise, Clockwise, Idle};
    let pick = |rng: &mut Mix, options: &[ObjectiveDirection]| {
        options[rng.below(options.len() as u64) as usize]
    };
    match kind {
        0 | 1 => {
            let common = pick(rng, &[Clockwise, Anticlockwise]);
            let mut dirs = vec![common; n];
            if kind == 1 {
                dirs[rng.below(n as u64) as usize] = common.opposite();
            }
            dirs
        }
        2 => (0..n)
            .map(|_| pick(rng, &[Clockwise, Anticlockwise]))
            .collect(),
        _ => (0..n)
            .map(|_| pick(rng, &[Clockwise, Anticlockwise, Idle]))
            .collect(),
    }
}

/// The per-agent round formulation the analytic engine used before it
/// moved to slot space, kept as the oracle: every agent's new slot is
/// `(slot + r) % n`, and in an all-moving round its first collision comes
/// from a binary search over the sorted slots of the movers in the opposite
/// direction. Rounds with idle agents take the brute-force minimum over
/// every other agent of the time their straight-line ghosts meet.
struct OracleRound {
    rotation: RotationIndex,
    cw_displacement: Vec<ArcLength>,
    first_collision: Vec<Option<ArcLength>>,
    new_slots: Vec<usize>,
}

fn oracle_round(positions: &[Point], slots: &[usize], dirs: &[ObjectiveDirection]) -> OracleRound {
    use ObjectiveDirection::{Anticlockwise, Clockwise, Idle};
    let n = positions.len();
    let cw_arc = |from: usize, to: usize| positions[from].cw_distance_to(positions[to]);
    let rotation = rotation_index(dirs);
    let new_slots: Vec<usize> = slots.iter().map(|&s| (s + rotation.shift) % n).collect();
    let cw_displacement = slots
        .iter()
        .zip(&new_slots)
        .map(|(&from, &to)| cw_arc(from, to))
        .collect();

    let mut dir_at_slot = vec![Idle; n];
    for (&slot, &dir) in slots.iter().zip(dirs) {
        dir_at_slot[slot] = dir;
    }
    let movers = |wanted: ObjectiveDirection| -> Vec<usize> {
        (0..n).filter(|&s| dir_at_slot[s] == wanted).collect()
    };
    let (cw_slots, acw_slots) = (movers(Clockwise), movers(Anticlockwise));
    let mut first_collision = vec![None; n];
    if cw_slots.len() + acw_slots.len() == n && !cw_slots.is_empty() && !acw_slots.is_empty() {
        for (agent, &slot) in slots.iter().enumerate() {
            first_collision[agent] = Some(if dirs[agent] == Clockwise {
                // Nearest anticlockwise mover strictly ahead.
                let i = acw_slots.partition_point(|&s| s <= slot);
                cw_arc(slot, *acw_slots.get(i).unwrap_or(&acw_slots[0])).half()
            } else {
                // Nearest clockwise mover strictly behind.
                let i = cw_slots.partition_point(|&s| s < slot);
                let behind = if i > 0 {
                    cw_slots[i - 1]
                } else {
                    *cw_slots.last().unwrap()
                };
                cw_arc(behind, slot).half()
            });
        }
    } else if cw_slots.len() + acw_slots.len() < n {
        for (agent, &slot) in slots.iter().enumerate() {
            first_collision[agent] = (0..n)
                .filter(|&other| other != slot)
                .filter_map(|other| ghost_meeting(cw_arc, slot, other, &dir_at_slot))
                .min();
        }
    }
    OracleRound {
        rotation,
        cw_displacement,
        first_collision,
        new_slots,
    }
}

/// How far the agent at slot `me` has travelled when the straight-line
/// ghost of the agent at slot `other` reaches it (speed 1 for movers, 0 for
/// idle agents, at most one lap), or `None` if the two ghosts never meet.
fn ghost_meeting(
    cw_arc: impl Fn(usize, usize) -> ArcLength,
    me: usize,
    other: usize,
    dir_at_slot: &[ObjectiveDirection],
) -> Option<ArcLength> {
    use ObjectiveDirection::{Anticlockwise as A, Clockwise as C, Idle as I};
    let (ahead, behind) = (cw_arc(me, other), cw_arc(other, me));
    match (dir_at_slot[me], dir_at_slot[other]) {
        (C, A) => Some(ahead.half()),
        (C, I) => Some(ahead),
        (A, C) => Some(behind.half()),
        (A, I) => Some(behind),
        (I, C | A) => Some(ArcLength::ZERO),
        (C, C) | (A, A) | (I, I) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(144))]

    /// The slot-space kernel reproduces the per-agent oracle exactly —
    /// rotation, displacement, first collisions and the new agent → slot
    /// map — after random prior rounds (so the rotation offset is
    /// nonzero), for every round kind. From the protocols' minimum ring
    /// size up, `RingState` observations (chirality applied) must match
    /// the oracle observation for observation, and the event-driven
    /// reference must agree on offsets, displacements and collisions (up
    /// to n = 65: its O(n³) rounds would dominate the suite beyond that).
    #[test]
    fn slot_space_kernel_matches_the_per_agent_oracle(
        (size, kind, prior, seed) in (0..ORACLE_SIZES.len(), 0u64..4, 0u64..4, any::<u64>())
    ) {
        let n = ORACLE_SIZES[size];
        let mut rng = Mix(seed);
        let positions = oracle_positions(n, &mut rng);
        let config = (n >= 5).then(|| {
            RingConfig::builder(n)
                .explicit_positions(positions.iter().copied())
                .random_chirality(seed)
                .build()
                .unwrap()
        });
        let mut rings = config.as_ref().map(|c| (RingState::new(c), RingState::new(c)));
        let check_events = n <= 65;
        let (mut bufs, mut event_bufs) = (RoundBuffers::new(), RoundBuffers::new());
        let mut slots = identity_slots(n);
        let mut offset = 0;

        for round in 0..=prior {
            let round_kind = if round == prior { kind } else { rng.below(4) };
            let dirs = oracle_directions(round_kind, n, &mut rng);
            let oracle = oracle_round(&positions, &slots, &dirs);
            let kernel = AnalyticEngine::new().execute(&positions, offset, &dirs);
            prop_assert_eq!(kernel.rotation, oracle.rotation);
            prop_assert_eq!(&kernel.cw_displacement, &oracle.cw_displacement);
            prop_assert_eq!(&kernel.first_collision, &oracle.first_collision);
            for (agent, &slot) in oracle.new_slots.iter().enumerate() {
                prop_assert_eq!((agent + kernel.offset) % n, slot);
            }
            slots = oracle.new_slots;
            offset = kernel.offset;

            if let (Some(config), Some((ring, event_ring))) = (&config, &mut rings) {
                let rotation = ring
                    .execute_round_objective_into(&dirs, EngineKind::Analytic, &mut bufs)
                    .unwrap();
                prop_assert_eq!(rotation, oracle.rotation);
                prop_assert_eq!(ring.offset(), offset);
                for (agent, obs) in bufs.observations.iter().enumerate() {
                    let cw = oracle.cw_displacement[agent];
                    let dist = if config.chirality(agent).is_aligned() || cw.is_zero() {
                        cw
                    } else {
                        cw.complement()
                    };
                    let expected = Observation::with_dist_and_coll(dist, oracle.first_collision[agent]);
                    prop_assert_eq!(*obs, expected, "agent {} of n = {}", agent, n);
                }

                if !check_events {
                    continue;
                }
                let rotation = event_ring
                    .execute_round_objective_into(&dirs, EngineKind::Event, &mut event_bufs)
                    .unwrap();
                prop_assert_eq!(rotation, oracle.rotation);
                prop_assert_eq!(event_ring.offset(), offset);
                for (analytic, event) in bufs.observations.iter().zip(&event_bufs.observations) {
                    prop_assert_eq!(analytic.dist, event.dist);
                    match (analytic.coll, event.coll) {
                        (None, None) => {}
                        (Some(a), Some(e)) => prop_assert!(
                            a.ticks().abs_diff(e.ticks()) <= 2,
                            "collision {:?} vs event {:?}", a, e
                        ),
                        (a, e) => prop_assert!(false, "collision presence {:?} vs {:?}", a, e),
                    }
                }
            }
        }
    }
}

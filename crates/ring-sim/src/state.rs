//! Mutable ring state and round execution.
//!
//! [`RingState`] owns the evolving ground truth of a deployment: which slot
//! (initial position) each agent currently occupies. Every round rotates all
//! agents by the same number of slots (Lemma 1), so the whole agent → slot
//! map is one *rotation offset*: agent `a` occupies slot `(a + offset) mod n`.
//! Protocols interact with the state exclusively through
//! [`RingState::execute_round`], supplying each agent's chosen
//! [`LocalDirection`] and receiving each agent's [`Observation`] — already
//! translated into the agent's own frame, exactly as the model prescribes.
//! A round whose observations nobody reads runs through
//! [`RingState::advance_unobserved`]: by Lemma 1 it only needs the mover
//! counts, so it skips the displacement and collision passes.

use crate::analytic::{AnalyticEngine, AnalyticScratch};
use crate::config::RingConfig;
use crate::direction::{Chirality, LocalDirection, ObjectiveDirection};
use crate::error::RingError;
use crate::events::{EventEngine, EventScratch};
use crate::geometry::{ArcLength, Point, CIRCUMFERENCE};
use crate::observe::Observation;
use crate::rotation::{mover_counts, rotation_from_counts, RotationIndex};

/// Which physics engine executes the round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Exact engine based on the rotation-index lemma: the state is one
    /// rotation offset, and a round is a few contiguous O(n) passes in slot
    /// space with no per-agent division or search.
    Analytic,
    /// Event-driven `f64` reference engine that simulates every collision.
    Event,
}

/// The outcome of a single executed round.
#[derive(Clone, Debug)]
pub struct RoundOutcome {
    /// Rotation index of the round (ground truth; not visible to agents).
    pub rotation: RotationIndex,
    /// Observation of each agent, expressed in that agent's own frame.
    /// Collision information is populated whenever the engine can compute
    /// it; callers that model non-perceptive agents should strip it with
    /// [`Observation::without_coll`].
    pub observations: Vec<Observation>,
    /// Objective direction each agent actually moved in (ground truth).
    pub objective_directions: Vec<ObjectiveDirection>,
}

/// Reusable per-round scratch arena for [`RingState::execute_round_into`].
///
/// A multi-round driver creates one `RoundBuffers`, passes it to every
/// round, and reads the round's outputs from it between rounds; after the
/// vectors have grown to the ring size once, round execution performs no
/// heap allocation at all. Event-engine rounds route through a reusable
/// [`EventScratch`] held here, so the reference engine is covered by the
/// same guarantee (modulo growth of its collision log).
#[derive(Clone, Debug, Default)]
pub struct RoundBuffers {
    /// Observation of each agent for the last executed round, in that
    /// agent's own frame.
    pub observations: Vec<Observation>,
    objective: Vec<ObjectiveDirection>,
    scratch: AnalyticScratch,
    /// Agent → slot map spelled out for the event engine's slot-slice API
    /// (filled on [`EngineKind::Event`] rounds only).
    slots: Vec<usize>,
    events: EventScratch,
}

impl RoundBuffers {
    /// Creates an empty arena (vectors grow to the ring size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Objective direction each agent moved in during the last round
    /// (ground truth).
    pub fn objective_directions(&self) -> &[ObjectiveDirection] {
        &self.objective
    }
}

/// The evolving state of a ring deployment.
#[derive(Clone, Debug)]
pub struct RingState<'a> {
    config: &'a RingConfig,
    /// Agent `a` occupies slot `(a + offset) mod n`; always `< n`.
    offset: usize,
    rounds_executed: u64,
}

impl<'a> RingState<'a> {
    /// Creates a fresh state in which agent `i` occupies slot `i`.
    pub fn new(config: &'a RingConfig) -> Self {
        RingState {
            config,
            offset: 0,
            rounds_executed: 0,
        }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &RingConfig {
        self.config
    }

    /// Number of agents.
    pub fn len(&self) -> usize {
        self.config.len()
    }

    /// Whether the ring is empty (never true for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.config.is_empty()
    }

    /// Number of rounds executed so far.
    pub fn rounds_executed(&self) -> u64 {
        self.rounds_executed
    }

    /// The rotation offset: agent `a` currently occupies slot
    /// `(a + offset) mod n`.
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// Slot currently occupied by `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn slot_of_agent(&self, agent: usize) -> usize {
        let n = self.len();
        assert!(agent < n, "agent {agent} out of range for n = {n}");
        (agent + self.offset) % n
    }

    /// The current position of `agent`.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn position_of_agent(&self, agent: usize) -> Point {
        self.config.position(self.slot_of_agent(agent))
    }

    /// Whether every agent is back at its initial slot.
    pub fn at_initial_positions(&self) -> bool {
        self.offset == 0
    }

    /// Executes one round given each agent's chosen direction in its **own**
    /// frame, and returns per-agent observations in their own frames.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    pub fn execute_round(
        &mut self,
        local_directions: &[LocalDirection],
        engine: EngineKind,
    ) -> Result<RoundOutcome, RingError> {
        let mut bufs = RoundBuffers::new();
        let rotation = self.execute_round_into(local_directions, engine, &mut bufs)?;
        Ok(RoundOutcome {
            rotation,
            observations: bufs.observations,
            objective_directions: bufs.objective,
        })
    }

    /// Executes one round given objective directions (mostly useful for
    /// tests and for the experiment harness, which plays the adversary).
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    pub fn execute_round_objective(
        &mut self,
        objective: &[ObjectiveDirection],
        engine: EngineKind,
    ) -> Result<RoundOutcome, RingError> {
        let mut bufs = RoundBuffers::new();
        let rotation = self.execute_round_objective_into(objective, engine, &mut bufs)?;
        Ok(RoundOutcome {
            rotation,
            observations: bufs.observations,
            objective_directions: bufs.objective,
        })
    }

    /// Executes one round into a caller-owned [`RoundBuffers`] arena — the
    /// zero-alloc variant of [`RingState::execute_round`]. Observations land
    /// in `bufs.observations`, the resolved objective directions in
    /// [`RoundBuffers::objective_directions`], and the rotation index is
    /// returned.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    pub fn execute_round_into(
        &mut self,
        local_directions: &[LocalDirection],
        engine: EngineKind,
        bufs: &mut RoundBuffers,
    ) -> Result<RotationIndex, RingError> {
        let n = self.len();
        if local_directions.len() != n {
            return Err(RingError::DirectionCountMismatch {
                got: local_directions.len(),
                expected: n,
            });
        }
        bufs.objective.clear();
        // Direction resolution zips two contiguous slices (directions ×
        // chiralities) with no per-agent bounds checks, so the optimiser can
        // vectorise the translation.
        bufs.objective.extend(
            local_directions
                .iter()
                .zip(self.config.chiralities())
                .map(|(dir, &chir)| dir.to_objective(chir)),
        );
        self.run_prepared_round(engine, bufs)
    }

    /// Executes one round given objective directions, into a caller-owned
    /// arena (zero-alloc variant of [`RingState::execute_round_objective`]).
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    pub fn execute_round_objective_into(
        &mut self,
        objective: &[ObjectiveDirection],
        engine: EngineKind,
        bufs: &mut RoundBuffers,
    ) -> Result<RotationIndex, RingError> {
        let n = self.len();
        if objective.len() != n {
            return Err(RingError::DirectionCountMismatch {
                got: objective.len(),
                expected: n,
            });
        }
        bufs.objective.clear();
        bufs.objective.extend_from_slice(objective);
        self.run_prepared_round(engine, bufs)
    }

    /// Core of every round: executes `bufs.objective`, advancing the
    /// rotation offset and writing the per-agent observations into
    /// `bufs.observations`.
    fn run_prepared_round(
        &mut self,
        engine: EngineKind,
        bufs: &mut RoundBuffers,
    ) -> Result<RotationIndex, RingError> {
        let n = self.len();
        let offset = self.offset;
        let rotation = AnalyticEngine::new().execute_into(
            self.config.positions(),
            offset,
            &bufs.objective,
            &mut bufs.scratch,
        );
        // The analytic results are slot-ordered: agents `0..n − offset`
        // occupy slots `offset..n`, agents `n − offset..n` slots `0..offset`.
        if engine == EngineKind::Event {
            // The event engine is the reference: use it for collisions, but
            // keep the (exact) analytic displacement and offset, which the
            // property tests show it agrees with. The reusable scratch keeps
            // reference rounds allocation-free.
            bufs.slots.clear();
            bufs.slots.extend((offset..n).chain(0..offset));
            EventEngine::new().simulate_into(
                self.config,
                &bufs.slots,
                &bufs.objective,
                &mut bufs.events,
            );
            let (wrapped, unwrapped) = bufs.scratch.first_collision.split_at_mut(offset);
            let (from_unwrapped, from_wrapped) = bufs.events.first_collision.split_at(n - offset);
            for (coll, event) in unwrapped
                .iter_mut()
                .zip(from_unwrapped)
                .chain(wrapped.iter_mut().zip(from_wrapped))
            {
                *coll = event.map(ArcLength::from_fraction);
            }
        }

        // One observation pass over the two agent segments, each streaming
        // three contiguous slices (chirality, displacement, collision).
        let (chir_unwrapped, chir_wrapped) = self.config.chiralities().split_at(n - offset);
        let disp = &bufs.scratch.cw_displacement;
        let coll = &bufs.scratch.first_collision;
        bufs.observations.clear();
        bufs.observations.extend(observations(
            chir_unwrapped,
            &disp[offset..],
            &coll[offset..],
        ));
        bufs.observations
            .extend(observations(chir_wrapped, &disp[..offset], &coll[..offset]));

        self.advance(rotation);
        Ok(rotation)
    }

    /// Executes one round whose observations nobody reads, given each
    /// agent's direction in its own frame. By Lemma 1 a round's whole
    /// effect on the ring is its rotation index, a function of the mover
    /// counts alone: the round is one counting pass and an offset update,
    /// with no displacement, collision or observation pass and no buffers.
    /// The offset and round count end exactly where
    /// [`RingState::execute_round_into`] would leave them.
    ///
    /// The directions are taken as an iterator so that callers can reverse
    /// or suppress moves while they are counted instead of materialising
    /// the effective directions.
    ///
    /// # Errors
    ///
    /// Returns an error if the number of directions does not match the
    /// number of agents.
    pub fn advance_unobserved<I>(&mut self, local_directions: I) -> Result<RotationIndex, RingError>
    where
        I: IntoIterator<Item = LocalDirection>,
        I::IntoIter: ExactSizeIterator,
    {
        let directions = local_directions.into_iter();
        let n = self.len();
        if directions.len() != n {
            return Err(RingError::DirectionCountMismatch {
                got: directions.len(),
                expected: n,
            });
        }
        let (n_c, n_a) = mover_counts(
            directions
                .zip(self.config.chiralities())
                .map(|(dir, &chir)| dir.to_objective(chir)),
        );
        let rotation = rotation_from_counts(n_c, n_a, n);
        self.advance(rotation);
        Ok(rotation)
    }

    /// Moves every agent `rotation.shift` slots on and counts the round.
    fn advance(&mut self, rotation: RotationIndex) {
        let advanced = self.offset + rotation.shift;
        self.offset = if advanced >= self.len() {
            advanced - self.len()
        } else {
            advanced
        };
        self.rounds_executed += 1;
    }

    /// The displacement of `agent` from its initial position, measured in
    /// the agent's own clockwise direction. The `dist` of each round is the
    /// own-frame arc from the round's start to its end position, so the
    /// sum of all of an agent's `dist` observations modulo the
    /// circumference telescopes to this arc: it is derived from the offset
    /// and costs nothing per round.
    ///
    /// # Panics
    ///
    /// Panics if `agent >= n`.
    pub fn own_displacement(&self, agent: usize) -> ArcLength {
        let cw = self.config.cw_arc(agent, self.slot_of_agent(agent));
        in_own_frame(self.config.chirality(agent), cw)
    }
}

/// Observations of a contiguous run of agents, from each agent's chirality
/// and the displacement and first collision at its slot; the agent's own
/// clockwise is the objective clockwise or its mirror image.
fn observations<'s>(
    chiralities: &'s [Chirality],
    cw_displacement: &'s [ArcLength],
    first_collision: &'s [Option<ArcLength>],
) -> impl Iterator<Item = Observation> + 's {
    chiralities
        .iter()
        .zip(cw_displacement)
        .zip(first_collision)
        .map(|((&chir, &cw), &coll)| Observation {
            dist: in_own_frame(chir, cw),
            coll,
        })
}

/// An objective clockwise arc `cw < CIRCUMFERENCE` as an agent of the given
/// chirality measures it in its own clockwise direction.
#[inline]
fn in_own_frame(chirality: Chirality, cw: ArcLength) -> ArcLength {
    // The mirror image of a clockwise arc `d < CIRCUMFERENCE` is
    // `CIRCUMFERENCE − d`, and zero stays zero: one masked negation.
    let mirrored = cw.ticks().wrapping_neg() & (CIRCUMFERENCE - 1);
    match chirality {
        Chirality::Aligned => cw,
        Chirality::Reversed => ArcLength::from_ticks(mirrored),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direction::Chirality;

    #[test]
    fn reversed_round_restores_positions() {
        let config = RingConfig::builder(7)
            .random_positions(2)
            .random_chirality(3)
            .build()
            .unwrap();
        let mut ring = RingState::new(&config);
        let dirs = vec![
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Right,
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Right,
            LocalDirection::Left,
        ];
        assert!(ring.at_initial_positions());
        ring.execute_round(&dirs, EngineKind::Analytic).unwrap();
        // The paper's `REVERSEDROUND`: everybody moves the other way.
        ring.advance_unobserved(dirs.iter().map(|d| d.opposite()))
            .unwrap();
        assert!(ring.at_initial_positions());
        assert_eq!(ring.rounds_executed(), 2);
    }

    /// An unobserved round advances the ring exactly as the observed round
    /// with the same directions, idle agents included, and the derived
    /// own-frame displacement is the running sum of the observed `dist`.
    #[test]
    fn unobserved_rounds_advance_like_observed_rounds() {
        let n = 11;
        let config = RingConfig::builder(n)
            .random_positions(21)
            .random_chirality(22)
            .build()
            .unwrap();
        let mut observed = RingState::new(&config);
        let mut unobserved = RingState::new(&config);
        let mut bufs = RoundBuffers::new();
        let mut sums = vec![0u64; n];
        for round in 0..40usize {
            let dirs: Vec<LocalDirection> = (0..n)
                .map(|agent| match (agent * 7 + round * 3 + agent * round) % 5 {
                    0 => LocalDirection::Idle,
                    1 | 2 => LocalDirection::Left,
                    _ => LocalDirection::Right,
                })
                .collect();
            let rotation = observed
                .execute_round_into(&dirs, EngineKind::Analytic, &mut bufs)
                .unwrap();
            assert_eq!(
                unobserved.advance_unobserved(dirs.iter().copied()),
                Ok(rotation)
            );
            assert_eq!(observed.offset(), unobserved.offset());
            assert_eq!(observed.rounds_executed(), unobserved.rounds_executed());
            for (agent, (sum, obs)) in sums.iter_mut().zip(&bufs.observations).enumerate() {
                *sum = (*sum + obs.dist.ticks()) % CIRCUMFERENCE;
                assert_eq!(unobserved.own_displacement(agent).ticks(), *sum);
            }
        }
        assert_eq!(
            unobserved.advance_unobserved([LocalDirection::Right; 3]),
            Err(RingError::DirectionCountMismatch {
                got: 3,
                expected: n
            })
        );
    }

    #[test]
    fn direction_count_is_validated() {
        let config = RingConfig::evenly_spaced(6).unwrap();
        let mut ring = RingState::new(&config);
        let err = ring
            .execute_round(&[LocalDirection::Right; 3], EngineKind::Analytic)
            .unwrap_err();
        assert_eq!(
            err,
            RingError::DirectionCountMismatch {
                got: 3,
                expected: 6
            }
        );
    }

    #[test]
    fn reversed_chirality_observes_mirrored_distances() {
        // Two configurations differing only in one agent's chirality: the
        // observation of that agent is mirrored while others are unchanged.
        let n = 6;
        let aligned = RingConfig::builder(n).random_positions(9).build().unwrap();
        let mut chir = vec![Chirality::Aligned; n];
        chir[2] = Chirality::Reversed;
        let mixed = RingConfig::builder(n)
            .random_positions(9)
            .explicit_chirality(chir)
            .build()
            .unwrap();

        // Use objective directions so that the physical round is identical.
        let dirs = vec![
            ObjectiveDirection::Clockwise,
            ObjectiveDirection::Clockwise,
            ObjectiveDirection::Anticlockwise,
            ObjectiveDirection::Clockwise,
            ObjectiveDirection::Anticlockwise,
            ObjectiveDirection::Clockwise,
        ];
        let mut ring_a = RingState::new(&aligned);
        let mut ring_b = RingState::new(&mixed);
        let out_a = ring_a
            .execute_round_objective(&dirs, EngineKind::Analytic)
            .unwrap();
        let out_b = ring_b
            .execute_round_objective(&dirs, EngineKind::Analytic)
            .unwrap();

        assert_eq!(out_a.rotation, out_b.rotation);
        for agent in 0..n {
            if agent == 2 {
                if out_a.observations[agent].dist.is_zero() {
                    assert_eq!(
                        out_b.observations[agent].dist,
                        out_a.observations[agent].dist
                    );
                } else {
                    assert_eq!(
                        out_b.observations[agent].dist,
                        out_a.observations[agent].dist.complement()
                    );
                }
            } else {
                assert_eq!(
                    out_a.observations[agent].dist,
                    out_b.observations[agent].dist
                );
            }
            // Collision distances are path lengths: identical regardless of
            // chirality.
            assert_eq!(
                out_a.observations[agent].coll,
                out_b.observations[agent].coll
            );
        }
    }

    #[test]
    fn buffered_rounds_match_allocating_rounds() {
        let config = RingConfig::builder(9)
            .random_positions(11)
            .random_chirality(12)
            .build()
            .unwrap();
        for engine in [EngineKind::Analytic, EngineKind::Event] {
            let mut plain = RingState::new(&config);
            let mut buffered = RingState::new(&config);
            let mut bufs = RoundBuffers::new();
            for round in 0..6u64 {
                let dirs: Vec<LocalDirection> = (0..9)
                    .map(|i| {
                        if (i as u64 + round).is_multiple_of(3) {
                            LocalDirection::Left
                        } else {
                            LocalDirection::Right
                        }
                    })
                    .collect();
                let outcome = plain.execute_round(&dirs, engine).unwrap();
                let rotation = buffered
                    .execute_round_into(&dirs, engine, &mut bufs)
                    .unwrap();
                assert_eq!(rotation, outcome.rotation);
                assert_eq!(bufs.observations, outcome.observations);
                assert_eq!(bufs.objective_directions(), outcome.objective_directions);
                assert_eq!(plain.offset(), buffered.offset());
            }
            assert_eq!(plain.rounds_executed(), buffered.rounds_executed());
        }
    }

    #[test]
    fn event_engine_round_keeps_exact_slots() {
        let config = RingConfig::builder(6).random_positions(4).build().unwrap();
        let mut analytic_ring = RingState::new(&config);
        let mut event_ring = RingState::new(&config);
        let dirs = vec![
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Right,
            LocalDirection::Left,
            LocalDirection::Right,
            LocalDirection::Right,
        ];
        analytic_ring
            .execute_round(&dirs, EngineKind::Analytic)
            .unwrap();
        event_ring.execute_round(&dirs, EngineKind::Event).unwrap();
        assert_eq!(analytic_ring.offset(), event_ring.offset());
    }
}

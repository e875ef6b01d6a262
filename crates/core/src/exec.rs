//! The synchronous protocol executor.
//!
//! [`Network`] is the only interface protocol code has to the physical
//! world. It binds a [`RingConfig`] (hidden ground truth), an
//! [`IdAssignment`] and a [`Model`], and exposes
//!
//! * the public knowledge every agent shares — the identifier universe `N`,
//!   the parity of `n`, and the model;
//! * each agent's private input — its own identifier;
//! * [`Network::step_into`], which executes one synchronised round: it
//!   takes the direction chosen by every agent *in that agent's own frame*,
//!   enforces the model's restrictions, and writes every agent's
//!   [`Observation`] into a reusable [`StepBuffers`], again in the agent's
//!   own frame, with collision information stripped unless the model is
//!   perceptive;
//! * [`Network::step_unobserved`] and [`Network::step_reversed`] (the
//!   paper's `REVERSEDROUND`), which execute a round whose observations no
//!   caller reads — the reversals that restore positions in neighbour
//!   discovery, the collision link and `RingDist`, and `RingDist`'s undo
//!   shifts. They apply the same checks and fault suppression as
//!   `step_into`, but by Lemma 1 a round's effect on the ring is its
//!   rotation index, a function of the mover counts alone, so they only
//!   count movers and advance the rotation offset: no collision kernel
//!   runs, and there is no buffer to hold a stale observation.
//!
//! Protocol implementations in this crate are written as lockstep drivers:
//! the same local rule is evaluated for every agent using only that agent's
//! state, and the chosen directions are submitted together through
//! `step_into` (or one of the unobserved variants).
//! Tests validate the outputs against the ground truth, which remains
//! accessible through the `ground_truth_*` methods (never used by protocol
//! logic).

use crate::error::ProtocolError;
use crate::fault::FaultPlan;
use crate::ids::{AgentId, IdAssignment};
use crate::structures::{fresh_structures, SharedStructures};
use ring_sim::{
    EngineKind, LocalDirection, Model, Observation, Parity, RingConfig, RingState, RotationIndex,
    RoundBuffers,
};
use std::fmt;

/// Reusable buffers for the zero-alloc round interface
/// ([`Network::step_into`], [`Network::run_schedule`]).
///
/// Create one per protocol run and thread it through every observed round:
/// after the vectors reach the ring size, no round allocates. Unobserved
/// rounds ([`Network::step_unobserved`], [`Network::step_reversed`]) take
/// no buffers, so the observations held here are always those of the last
/// observed round run through them.
#[derive(Clone, Debug, Default)]
pub struct StepBuffers {
    round: RoundBuffers,
    directions: Vec<LocalDirection>,
}

impl StepBuffers {
    /// Creates an empty buffer set (vectors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The observations of the last executed round, in each agent's own
    /// frame, with collision information already gated by the model.
    pub fn observations(&self) -> &[Observation] {
        &self.round.observations
    }
}

/// The executor: hidden ground truth plus the round interface.
#[derive(Clone)]
pub struct Network<'a> {
    ring: RingState<'a>,
    ids: IdAssignment,
    model: Model,
    engine: EngineKind,
    rounds: u64,
    last_rotation: Option<RotationIndex>,
    structures: SharedStructures,
    structure_seed: u64,
    faults: Option<FaultPlan>,
    fault_scratch: Vec<LocalDirection>,
    round_limit: Option<u64>,
}

impl fmt::Debug for Network<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("ring", &self.ring)
            .field("ids", &self.ids)
            .field("model", &self.model)
            .field("engine", &self.engine)
            .field("rounds", &self.rounds)
            .field("last_rotation", &self.last_rotation)
            .field("structures", &"<dyn StructureProvider>")
            .field("faults", &self.faults)
            .field("round_limit", &self.round_limit)
            .finish()
    }
}

impl<'a> Network<'a> {
    /// Creates an executor over the given configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the identifier assignment does not cover exactly
    /// the agents of the configuration.
    pub fn new(
        config: &'a RingConfig,
        ids: IdAssignment,
        model: Model,
    ) -> Result<Self, ProtocolError> {
        if ids.len() != config.len() {
            return Err(ProtocolError::LengthMismatch {
                what: "identifiers",
                got: ids.len(),
                expected: config.len(),
            });
        }
        Ok(Network {
            ring: RingState::new(config),
            ids,
            model,
            engine: EngineKind::Analytic,
            rounds: 0,
            last_rotation: None,
            structures: fresh_structures(),
            structure_seed: crate::coordination::nontrivial::STRUCTURE_SEED,
            faults: None,
            fault_scratch: Vec::new(),
            round_limit: None,
        })
    }

    /// Selects the physics engine (the analytic engine is the default; the
    /// event-driven engine is available for validation runs).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Installs a shared combinatorial-structure provider. Protocols obtain
    /// their distinguishers and selective families through it, so a sweep
    /// harness can hand every worker the same cache and have each structure
    /// constructed once. The default ([`crate::structures::FreshStructures`])
    /// constructs from scratch per request; either way the structures are
    /// bit-identical, so outcomes do not depend on the provider.
    pub fn with_structures(mut self, structures: SharedStructures) -> Self {
        self.structures = structures;
        self
    }

    /// The combinatorial-structure provider in force.
    pub fn structures(&self) -> &SharedStructures {
        &self.structures
    }

    /// Overrides the seed the distinguisher machinery hands its structure
    /// provider (the default is the fixed public
    /// [`STRUCTURE_SEED`](crate::coordination::nontrivial::STRUCTURE_SEED)).
    /// Sweep harnesses set a per-case seed here to measure the spread over
    /// structure randomness (seed-diverse sweeps); the seed is public
    /// knowledge — all agents agree on it — so protocol semantics are
    /// unchanged.
    pub fn with_structure_seed(mut self, seed: u64) -> Self {
        self.structure_seed = seed;
        self
    }

    /// The structure seed in force (see [`Network::with_structure_seed`]).
    pub fn structure_seed(&self) -> u64 {
        self.structure_seed
    }

    /// Installs a deterministic fault plan: from now on, every round first
    /// consults the plan and physically suppresses (forces idle) the moves
    /// of the agents it names — *after* the model's idle check, because a
    /// dropped message or a crashed station is a physical failure, not a
    /// protocol choice, and is legal even where idling is forbidden.
    ///
    /// The plan leaves the engine as it is: the analytic kernel models
    /// idle agents, collisions included, and a test pins it to the
    /// event-driven reference on faulty runs of every fault kind and model.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fault plan in force, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Caps the total number of rounds this executor will run: the step
    /// after the cap fails with [`ProtocolError::RoundLimitReached`].
    /// Fault-injection harnesses use this as the timeout for runs that
    /// degrade past usefulness; protocol semantics below the cap are
    /// unchanged.
    pub fn with_round_limit(mut self, limit: u64) -> Self {
        self.round_limit = Some(limit);
        self
    }

    // ------------------------------------------------------------------
    // Public knowledge (available to every agent).
    // ------------------------------------------------------------------

    /// The identifier universe size `N`.
    pub fn universe(&self) -> u64 {
        self.ids.universe()
    }

    /// Number of bits needed to address the identifier universe.
    pub fn id_bits(&self) -> u32 {
        self.ids.id_bits()
    }

    /// The parity of the (otherwise unknown) ring size.
    pub fn parity(&self) -> Parity {
        Parity::of(self.ring.len())
    }

    /// The model in force.
    pub fn model(&self) -> Model {
        self.model
    }

    // ------------------------------------------------------------------
    // Private inputs (agent `i` may only look at index `i`).
    // ------------------------------------------------------------------

    /// The identifier of `agent` — that agent's private input.
    pub fn id_of(&self, agent: usize) -> AgentId {
        self.ids.id(agent)
    }

    // ------------------------------------------------------------------
    // Round execution.
    // ------------------------------------------------------------------

    /// Number of agents; used by the lockstep drivers to size their per-agent
    /// state vectors (an agent itself never learns `n`, only its parity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty (never true for valid configurations).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of rounds executed so far.
    pub fn rounds_used(&self) -> u64 {
        self.rounds
    }

    /// Executes one round into a caller-owned [`StepBuffers`] (reused
    /// across rounds, so warm rounds allocate nothing). Observations are
    /// read back through [`StepBuffers::observations`].
    ///
    /// # Errors
    ///
    /// Returns an error if the direction vector has the wrong length or an
    /// agent idles in a non-lazy model.
    pub fn step_into(
        &mut self,
        directions: &[LocalDirection],
        bufs: &mut StepBuffers,
    ) -> Result<(), ProtocolError> {
        self.check_round(directions)?;
        // Fault injection happens below the model check: a suppressed move
        // is a physical failure, not a protocol choice, so forcing idle here
        // is legal even in models that forbid idling.
        let rotation = match &self.faults {
            Some(plan) if plan.any_faults() => {
                let round = self.rounds;
                let mut faulted = std::mem::take(&mut self.fault_scratch);
                faulted.clear();
                faulted.extend(directions.iter().enumerate().map(|(agent, &dir)| {
                    if plan.suppressed(round, agent) {
                        LocalDirection::Idle
                    } else {
                        dir
                    }
                }));
                let result = self
                    .ring
                    .execute_round_into(&faulted, self.engine, &mut bufs.round);
                self.fault_scratch = faulted;
                result?
            }
            _ => self
                .ring
                .execute_round_into(directions, self.engine, &mut bufs.round)?,
        };
        self.rounds += 1;
        self.last_rotation = Some(rotation);
        if !self.model.observes_collisions() {
            for obs in &mut bufs.round.observations {
                obs.coll = None;
            }
        }
        Ok(())
    }

    /// Executes one round whose observations no caller reads. The checks,
    /// the round limit and fault suppression are those of
    /// [`Network::step_into`], and the ring ends in the same state, but the
    /// round only counts movers and advances the rotation offset (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Same as [`Network::step_into`].
    pub fn step_unobserved(&mut self, directions: &[LocalDirection]) -> Result<(), ProtocolError> {
        self.advance_unobserved(directions, false)
    }

    /// Executes one unobserved round in which every agent moves opposite to
    /// `directions` (the paper's `REVERSEDROUND`), restoring the positions
    /// reached before the matching [`Network::step_into`] when no move of
    /// either round was suppressed. Nothing is materialised: the reversal
    /// is applied while movers are counted.
    ///
    /// # Errors
    ///
    /// Same as [`Network::step_into`].
    pub fn step_reversed(&mut self, directions: &[LocalDirection]) -> Result<(), ProtocolError> {
        self.advance_unobserved(directions, true)
    }

    /// Core of the unobserved rounds: suppression, then reversal, applied
    /// per agent while the ring counts movers.
    fn advance_unobserved(
        &mut self,
        directions: &[LocalDirection],
        reversed: bool,
    ) -> Result<(), ProtocolError> {
        self.check_round(directions)?;
        let round = self.rounds;
        let plan = self.faults.as_ref().filter(|plan| plan.any_faults());
        let effective = directions.iter().enumerate().map(|(agent, &dir)| {
            if plan.is_some_and(|plan| plan.suppressed(round, agent)) {
                LocalDirection::Idle
            } else if reversed {
                dir.opposite()
            } else {
                dir
            }
        });
        let rotation = self.ring.advance_unobserved(effective)?;
        self.rounds += 1;
        self.last_rotation = Some(rotation);
        Ok(())
    }

    /// The checks every round passes before it executes: the direction
    /// count, the model's idle rule and the round limit.
    fn check_round(&self, directions: &[LocalDirection]) -> Result<(), ProtocolError> {
        if directions.len() != self.ring.len() {
            return Err(ProtocolError::LengthMismatch {
                what: "directions",
                got: directions.len(),
                expected: self.ring.len(),
            });
        }
        // A branch-free scan (it vectorises, unlike an early-exit search)
        // decides whether anybody idles; only the error path asks who.
        if !self.model.allows_idle()
            && directions
                .iter()
                .fold(false, |idle, d| idle | !d.is_moving())
        {
            let agent = directions.iter().position(|d| !d.is_moving());
            return Err(ProtocolError::IdleForbidden {
                agent: agent.expect("an idle agent"),
                model: self.model,
            });
        }
        if let Some(limit) = self.round_limit {
            if self.rounds >= limit {
                return Err(ProtocolError::RoundLimitReached { limit });
            }
        }
        Ok(())
    }

    /// Executes a whole direction schedule — one synchronized round per
    /// schedule entry — through one reusable buffer set, without
    /// intermediate allocation.
    ///
    /// For each entry `k = 0, 1, …`, `fill(k, &mut dirs)` writes the round's
    /// per-agent directions into the cleared buffer `dirs` and returns
    /// `false` to end the schedule. After each round, `stop(observations)`
    /// inspects the agents' observations (this is where lockstep drivers
    /// fold in per-agent bookkeeping) and returns `true` to stop early.
    ///
    /// Returns the index of the entry at which `stop` fired, or `None` when
    /// the schedule ran to exhaustion. Typical use: one distinguisher set
    /// per round, stopping at the first observably nontrivial move.
    ///
    /// # Errors
    ///
    /// Propagates [`Network::step_into`] errors; the buffers stay usable.
    pub fn run_schedule<F, S>(
        &mut self,
        bufs: &mut StepBuffers,
        mut fill: F,
        mut stop: S,
    ) -> Result<Option<u64>, ProtocolError>
    where
        F: FnMut(u64, &mut Vec<LocalDirection>) -> bool,
        S: FnMut(&[Observation]) -> bool,
    {
        let mut dirs = std::mem::take(&mut bufs.directions);
        let mut hit = None;
        let mut entry = 0u64;
        loop {
            dirs.clear();
            if !fill(entry, &mut dirs) {
                break;
            }
            if let Err(e) = self.step_into(&dirs, bufs) {
                bufs.directions = dirs;
                return Err(e);
            }
            if stop(&bufs.round.observations) {
                hit = Some(entry);
                break;
            }
            entry += 1;
        }
        bufs.directions = dirs;
        Ok(hit)
    }

    /// The sum (modulo the circumference) of the `dist()` of every round
    /// the agent has taken part in, i.e. the agent's displacement from its
    /// initial position measured in its own clockwise direction.
    ///
    /// This is information the agent could trivially maintain itself by
    /// summing its observations, so it is legitimate agent-local knowledge.
    /// It is not summed, though: each round's `dist` is the own-frame arc
    /// from the round's start to its end position, so the sum telescopes to
    /// the own-frame arc from the agent's initial to its current position,
    /// which the rotation offset gives directly. That keeps observed rounds
    /// free of a bookkeeping pass and lets unobserved rounds, which produce
    /// no `dist` at all, count towards it too.
    pub fn observed_cumulative_dist(&self, agent: usize) -> ring_sim::ArcLength {
        self.ring.own_displacement(agent)
    }

    // ------------------------------------------------------------------
    // Ground truth (tests and experiment harness only).
    // ------------------------------------------------------------------

    /// Ground truth: the underlying configuration.
    pub fn ground_truth_config(&self) -> &RingConfig {
        self.ring.config()
    }

    /// Ground truth: the rotation offset — agent `a` currently occupies
    /// slot `(a + offset) mod n`.
    pub fn ground_truth_offset(&self) -> usize {
        self.ring.offset()
    }

    /// Ground truth: the slot currently occupied by each agent (derived
    /// from [`Network::ground_truth_offset`]).
    pub fn ground_truth_slots(&self) -> Vec<usize> {
        (0..self.ring.len())
            .map(|agent| self.ring.slot_of_agent(agent))
            .collect()
    }

    /// Ground truth: the rotation index of the last executed round.
    pub fn ground_truth_last_rotation(&self) -> Option<RotationIndex> {
        self.last_rotation
    }

    /// Ground truth: the identifier assignment.
    pub fn ground_truth_ids(&self) -> &IdAssignment {
        &self.ids
    }

    /// Ground truth: whether every agent is back at its initial position.
    pub fn ground_truth_at_initial_positions(&self) -> bool {
        self.ring.at_initial_positions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ring_sim::RingConfig;

    fn network(_model: Model) -> (RingConfig, IdAssignment) {
        let config = RingConfig::builder(6)
            .random_positions(1)
            .random_chirality(2)
            .build()
            .unwrap();
        let ids = IdAssignment::consecutive(6);
        (config, ids)
    }

    #[test]
    fn idle_is_rejected_outside_the_lazy_model() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids.clone(), Model::Basic).unwrap();
        let mut bufs = StepBuffers::new();
        let mut dirs = vec![LocalDirection::Right; 6];
        dirs[3] = LocalDirection::Idle;
        assert!(matches!(
            net.step_into(&dirs, &mut bufs),
            Err(ProtocolError::IdleForbidden { agent: 3, .. })
        ));

        let mut lazy = Network::new(&config, ids, Model::Lazy).unwrap();
        assert!(lazy.step_into(&dirs, &mut bufs).is_ok());
    }

    #[test]
    fn collision_information_is_gated_by_the_model() {
        let (config, ids) = network(Model::Basic);
        let dirs: Vec<LocalDirection> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    LocalDirection::Right
                } else {
                    LocalDirection::Left
                }
            })
            .collect();

        let mut bufs = StepBuffers::new();
        let mut basic = Network::new(&config, ids.clone(), Model::Basic).unwrap();
        basic.step_into(&dirs, &mut bufs).unwrap();
        assert!(bufs.observations().iter().all(|o| o.coll.is_none()));

        let mut perceptive = Network::new(&config, ids, Model::Perceptive).unwrap();
        perceptive.step_into(&dirs, &mut bufs).unwrap();
        assert!(bufs.observations().iter().any(|o| o.coll.is_some()));
    }

    #[test]
    fn round_counting_and_reversal() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        let mut bufs = StepBuffers::new();
        let dirs = vec![LocalDirection::Right; 6];
        net.step_into(&dirs, &mut bufs).unwrap();
        net.step_reversed(&dirs).unwrap();
        assert_eq!(net.rounds_used(), 2);
        assert!(net.ground_truth_at_initial_positions());
    }

    /// Reusing one buffer set across rounds (the zero-alloc path) must
    /// observe exactly what a fresh buffer set per round (the allocating
    /// path) observes.
    #[test]
    fn buffered_step_matches_allocating_step() {
        let (config, ids) = network(Model::Perceptive);
        let mut plain = Network::new(&config, ids.clone(), Model::Perceptive).unwrap();
        let mut buffered = Network::new(&config, ids, Model::Perceptive).unwrap();
        let mut bufs = StepBuffers::new();
        for round in 0..5 {
            let dirs: Vec<LocalDirection> = (0..6)
                .map(|i| {
                    if (i + round) % 2 == 0 {
                        LocalDirection::Right
                    } else {
                        LocalDirection::Left
                    }
                })
                .collect();
            let mut fresh = StepBuffers::new();
            plain.step_into(&dirs, &mut fresh).unwrap();
            buffered.step_into(&dirs, &mut bufs).unwrap();
            assert_eq!(bufs.observations(), fresh.observations());
            assert_eq!(plain.ground_truth_offset(), buffered.ground_truth_offset());
            for agent in 0..6 {
                assert_eq!(
                    plain.observed_cumulative_dist(agent),
                    buffered.observed_cumulative_dist(agent)
                );
            }
        }
        assert_eq!(plain.rounds_used(), buffered.rounds_used());
    }

    #[test]
    fn buffered_step_gates_collisions_by_model() {
        let (config, ids) = network(Model::Basic);
        let dirs: Vec<LocalDirection> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    LocalDirection::Right
                } else {
                    LocalDirection::Left
                }
            })
            .collect();
        let mut basic = Network::new(&config, ids.clone(), Model::Basic).unwrap();
        let mut bufs = StepBuffers::new();
        basic.step_into(&dirs, &mut bufs).unwrap();
        assert!(bufs.observations().iter().all(|o| o.coll.is_none()));

        let mut perceptive = Network::new(&config, ids, Model::Perceptive).unwrap();
        perceptive.step_into(&dirs, &mut bufs).unwrap();
        assert!(bufs.observations().iter().any(|o| o.coll.is_some()));
    }

    #[test]
    fn run_schedule_stops_early_and_counts_rounds() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        let mut bufs = StepBuffers::new();
        // A schedule of five all-right rounds that stops at entry 2.
        let mut inspected = 0u64;
        let hit = net
            .run_schedule(
                &mut bufs,
                |k, dirs| {
                    if k >= 5 {
                        return false;
                    }
                    dirs.extend(std::iter::repeat_n(LocalDirection::Right, 6));
                    true
                },
                |obs| {
                    assert_eq!(obs.len(), 6);
                    inspected += 1;
                    inspected == 3
                },
            )
            .unwrap();
        assert_eq!(hit, Some(2));
        assert_eq!(net.rounds_used(), 3);

        // Exhausting the schedule returns None and executes every entry.
        let hit = net
            .run_schedule(
                &mut bufs,
                |k, dirs| {
                    if k >= 4 {
                        return false;
                    }
                    dirs.extend(std::iter::repeat_n(LocalDirection::Right, 6));
                    true
                },
                |_| false,
            )
            .unwrap();
        assert_eq!(hit, None);
        assert_eq!(net.rounds_used(), 7);
    }

    #[test]
    fn run_schedule_propagates_model_violations() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic).unwrap();
        let mut bufs = StepBuffers::new();
        let err = net
            .run_schedule(
                &mut bufs,
                |_, dirs| {
                    dirs.extend(std::iter::repeat_n(LocalDirection::Idle, 6));
                    true
                },
                |_| false,
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::IdleForbidden { agent: 0, .. }));
    }

    #[test]
    fn faulted_steps_suppress_exactly_the_planned_agents() {
        use crate::fault::{FaultParams, FaultPlan};
        let (config, ids) = network(Model::Basic);
        // Full drop: every move is physically suppressed, so nobody moves —
        // even though the basic model forbids *choosing* to idle.
        let plan = FaultPlan::new(
            FaultParams {
                drop_per_mille: 1000,
                ..FaultParams::default()
            },
            6,
            11,
        );
        let mut net = Network::new(&config, ids.clone(), Model::Basic)
            .unwrap()
            .with_faults(plan);
        let mut bufs = StepBuffers::new();
        net.step_into(&[LocalDirection::Right; 6], &mut bufs)
            .unwrap();
        assert!(bufs.observations().iter().all(|o| o.dist.is_zero()));
        assert!(net.ground_truth_at_initial_positions());

        // The plan's per-round decisions and the executed suppression line
        // up: replay a partial-drop run against the plan's own verdicts.
        let plan = FaultPlan::new(
            FaultParams {
                drop_per_mille: 400,
                ..FaultParams::default()
            },
            6,
            13,
        );
        let reference = plan.clone();
        let mut net = Network::new(&config, ids, Model::Basic)
            .unwrap()
            .with_faults(plan);
        for round in 0..12u64 {
            net.step_into(&[LocalDirection::Right; 6], &mut bufs)
                .unwrap();
            // The executed objective directions expose exactly the plan's
            // suppressions: a dropped mover was forced idle, nobody else.
            for (agent, &objective) in bufs.round.objective_directions().iter().enumerate() {
                assert_eq!(
                    objective == ring_sim::ObjectiveDirection::Idle,
                    reference.suppressed(round, agent),
                    "round {round}, agent {agent}"
                );
            }
        }
        assert_eq!(net.rounds_used(), 12);
    }

    /// The analytic kernel runs faulty networks. The event-driven
    /// reference, pinned with `with_engine`, must observe the same rounds —
    /// offsets and `dist` exactly, `coll` within 2 ticks — under every
    /// fault kind in every model, and leader election and direction
    /// agreement must reach identical results in identical round counts.
    #[test]
    fn faulty_runs_agree_across_engines() {
        use crate::coordination::{diragr::agree_direction, leader::elect_leader};
        use crate::fault::{FaultParams, FaultPlan};
        use ring_combinat::shared::splitmix64;

        let kinds = [
            FaultParams::default(),
            FaultParams {
                drop_per_mille: 200,
                ..FaultParams::default()
            },
            FaultParams {
                crashes: 2,
                ..FaultParams::default()
            },
            FaultParams {
                churn: 3,
                ..FaultParams::default()
            },
            FaultParams {
                adversarial: true,
                ..FaultParams::default()
            },
        ];
        for n in [5usize, 8, 17, 33, 64, 65] {
            let seed = n as u64;
            let config = RingConfig::builder(n)
                .random_positions(seed)
                .random_chirality(seed + 1)
                .build()
                .unwrap();
            let ids = IdAssignment::random(n, 4 * n as u64, seed + 2);
            for model in [Model::Basic, Model::Lazy, Model::Perceptive] {
                for params in kinds {
                    let pair = || {
                        let plan = FaultPlan::new(params, n, seed + 3);
                        let net = Network::new(&config, ids.clone(), model).unwrap();
                        let event = net.clone().with_engine(EngineKind::Event);
                        (net.with_faults(plan.clone()), event.with_faults(plan))
                    };
                    let (mut analytic, mut event) = pair();
                    let (mut bufs_a, mut bufs_e) = (StepBuffers::new(), StepBuffers::new());
                    let mut rng = seed;
                    for round in 0..12 {
                        let dirs: Vec<LocalDirection> = (0..n)
                            .map(|_| {
                                rng = splitmix64(rng);
                                match rng % 3 {
                                    0 if model.allows_idle() => LocalDirection::Idle,
                                    0 | 1 => LocalDirection::Left,
                                    _ => LocalDirection::Right,
                                }
                            })
                            .collect();
                        analytic.step_into(&dirs, &mut bufs_a).unwrap();
                        event.step_into(&dirs, &mut bufs_e).unwrap();
                        let at = format!("n = {n}, {model}, {params:?}, round {round}");
                        assert_eq!(
                            analytic.ground_truth_offset(),
                            event.ground_truth_offset(),
                            "{at}"
                        );
                        for (a, e) in bufs_a.observations().iter().zip(bufs_e.observations()) {
                            assert_eq!(a.dist, e.dist, "{at}");
                            match (a.coll, e.coll) {
                                (None, None) => {}
                                (Some(a), Some(e)) => {
                                    assert!(a.ticks().abs_diff(e.ticks()) <= 2, "{at}")
                                }
                                (a, e) => panic!("{at}: collision {a:?} vs event {e:?}"),
                            }
                        }
                    }

                    let (mut analytic, mut event) = pair();
                    let leaders = |net: &mut Network<'_>| {
                        elect_leader(net).map(|e| (e.leader_flags().to_vec(), e.rounds()))
                    };
                    let at = format!("n = {n}, {model}, {params:?}");
                    assert_eq!(leaders(&mut analytic), leaders(&mut event), "{at}");
                    let (mut analytic, mut event) = pair();
                    let frames = |net: &mut Network<'_>| {
                        agree_direction(net).map(|a| (a.frames().to_vec(), a.rounds()))
                    };
                    assert_eq!(frames(&mut analytic), frames(&mut event), "{at}");
                }
            }
        }
    }

    /// A reproducible round for the proptests: every agent goes left or
    /// right, or idles where the model allows it.
    fn random_round(rng: &mut u64, n: usize, model: Model) -> Vec<LocalDirection> {
        use ring_combinat::shared::splitmix64;
        (0..n)
            .map(|_| {
                *rng = splitmix64(*rng);
                match *rng % 3 {
                    0 if model.allows_idle() => LocalDirection::Idle,
                    0 | 1 => LocalDirection::Left,
                    _ => LocalDirection::Right,
                }
            })
            .collect()
    }

    /// One network per proptest case: random positions and chirality, a
    /// fault plan of the given kind (none, drops, crashes, churn,
    /// adversarial, all at once) and either engine.
    fn proptest_network(
        config: &RingConfig,
        model: usize,
        fault_kind: u64,
        seed: u64,
        event: bool,
    ) -> Network<'_> {
        use crate::fault::{FaultParams, FaultPlan};
        let n = config.len();
        let params = match fault_kind {
            0 => FaultParams::default(),
            1 => FaultParams {
                drop_per_mille: 100 + seed % 600,
                ..FaultParams::default()
            },
            2 => FaultParams {
                crashes: 1 + seed % 3,
                ..FaultParams::default()
            },
            3 => FaultParams {
                churn: 1 + seed % 4,
                ..FaultParams::default()
            },
            4 => FaultParams {
                adversarial: true,
                ..FaultParams::default()
            },
            _ => FaultParams {
                drop_per_mille: 200,
                crashes: 2,
                churn: 2,
                adversarial: true,
            },
        };
        let model = [Model::Basic, Model::Lazy, Model::Perceptive][model];
        let engine = if event {
            EngineKind::Event
        } else {
            EngineKind::Analytic
        };
        Network::new(config, IdAssignment::random(n, 4 * n as u64, seed), model)
            .unwrap()
            .with_engine(engine)
            .with_faults(FaultPlan::new(params, n, seed))
    }

    fn proptest_ring(n: usize, seed: u64) -> RingConfig {
        RingConfig::builder(n)
            .random_positions(seed)
            .random_chirality(seed ^ 0x5a5a)
            .build()
            .unwrap()
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Unobserved and reversed rounds leave the ring exactly where the
        /// observed round with the same (respectively the reversed)
        /// directions leaves it: offset, last rotation, round count and
        /// every agent's cumulative `dist`, with idle agents, under every
        /// fault kind and on both engines.
        #[test]
        fn unobserved_rounds_leave_the_ring_where_observed_rounds_do(
            n in 5usize..=65,
            model in 0usize..3,
            fault_kind in 0u64..6,
            seed in any::<u64>(),
            event in any::<bool>(),
        ) {
            use ring_combinat::shared::splitmix64;
            let config = proptest_ring(n, seed);
            let mut observed = proptest_network(&config, model, fault_kind, seed, event);
            let mut mixed = observed.clone();
            let (mut bufs_o, mut bufs_m) = (StepBuffers::new(), StepBuffers::new());
            let mut rng = seed;
            for round in 0..16 {
                let dirs = random_round(&mut rng, n, observed.model());
                rng = splitmix64(rng);
                match rng % 3 {
                    0 => {
                        observed.step_into(&dirs, &mut bufs_o).unwrap();
                        mixed.step_into(&dirs, &mut bufs_m).unwrap();
                        prop_assert_eq!(bufs_o.observations(), bufs_m.observations());
                    }
                    1 => {
                        observed.step_into(&dirs, &mut bufs_o).unwrap();
                        mixed.step_unobserved(&dirs).unwrap();
                    }
                    _ => {
                        let reversed: Vec<_> = dirs.iter().map(|d| d.opposite()).collect();
                        observed.step_into(&reversed, &mut bufs_o).unwrap();
                        mixed.step_reversed(&dirs).unwrap();
                    }
                }
                let at = format!("n = {n}, faults {fault_kind}, seed {seed}, round {round}");
                prop_assert_eq!(observed.ground_truth_offset(), mixed.ground_truth_offset(), "{}", at);
                prop_assert_eq!(
                    observed.ground_truth_last_rotation(),
                    mixed.ground_truth_last_rotation(),
                    "{}",
                    at
                );
                prop_assert_eq!(observed.rounds_used(), mixed.rounds_used(), "{}", at);
                for agent in 0..n {
                    prop_assert_eq!(
                        observed.observed_cumulative_dist(agent),
                        mixed.observed_cumulative_dist(agent),
                        "{}, agent {}",
                        at,
                        agent
                    );
                }
            }
        }

        /// The derived cumulative `dist` is what an agent summing its own
        /// observations would hold.
        #[test]
        fn cumulative_dist_is_the_running_sum_of_observed_dist(
            n in 5usize..=65,
            model in 0usize..3,
            fault_kind in 0u64..6,
            seed in any::<u64>(),
            event in any::<bool>(),
        ) {
            let config = proptest_ring(n, seed);
            let mut net = proptest_network(&config, model, fault_kind, seed, event);
            let mut bufs = StepBuffers::new();
            let mut sums = vec![0u64; n];
            let mut rng = seed;
            for round in 0..16 {
                let dirs = random_round(&mut rng, n, net.model());
                net.step_into(&dirs, &mut bufs).unwrap();
                for (agent, (sum, obs)) in sums.iter_mut().zip(bufs.observations()).enumerate() {
                    *sum = (*sum + obs.dist.ticks()) % ring_sim::CIRCUMFERENCE;
                    prop_assert_eq!(
                        net.observed_cumulative_dist(agent).ticks(),
                        *sum,
                        "n = {}, faults {}, seed {}, round {}, agent {}",
                        n,
                        fault_kind,
                        seed,
                        round,
                        agent
                    );
                }
            }
        }
    }

    #[test]
    fn unobserved_rounds_keep_every_check() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids.clone(), Model::Basic)
            .unwrap()
            .with_round_limit(2);
        assert!(matches!(
            net.step_unobserved(&[LocalDirection::Right; 3]),
            Err(ProtocolError::LengthMismatch { got: 3, .. })
        ));
        let mut dirs = vec![LocalDirection::Right; 6];
        dirs[4] = LocalDirection::Idle;
        assert!(matches!(
            net.step_reversed(&dirs),
            Err(ProtocolError::IdleForbidden { agent: 4, .. })
        ));
        dirs[4] = LocalDirection::Left;
        net.step_unobserved(&dirs).unwrap();
        net.step_reversed(&dirs).unwrap();
        assert!(matches!(
            net.step_unobserved(&dirs),
            Err(ProtocolError::RoundLimitReached { limit: 2 })
        ));
        assert_eq!(net.rounds_used(), 2);
        assert!(net.ground_truth_at_initial_positions());

        // The lazy model may idle in unobserved rounds too.
        let mut lazy = Network::new(&config, ids, Model::Lazy).unwrap();
        dirs[4] = LocalDirection::Idle;
        lazy.step_unobserved(&dirs).unwrap();
        assert_eq!(lazy.rounds_used(), 1);
    }

    #[test]
    fn round_limit_turns_into_a_timeout_error() {
        let (config, ids) = network(Model::Basic);
        let mut net = Network::new(&config, ids, Model::Basic)
            .unwrap()
            .with_round_limit(2);
        let mut bufs = StepBuffers::new();
        let dirs = vec![LocalDirection::Right; 6];
        net.step_into(&dirs, &mut bufs).unwrap();
        net.step_into(&dirs, &mut bufs).unwrap();
        assert!(matches!(
            net.step_into(&dirs, &mut bufs),
            Err(ProtocolError::RoundLimitReached { limit: 2 })
        ));
        // The limit is checked before execution: the round count stays put.
        assert_eq!(net.rounds_used(), 2);
    }

    #[test]
    fn id_assignment_must_match_ring_size() {
        let (config, _) = network(Model::Basic);
        let short = IdAssignment::consecutive(4);
        assert!(matches!(
            Network::new(&config, short, Model::Basic),
            Err(ProtocolError::LengthMismatch { .. })
        ));
    }
}

//! Event-driven reference simulator.
//!
//! Simulates every collision of a round explicitly, in `f64` arithmetic.
//! Agents are points on the unit circle moving at speed 1 (or 0 when idle);
//! when two agents meet they exchange velocities, which covers all three
//! interaction cases of the model (bounce between two movers, motion
//! transfer onto an idle agent).
//!
//! The event engine is slower (`O(n)` work per event, up to `O(n²)` events
//! per round) and approximate (`f64`), so the protocol executor runs every
//! round — clean or faulty — on the exact
//! [`crate::analytic::AnalyticEngine`]. The event engine is the ground
//! truth the analytic shortcuts are tested against, idle rounds included,
//! and a tool for visualising full trajectories. Multi-round drivers reuse
//! one [`EventScratch`] across rounds via [`EventEngine::simulate_into`]
//! instead of paying the eight-vector allocation of
//! [`EventEngine::simulate`] per round.

use crate::config::RingConfig;
use crate::direction::ObjectiveDirection;
use serde::{Deserialize, Serialize};

/// A single collision between two agents.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CollisionEvent {
    /// Time within the round, in `[0, 1)`.
    pub time: f64,
    /// Position on the circle (fraction in `[0, 1)`).
    pub position: f64,
    /// The two agents involved (agent indices, not slots).
    pub agents: (usize, usize),
}

/// Full trajectory information for one simulated round.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trajectory {
    /// Final position (fraction of the circle) of each agent.
    pub final_positions: Vec<f64>,
    /// Clockwise displacement (fraction) of each agent over the round.
    pub cw_displacement: Vec<f64>,
    /// Path distance travelled by each agent until its first collision,
    /// `None` if the agent was never involved in a collision.
    pub first_collision: Vec<Option<f64>>,
    /// Every collision of the round, in chronological order.
    pub collisions: Vec<CollisionEvent>,
}

/// The event-driven engine.
#[derive(Clone, Copy, Debug)]
pub struct EventEngine {
    /// Safety bound on the number of processed events per round.
    pub max_events: usize,
}

impl Default for EventEngine {
    fn default() -> Self {
        EventEngine {
            max_events: 1 << 22,
        }
    }
}

/// Reusable scratch arena for [`EventEngine::simulate_into`].
///
/// Instead of allocating eight vectors per simulated round, multi-round
/// drivers (engine-agreement tests, the round-cost probe) hold one
/// `EventScratch` and reuse it — after the vectors reach the ring size, a
/// round performs no heap allocation beyond growth of the collision log.
#[derive(Clone, Debug, Default)]
pub struct EventScratch {
    /// Final position (fraction of the circle) of each agent, valid after
    /// a [`EventEngine::simulate_into`] call.
    pub final_positions: Vec<f64>,
    /// Clockwise displacement (fraction) of each agent over the round.
    pub cw_displacement: Vec<f64>,
    /// Path distance travelled by each agent until its first collision
    /// (`None` if never involved in one).
    pub first_collision: Vec<Option<f64>>,
    /// Every collision of the round, in chronological order.
    pub collisions: Vec<CollisionEvent>,
    agent_at_slot: Vec<usize>,
    pos: Vec<f64>,
    start_pos_of_agent: Vec<f64>,
    vel: Vec<f64>,
    travelled: Vec<f64>,
}

impl EventScratch {
    /// Creates an empty arena (vectors grow to the ring size on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the round's outputs out of the scratch as a [`Trajectory`],
    /// leaving empty output vectors behind.
    pub fn take_trajectory(&mut self) -> Trajectory {
        Trajectory {
            final_positions: std::mem::take(&mut self.final_positions),
            cw_displacement: std::mem::take(&mut self.cw_displacement),
            first_collision: std::mem::take(&mut self.first_collision),
            collisions: std::mem::take(&mut self.collisions),
        }
    }
}

/// Clears `vec` and refills it to `n` elements from `f` without
/// reallocating once capacity has been reached.
fn refill<T>(vec: &mut Vec<T>, n: usize, f: impl FnMut(usize) -> T) {
    vec.clear();
    vec.extend((0..n).map(f));
}

impl EventEngine {
    /// Creates an engine with the default event bound.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates one full round.
    ///
    /// * `config` — ground-truth configuration.
    /// * `slot_of_agent` — slot currently occupied by each agent.
    /// * `directions` — objective direction of each agent.
    ///
    /// # Panics
    ///
    /// Panics if the inputs have inconsistent lengths or if the event bound
    /// is exceeded (which would indicate a bug, as a round has at most
    /// `O(n²)` collisions).
    pub fn simulate(
        &self,
        config: &RingConfig,
        slot_of_agent: &[usize],
        directions: &[ObjectiveDirection],
    ) -> Trajectory {
        let mut scratch = EventScratch::new();
        self.simulate_into(config, slot_of_agent, directions, &mut scratch);
        scratch.take_trajectory()
    }

    /// Simulates one full round into a caller-owned [`EventScratch`] — the
    /// buffer-reusing variant of [`EventEngine::simulate`]. Outputs land in
    /// the scratch's public fields.
    ///
    /// # Panics
    ///
    /// Same as [`EventEngine::simulate`].
    pub fn simulate_into(
        &self,
        config: &RingConfig,
        slot_of_agent: &[usize],
        directions: &[ObjectiveDirection],
        scratch: &mut EventScratch,
    ) {
        let n = config.len();
        assert_eq!(slot_of_agent.len(), n);
        assert_eq!(directions.len(), n);

        // Ring order = slot order. `agent[k]` is the agent currently at the
        // k-th slot.
        refill(&mut scratch.agent_at_slot, n, |_| usize::MAX);
        for (agent, &slot) in slot_of_agent.iter().enumerate() {
            scratch.agent_at_slot[slot] = agent;
        }

        // State indexed by ring-order position k.
        refill(&mut scratch.pos, n, |k| config.position(k).as_fraction());
        refill(&mut scratch.start_pos_of_agent, n, |agent| {
            config.position(slot_of_agent[agent]).as_fraction()
        });
        refill(&mut scratch.vel, n, |k| {
            f64::from(directions[scratch.agent_at_slot[k]].velocity())
        });
        refill(&mut scratch.first_collision, n, |_| None);
        refill(&mut scratch.travelled, n, |_| 0.0);
        scratch.collisions.clear();
        let EventScratch {
            ref mut pos,
            ref mut vel,
            ref mut first_collision,
            ref mut travelled,
            ref mut collisions,
            ref agent_at_slot,
            ..
        } = *scratch;
        let agent = agent_at_slot;

        let mut t = 0.0f64;
        let mut events = 0usize;
        loop {
            // Find the earliest upcoming collision among adjacent pairs.
            let mut best: Option<(f64, usize)> = None;
            for k in 0..n {
                let j = (k + 1) % n;
                let closing = vel[k] - vel[j];
                if closing <= 0.0 {
                    continue;
                }
                let gap = (pos[j] - pos[k]).rem_euclid(1.0);
                let dt = gap / closing;
                if t + dt <= 1.0 + 1e-12 {
                    match best {
                        Some((bt, _)) if bt <= dt => {}
                        _ => best = Some((dt, k)),
                    }
                }
            }

            let Some((dt, k)) = best else { break };
            let j = (k + 1) % n;

            // Advance everyone to the collision time.
            for i in 0..n {
                pos[i] = (pos[i] + vel[i] * dt).rem_euclid(1.0);
                travelled[agent[i]] += vel[i].abs() * dt;
            }
            t += dt;

            // Record the collision for both participants.
            let (a, b) = (agent[k], agent[j]);
            let here = pos[k];
            collisions.push(CollisionEvent {
                time: t,
                position: here,
                agents: (a, b),
            });
            if first_collision[a].is_none() {
                first_collision[a] = Some(travelled[a]);
            }
            if first_collision[b].is_none() {
                first_collision[b] = Some(travelled[b]);
            }

            // Exchange velocities (covers bounce and motion transfer).
            vel.swap(k, j);

            events += 1;
            assert!(
                events <= self.max_events,
                "event bound exceeded: {events} events"
            );
        }

        // Advance to the end of the round.
        let dt = 1.0 - t;
        if dt > 0.0 {
            for i in 0..n {
                pos[i] = (pos[i] + vel[i] * dt).rem_euclid(1.0);
                travelled[agent[i]] += vel[i].abs() * dt;
            }
        }

        refill(&mut scratch.final_positions, n, |_| 0.0);
        for k in 0..n {
            scratch.final_positions[scratch.agent_at_slot[k]] = scratch.pos[k];
        }
        let EventScratch {
            ref mut cw_displacement,
            ref final_positions,
            ref start_pos_of_agent,
            ..
        } = *scratch;
        refill(cw_displacement, n, |a| {
            (final_positions[a] - start_pos_of_agent[a]).rem_euclid(1.0)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::AnalyticEngine;
    use crate::config::RingConfig;
    use crate::geometry::Point;
    use ObjectiveDirection::{Anticlockwise as A, Clockwise as C, Idle as I};

    fn config_with_positions(ticks: &[u64]) -> RingConfig {
        RingConfig::builder(ticks.len())
            .explicit_positions(ticks.iter().copied().map(Point::from_ticks))
            .build()
            .unwrap()
    }

    const EPS: f64 = 1e-9;

    #[test]
    fn all_clockwise_round_returns_everyone_to_start() {
        let config = RingConfig::builder(6).random_positions(3).build().unwrap();
        let slots: Vec<usize> = (0..6).collect();
        let traj = EventEngine::new().simulate(&config, &slots, &[C; 6]);
        for agent in 0..6 {
            assert!(traj.cw_displacement[agent] < EPS || traj.cw_displacement[agent] > 1.0 - EPS);
            assert!(traj.first_collision[agent].is_none());
        }
        assert!(traj.collisions.is_empty());
    }

    #[test]
    fn two_approaching_agents_collide_at_midpoint_distance() {
        // Positions 0.0 and 0.25 (in ticks); 0 moves clockwise, 1 anticlockwise.
        let quarter = crate::geometry::CIRCUMFERENCE / 4;
        let config =
            config_with_positions(&[0, quarter, quarter * 2, quarter * 2 + 10, quarter * 3]);
        let slots: Vec<usize> = (0..5).collect();
        let dirs = [C, A, C, C, C];
        let traj = EventEngine::new().simulate(&config, &slots, &dirs);
        // Agents 0 and 1 approach over a gap of 1/4: first collision after 1/8.
        assert!((traj.first_collision[0].unwrap() - 0.125).abs() < EPS);
        assert!((traj.first_collision[1].unwrap() - 0.125).abs() < EPS);
    }

    #[test]
    fn event_engine_matches_analytic_engine_on_mixed_round() {
        let config = RingConfig::builder(9).random_positions(17).build().unwrap();
        let slots: Vec<usize> = (0..9).collect();
        let dirs = [C, A, C, A, A, C, C, A, C];
        let analytic = AnalyticEngine::new().execute(config.positions(), 0, &dirs);
        let traj = EventEngine::new().simulate(&config, &slots, &dirs);
        for agent in 0..9 {
            let expected = analytic.cw_displacement[agent].as_fraction();
            let got = traj.cw_displacement[agent];
            let diff = (expected - got)
                .abs()
                .min((expected - got).abs() - 1.0)
                .abs();
            assert!(
                (expected - got).abs() < 1e-6 || (1.0 - (expected - got).abs()) < 1e-6,
                "agent {agent}: expected {expected}, got {got} (diff {diff})"
            );
            let expected_coll = analytic.first_collision[agent].unwrap().as_fraction();
            let got_coll = traj.first_collision[agent].unwrap();
            assert!(
                (expected_coll - got_coll).abs() < 1e-6,
                "agent {agent}: first collision expected {expected_coll}, got {got_coll}"
            );
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_simulation_round_for_round() {
        let config = RingConfig::builder(11)
            .random_positions(23)
            .build()
            .unwrap();
        let slots: Vec<usize> = (0..11).collect();
        let mut scratch = EventScratch::new();
        for round in 0..8u64 {
            let dirs: Vec<ObjectiveDirection> = (0..11)
                .map(|i| {
                    if (i as u64 + round).is_multiple_of(3) {
                        A
                    } else {
                        C
                    }
                })
                .collect();
            let fresh = EventEngine::new().simulate(&config, &slots, &dirs);
            EventEngine::new().simulate_into(&config, &slots, &dirs, &mut scratch);
            assert_eq!(scratch.final_positions, fresh.final_positions);
            assert_eq!(scratch.cw_displacement, fresh.cw_displacement);
            assert_eq!(scratch.first_collision, fresh.first_collision);
            assert_eq!(scratch.collisions, fresh.collisions);
        }
    }

    #[test]
    fn idle_agents_transfer_motion() {
        // One clockwise mover, everyone else idle: rotation index 1, and the
        // mover's first collision is with its clockwise neighbour at the full
        // gap distance (relative speed 1).
        let config = config_with_positions(&[0, 1000, 3000, 7000, 15000]);
        let slots: Vec<usize> = (0..5).collect();
        let dirs = [C, I, I, I, I];
        let traj = EventEngine::new().simulate(&config, &slots, &dirs);
        let gap01 = config.gap(0).as_fraction();
        assert!((traj.first_collision[0].unwrap() - gap01).abs() < EPS);
        // The idle neighbour is hit without having moved.
        assert!(traj.first_collision[1].unwrap().abs() < EPS);
        // Rotation index 1: every agent ends at its clockwise neighbour's slot.
        let analytic = AnalyticEngine::new().execute(config.positions(), 0, &dirs);
        assert_eq!(analytic.rotation.shift, 1);
        for agent in 0..5 {
            let expected = analytic.cw_displacement[agent].as_fraction();
            let got = traj.cw_displacement[agent];
            assert!(
                (expected - got).abs() < 1e-6 || (1.0 - (expected - got).abs()) < 1e-6,
                "agent {agent}: expected {expected}, got {got}"
            );
        }
    }
}

//! The analytic round engine.
//!
//! By the rotation-index lemma (Lemma 1) a round shifts **every** agent by
//! the same number `r` of slots. The agent → slot map of a ring is therefore
//! a single *rotation offset* `o` — agent `a` occupies slot `(a + o) mod n`
//! — and a round only advances it by `r`. The engine works in slot space,
//! where each per-round quantity is a linear pass over contiguous slices:
//!
//! * the rotation index comes from one mover-counting pass and one
//!   division;
//! * the displacement of the agent at slot `s` is
//!   `pos[s + r] − pos[s]` masked by `CIRCUMFERENCE − 1` (a power of two),
//!   computed over the two contiguous segments `s < n − r` and `s ≥ n − r`;
//! * first collisions (Proposition 4) come from two cyclic linear sweeps
//!   over the slot-ordered directions: the next anticlockwise mover ahead
//!   of each clockwise mover, and the previous clockwise mover behind each
//!   anticlockwise mover.
//!
//! There is no per-agent division, scatter or search; a round costs O(n)
//! with small constants. All arithmetic is exact (integer ticks). A round
//! whose observations nobody reads needs only the first pass:
//! [`crate::state::RingState::advance_unobserved`] shares its mover count
//! and skips the rest.
//!
//! Results are slot-ordered. Agents `0..n − o` occupy slots `o..n` and
//! agents `n − o..n` occupy slots `0..o`, so agent-order consumers (the
//! observation pass of [`crate::state::RingState`]) read two contiguous
//! segments.
//!
//! Rounds with idle agents — the lazy model, and every model under faults,
//! which force suppressed moves idle — get their first collisions from a
//! second pair of sweeps that also carries the nearest idle agent ahead of
//! each mover; rounds in which everybody moves keep the Proposition 4
//! sweeps above.

use crate::direction::ObjectiveDirection;
use crate::geometry::{ArcLength, Point, CIRCUMFERENCE};
use crate::rotation::{mover_counts, rotation_from_counts, RotationIndex};

/// Result of analytically executing one round, in agent order.
#[derive(Clone, Debug)]
pub struct AnalyticRound {
    /// Rotation index of the round.
    pub rotation: RotationIndex,
    /// For each *agent*, the objective clockwise distance between its start
    /// and end position (zero iff the rotation index is zero).
    pub cw_displacement: Vec<ArcLength>,
    /// For each *agent*, the distance travelled until its first collision,
    /// or `None` if the agent never collides.
    pub first_collision: Vec<Option<ArcLength>>,
    /// The rotation offset after the round: agent `a` ends at slot
    /// `(a + offset) mod n`.
    pub offset: usize,
}

/// Reusable scratch space for [`AnalyticEngine::execute_into`]: the
/// slot-ordered outputs of a round plus the slot-ordered directions, so a
/// multi-round driver performs **zero** heap allocation per round after
/// the first.
#[derive(Clone, Debug, Default)]
pub struct AnalyticScratch {
    /// Objective clockwise displacement of the agent at each slot.
    pub(crate) cw_displacement: Vec<ArcLength>,
    /// First-collision distance of the agent at each slot.
    pub(crate) first_collision: Vec<Option<ArcLength>>,
    /// Objective direction of the agent at each slot.
    dir_by_slot: Vec<ObjectiveDirection>,
}

impl AnalyticScratch {
    /// Creates empty scratch space (vectors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stateless analytic engine.
///
/// The engine is deliberately trivial to construct; it exists as a type so
/// that benchmarks can name it and so that alternative engines (the
/// event-driven one) can be swapped in behind the same [`crate::state::RingState`]
/// interface.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalyticEngine;

impl AnalyticEngine {
    /// Creates a new engine.
    pub fn new() -> Self {
        AnalyticEngine
    }

    /// Executes one round and returns its outputs in agent order.
    ///
    /// * `positions` — the initial slot positions, in clockwise order
    ///   ([`crate::config::RingConfig::positions`]).
    /// * `offset` — the current rotation offset: agent `a` occupies slot
    ///   `(a + offset) mod n`.
    /// * `directions` — the objective direction chosen by each agent.
    ///
    /// # Panics
    ///
    /// Panics if the slices have inconsistent lengths or `offset >= n`
    /// (the caller, [`crate::state::RingState`], validates its inputs).
    pub fn execute(
        &self,
        positions: &[Point],
        offset: usize,
        directions: &[ObjectiveDirection],
    ) -> AnalyticRound {
        let mut scratch = AnalyticScratch::new();
        let rotation = self.execute_into(positions, offset, directions, &mut scratch);
        // Agent `a` sits at slot `(a + offset) mod n`.
        let mut cw_displacement = scratch.cw_displacement;
        cw_displacement.rotate_left(offset);
        let mut first_collision = scratch.first_collision;
        first_collision.rotate_left(offset);
        AnalyticRound {
            rotation,
            cw_displacement,
            first_collision,
            offset: (offset + rotation.shift) % positions.len(),
        }
    }

    /// Executes one round into caller-owned scratch space, leaving the
    /// **slot-ordered** displacements and first collisions there — the
    /// zero-alloc core of [`AnalyticEngine::execute`]. After the scratch
    /// vectors have grown to the ring size once, subsequent calls allocate
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if the slices have inconsistent lengths or `offset >= n`.
    pub fn execute_into(
        &self,
        positions: &[Point],
        offset: usize,
        directions: &[ObjectiveDirection],
        scratch: &mut AnalyticScratch,
    ) -> RotationIndex {
        let n = positions.len();
        assert_eq!(directions.len(), n);
        assert!(
            offset < n,
            "rotation offset {offset} out of range for n = {n}"
        );

        let (n_c, n_a) = mover_counts(directions.iter().copied());
        let rotation = rotation_from_counts(n_c, n_a, n);
        let r = rotation.shift;

        // The agent at slot `s` ends at slot `s + r` (mod n): the slots
        // below `n − r` move without wrapping, the rest wrap to the front.
        let disp = &mut scratch.cw_displacement;
        disp.clear();
        disp.extend(pos_pairs(&positions[..n - r], &positions[r..]));
        disp.extend(pos_pairs(&positions[n - r..], &positions[..r]));

        scratch.first_collision.clear();
        let all_moving = n_c + n_a == n;
        if n_c + n_a == 0 || (all_moving && (n_c == 0 || n_a == 0)) {
            // Nobody moves, or everybody moves the same way: no collisions.
            scratch.first_collision.resize(n, None);
        } else {
            // Slot order: agents `n − o..n` sit at slots `0..o`, agents
            // `0..n − o` at slots `o..n`.
            let dir = &mut scratch.dir_by_slot;
            dir.clear();
            dir.extend_from_slice(&directions[n - offset..]);
            dir.extend_from_slice(&directions[..n - offset]);
            if all_moving {
                first_collisions(positions, dir, &mut scratch.first_collision);
            } else {
                first_collisions_with_idle(positions, dir, &mut scratch.first_collision);
            }
        }
        rotation
    }
}

/// Clockwise arc from each `from` position to the matching `to` position.
fn pos_pairs<'a>(from: &'a [Point], to: &'a [Point]) -> impl Iterator<Item = ArcLength> + 'a {
    from.iter().zip(to).map(|(&f, &t)| cw_arc(f, t))
}

/// Clockwise arc between two points; the circumference is a power of two,
/// so the reduction is a mask.
#[inline]
fn cw_arc(from: Point, to: Point) -> ArcLength {
    ArcLength::from_ticks(to.ticks().wrapping_sub(from.ticks()) & (CIRCUMFERENCE - 1))
}

/// Every slot's first-collision distance in an all-moving round with both
/// directions present (Proposition 4: an agent's first collision happens
/// after it has travelled half the arc separating it from the nearest agent
/// ahead of it — in its direction of travel — that moves the opposite way).
///
/// Two cyclic linear sweeps. The backward sweep carries the nearest
/// anticlockwise mover ahead and writes every slot; the forward sweep
/// carries the nearest clockwise mover behind and overwrites the
/// anticlockwise slots. Each sweep starts from the mover that wraps around
/// the slot-0 boundary.
fn first_collisions(
    positions: &[Point],
    dir: &[ObjectiveDirection],
    out: &mut Vec<Option<ArcLength>>,
) {
    use ObjectiveDirection::{Anticlockwise, Clockwise};

    let first_acw = dir.iter().position(|&d| d == Anticlockwise);
    let last_cw = dir.iter().rposition(|&d| d == Clockwise);
    let (Some(first_acw), Some(last_cw)) = (first_acw, last_cw) else {
        unreachable!("mixed round has movers in both directions");
    };

    out.resize(positions.len(), None);
    let mut ahead = positions[first_acw];
    for ((coll, &here), &d) in out.iter_mut().zip(positions).zip(dir).rev() {
        *coll = Some(cw_arc(here, ahead).half());
        ahead = if d == Anticlockwise { here } else { ahead };
    }

    let mut behind = positions[last_cw];
    for ((coll, &here), &d) in out.iter_mut().zip(positions).zip(dir) {
        // Selects rather than branches: directions are data-dependent.
        let acw = d == Anticlockwise;
        let from_behind = Some(cw_arc(behind, here).half());
        *coll = if acw { from_behind } else { *coll };
        behind = if acw { behind } else { here };
    }
}

/// Every slot's first-collision distance in a round with idle agents and
/// movers. Exchanging velocities looks the same as passing through, so
/// until its first collision each agent follows its own straight-line
/// "ghost" and collides when another ghost reaches it. A clockwise mover
/// meets the nearest anticlockwise mover ahead after half their arc and the
/// nearest idle agent ahead after the full arc, whichever comes first;
/// anticlockwise movers are the mirror image; an idle agent is hit before
/// it has moved at all.
///
/// Two cyclic linear sweeps, each carrying the nearest opposite mover and
/// the nearest idle agent in the direction of travel, started from the ones
/// that wrap around the slot-0 boundary.
fn first_collisions_with_idle(
    positions: &[Point],
    dir: &[ObjectiveDirection],
    out: &mut Vec<Option<ArcLength>>,
) {
    use ObjectiveDirection::{Anticlockwise, Clockwise, Idle};

    let first = |wanted| dir.iter().position(|&d| d == wanted).map(|s| positions[s]);
    let last = |wanted| dir.iter().rposition(|&d| d == wanted).map(|s| positions[s]);
    let (Some(first_idle), Some(last_idle)) = (first(Idle), last(Idle)) else {
        unreachable!("idle round has an idle agent");
    };

    out.resize(positions.len(), Some(ArcLength::ZERO));
    let (mut acw_ahead, mut idle_ahead) = (first(Anticlockwise), first_idle);
    for ((coll, &here), &d) in out.iter_mut().zip(positions).zip(dir).rev() {
        match d {
            Clockwise => {
                let to_idle = cw_arc(here, idle_ahead);
                *coll = Some(acw_ahead.map_or(to_idle, |p| to_idle.min(cw_arc(here, p).half())));
            }
            Anticlockwise => acw_ahead = Some(here),
            Idle => idle_ahead = here,
        }
    }

    let (mut cw_behind, mut idle_behind) = (last(Clockwise), last_idle);
    for ((coll, &here), &d) in out.iter_mut().zip(positions).zip(dir) {
        match d {
            Anticlockwise => {
                let from_idle = cw_arc(idle_behind, here);
                *coll =
                    Some(cw_behind.map_or(from_idle, |p| from_idle.min(cw_arc(p, here).half())));
            }
            Clockwise => cw_behind = Some(here),
            Idle => idle_behind = here,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RingConfig;
    use ObjectiveDirection::{Anticlockwise as A, Clockwise as C, Idle as I};

    fn config_with_positions(ticks: &[u64]) -> RingConfig {
        RingConfig::builder(ticks.len())
            .explicit_positions(ticks.iter().copied().map(Point::from_ticks))
            .build()
            .unwrap()
    }

    #[test]
    fn all_clockwise_round_has_no_collisions_and_no_displacement() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let round = AnalyticEngine::new().execute(config.positions(), 0, &[C; 5]);
        assert!(round.rotation.is_zero());
        assert!(round.cw_displacement.iter().all(|d| d.is_zero()));
        assert!(round.first_collision.iter().all(|c| c.is_none()));
        assert_eq!(round.offset, 0);
    }

    #[test]
    fn single_anticlockwise_agent_rotates_everyone() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let dirs = [C, C, C, C, A];
        let round = AnalyticEngine::new().execute(config.positions(), 0, &dirs);
        // r = (4 - 1) mod 5 = 3: agent a ends at slot a + 3.
        assert_eq!(round.rotation.shift, 3);
        assert_eq!(round.offset, 3);
        // Agent 0 ends at slot 3 (tick 400): displacement 400.
        assert_eq!(round.cw_displacement[0].ticks(), 400);
        // Agent 4 (tick 900) ends at slot 2 (tick 220): cw distance wraps.
        assert_eq!(
            round.cw_displacement[4].ticks(),
            config.cw_arc(4, 2).ticks()
        );
    }

    #[test]
    fn first_collision_matches_proposition_4() {
        // Agents at 0, 100, 220, 400, 900; agent 3 (tick 400) moves
        // anticlockwise, everyone else clockwise.
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let dirs = [C, C, C, A, C];
        let round = AnalyticEngine::new().execute(config.positions(), 0, &dirs);

        // Agent 0 moves clockwise; the nearest anticlockwise mover ahead is
        // at tick 400, so it collides after (400 - 0)/2 = 200.
        assert_eq!(round.first_collision[0].unwrap().ticks(), 200);
        // Agent 2 (tick 220) collides after (400 - 220)/2 = 90.
        assert_eq!(round.first_collision[2].unwrap().ticks(), 90);
        // Agent 3 moves anticlockwise; the nearest clockwise mover behind is
        // at tick 220, so it also collides after 90.
        assert_eq!(round.first_collision[3].unwrap().ticks(), 90);
        // Agent 4 (tick 900) moves clockwise; nearest anticlockwise mover
        // ahead (wrapping) is at tick 400: arc = (400 + CIRC - 900) mod CIRC.
        let expected = config.cw_arc(4, 3).half();
        assert_eq!(round.first_collision[4].unwrap(), expected);
    }

    #[test]
    fn idle_rounds_collide_with_the_nearest_idle_or_opposite_ghost() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let round = AnalyticEngine::new().execute(config.positions(), 0, &[C, I, I, I, I]);
        assert_eq!(round.rotation.shift, 1);
        assert_eq!(round.offset, 1);
        // The lone mover reaches the idle agent at tick 100 after the full
        // gap; every idle agent is hit before it has moved.
        assert_eq!(round.first_collision[0].unwrap().ticks(), 100);
        assert!(round.first_collision[1..]
            .iter()
            .all(|&c| c == Some(ArcLength::ZERO)));

        // Agent 0 (tick 0) moves clockwise towards idle agent 1 (tick 100,
        // full arc 100) and anticlockwise agent 2 (tick 220, half arc 110):
        // the idle agent is nearer. Agent 2 meets agent 0's ghost after
        // 110, before it reaches idle agent 1 (120). Agent 3 (tick 400)
        // moves clockwise with no anticlockwise mover ahead but agent 2
        // (wrapping), half arc (220 + C − 400) / 2, against idle agent 4 at
        // full arc 500. Agent 4 is idle.
        let round = AnalyticEngine::new().execute(config.positions(), 0, &[C, I, A, C, I]);
        assert_eq!(round.first_collision[0].unwrap().ticks(), 100);
        assert_eq!(round.first_collision[1], Some(ArcLength::ZERO));
        assert_eq!(round.first_collision[2].unwrap().ticks(), 110);
        assert_eq!(round.first_collision[3].unwrap().ticks(), 500);
        assert_eq!(round.first_collision[4], Some(ArcLength::ZERO));
    }

    #[test]
    fn all_idle_rounds_have_no_collisions() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        let round = AnalyticEngine::new().execute(config.positions(), 2, &[I; 5]);
        assert!(round.rotation.is_zero());
        assert!(round.first_collision.iter().all(|c| c.is_none()));
    }

    #[test]
    fn displacement_uses_current_slots_not_agent_ids() {
        let config = config_with_positions(&[0, 100, 220, 400, 900]);
        // Agents already rotated by 2: agent i occupies slot i + 2.
        let offset = 2;
        let dirs = [C, C, A, C, A];
        let round = AnalyticEngine::new().execute(config.positions(), offset, &dirs);
        assert_eq!(round.rotation.shift, 1);
        assert_eq!(round.offset, 3);
        for agent in 0..5 {
            let slot = (agent + offset) % 5;
            let expected = config.cw_arc(slot, (slot + 1) % 5);
            assert_eq!(round.cw_displacement[agent], expected);
        }
        // Agent 2 (slot 4, tick 900) moves anticlockwise; the nearest
        // clockwise mover behind is agent 1 at slot 3 (tick 400).
        assert_eq!(round.first_collision[2].unwrap().ticks(), 250);
        // Agent 3 (slot 0, tick 0) moves clockwise; the nearest
        // anticlockwise mover ahead is agent 4 at slot 1 (tick 100).
        assert_eq!(round.first_collision[3].unwrap().ticks(), 50);
    }
}

"""Theorem 4.8: lookAhead(execution state) = atomicMoveSeq(moves).

These tests drive the *real* simulator (timers, message delays, urgency)
through random and adversarial move sequences and check the central
correctness equation of §IV-C at settled points, at mid-flight points,
and via hypothesis-generated walks.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    VineStalk,
    atomic_move_seq,
    capture_snapshot,
    check_consistent,
    look_ahead,
)
from repro.hierarchy import grid_hierarchy
from repro.mobility import FixedPath


def run_walk(h, seq, partial_settle=None):
    """Execute a move sequence atomically; return final snapshot.

    With ``partial_settle`` the last move only runs that long (mid-flight).
    """
    system = VineStalk(h)
    evader = system.make_evader(FixedPath(seq), dwell=1e12, start=seq[0])
    system.run_to_quiescence()
    for index in range(1, len(seq)):
        evader.step()
        if index == len(seq) - 1 and partial_settle is not None:
            system.run(partial_settle)
        else:
            system.run_to_quiescence()
    return system


def walk_from_moves(h, start, moves):
    """Turn a list of direction indices into a valid region sequence."""
    seq = [start]
    tiling = h.tiling
    for m in moves:
        nbrs = tiling.neighbors(seq[-1])
        seq.append(nbrs[m % len(nbrs)])
    return seq


@pytest.fixture(scope="module")
def h():
    return grid_hierarchy(3, 2)


class TestSettledEquality:
    def test_single_move(self, h):
        seq = [(4, 4), (5, 4)]
        system = run_walk(h, seq)
        snap = capture_snapshot(system)
        assert check_consistent(snap, h, (5, 4)) == []
        assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()

    def test_oscillation(self, h):
        seq = [(4, 4)] + [(4, 5), (4, 4)] * 5
        system = run_walk(h, seq)
        snap = capture_snapshot(system)
        assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()

    def test_top_boundary_oscillation(self, h):
        # (2,4)/(3,4) straddle the level-1 block boundary.
        seq = [(2, 4)] + [(3, 4), (2, 4)] * 5
        system = run_walk(h, seq)
        snap = capture_snapshot(system)
        assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()

    def test_full_row_sweep(self, h):
        seq = [(c, 0) for c in range(9)]
        system = run_walk(h, seq)
        snap = capture_snapshot(system)
        assert check_consistent(snap, h, (8, 0)) == []
        assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()

    def test_diagonal_sweep(self, h):
        seq = [(i, i) for i in range(9)]
        system = run_walk(h, seq)
        snap = capture_snapshot(system)
        assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()


class TestMidFlightEquality:
    """lookAhead projects any mid-update state onto the atomic result."""

    @pytest.mark.parametrize("partial", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
    def test_lookahead_mid_flight(self, h, partial):
        seq = [(4, 4), (4, 5), (3, 5), (2, 5), (2, 4)]
        system = run_walk(h, seq, partial_settle=partial)
        snap = capture_snapshot(system)
        future = look_ahead(snap, h)
        assert (
            future.pointer_map() == atomic_move_seq(h, seq).pointer_map()
        ), f"divergence with partial settle {partial}"

    def test_lookahead_at_every_event_of_one_move(self, h):
        """Drain the move event by event; the equation holds at each step."""
        seq = [(4, 4), (3, 3)]
        system = VineStalk(h)
        evader = system.make_evader(FixedPath(seq), dwell=1e12, start=seq[0])
        system.run_to_quiescence()
        evader.step()
        want = atomic_move_seq(h, seq).pointer_map()
        steps = 0
        while system.sim.pending_events > 0:
            system.sim.run(max_events=1)
            steps += 1
            snap = capture_snapshot(system)
            assert look_ahead(snap, h).pointer_map() == want, f"event #{steps}"
        assert steps > 5  # the move really took multiple events


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    start=st.tuples(
        st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8)
    ),
    moves=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=12),
)
def test_theorem_4_8_random_walks(start, moves):
    h = grid_hierarchy(3, 2)
    seq = walk_from_moves(h, start, moves)
    system = run_walk(h, seq)
    snap = capture_snapshot(system)
    assert check_consistent(snap, h, seq[-1]) == []
    assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    moves=st.lists(st.integers(min_value=0, max_value=7), min_size=2, max_size=8),
    partial=st.floats(min_value=0.0, max_value=30.0),
)
def test_theorem_4_8_mid_flight_random(moves, partial):
    h = grid_hierarchy(3, 2)
    seq = walk_from_moves(h, (4, 4), moves)
    system = run_walk(h, seq, partial_settle=partial)
    snap = capture_snapshot(system)
    assert (
        look_ahead(snap, h).pointer_map()
        == atomic_move_seq(h, seq).pointer_map()
    )


def test_theorem_4_8_on_r2_hierarchy():
    """The equation is not grid-base specific."""
    h = grid_hierarchy(2, 3)
    rng = random.Random(11)
    seq = [(3, 3)]
    for _ in range(20):
        seq.append(rng.choice(h.tiling.neighbors(seq[-1])))
    system = run_walk(h, seq)
    snap = capture_snapshot(system)
    assert check_consistent(snap, h, seq[-1]) == []
    assert snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()

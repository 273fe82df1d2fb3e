"""Negative control: Eq. (1) is load-bearing — for the *work bounds*.

The timer constraint ``Σ[s−g] > (δ+e)n(l)`` lets a climbing grow reach
the old path (or a lateral neighbor) before the trailing shrink erases
it (Lemma 4.3).  Violating it does **not** corrupt the structure — the
Fig. 2 grow receipt re-arms the timer whenever it lands on an orphaned
process, so the path self-heals — but it destroys the dithering
optimization: every boundary oscillation loses the race and rebuilds the
path vertically, multiplying the move work.

These tests pin both facts: the violating schedule stays *correct* but
costs several times more; the valid schedule is cheap.
"""

import pytest

from repro.analysis import WorkAccountant
from repro.core import (
    TimerSchedule,
    TimerScheduleError,
    VineStalk,
    atomic_move_seq,
    capture_snapshot,
    check_consistent,
)
from repro.hierarchy import grid_hierarchy
from repro.mobility import FixedPath, worst_boundary_pair

BAD_SCHEDULE = TimerSchedule(
    g_values=(0.0, 0.0, 0.0), s_values=(0.01, 0.01, 0.01)
)


def run_oscillation(schedule):
    """8 boundary oscillations; returns (move work, spec equal, consistent)."""
    h = grid_hierarchy(2, 3)
    if schedule is not None:
        # Bypass construction-time validation to study the violation.
        original = TimerSchedule.validate
        TimerSchedule.validate = lambda self, params, delta, e: None
        try:
            system = VineStalk(h, schedule=schedule)
        finally:
            TimerSchedule.validate = original
    else:
        system = VineStalk(h)
    accountant = WorkAccountant().attach(system.cgcast)
    pair = worst_boundary_pair(h)
    evader = system.make_evader(
        FixedPath([pair[0]] + [pair[1], pair[0]] * 4), dwell=1e12, start=pair[0]
    )
    system.run_to_quiescence()
    base = accountant.epoch()
    seq = [pair[0]]
    for _ in range(8):
        evader.step()
        seq.append(evader.region)
        system.run_to_quiescence()
    snap = capture_snapshot(system)
    spec_equal = snap.pointer_map() == atomic_move_seq(h, seq).pointer_map()
    consistent = not check_consistent(snap, h, evader.region)
    return accountant.epoch().minus(base).move_work, spec_equal, consistent


def test_bad_schedule_is_rejected_by_validation():
    h = grid_hierarchy(2, 3)
    with pytest.raises(TimerScheduleError):
        BAD_SCHEDULE.validate(h.params, 1.0, 0.5)


def test_violation_multiplies_work_but_self_heals():
    bad_work, bad_equal, bad_consistent = run_oscillation(BAD_SCHEDULE)
    good_work, good_equal, good_consistent = run_oscillation(None)
    # Correctness self-heals either way (settled states match the spec)…
    assert bad_equal and bad_consistent
    assert good_equal and good_consistent
    # …but the violating schedule loses every grow-vs-shrink race and
    # rebuilds the path vertically: several times the work.
    assert bad_work > 4 * good_work

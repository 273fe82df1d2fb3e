"""Lemma 4.1 / 4.2 invariant tests over real executions.

The one checker is :class:`~repro.obs.conformance.ConformanceSampler`;
its negative controls live beside it in ``tests/obs/test_conformance.py``.
"""

import repro.obs as obs
from repro.analysis import run_invariant_watch
from repro.core import VineStalk
from repro.hierarchy import grid_hierarchy
from repro.mobility import BoundaryOscillator, RandomNeighborWalk, worst_boundary_pair
from repro.obs.conformance import MAX_RECORDED, grow_outstanding, shrink_outstanding


def test_lemma_4_1_random_walk():
    result = run_invariant_watch(3, 2, n_moves=30, seed=1)
    assert result.violations == 0
    assert result.max_grow_outstanding <= 1
    assert result.max_shrink_outstanding <= 1
    # the walk exercised the machinery
    assert result.max_grow_outstanding == 1
    assert result.max_shrink_outstanding == 1


def test_lemma_4_1_r2_deep_hierarchy():
    result = run_invariant_watch(2, 3, n_moves=25, seed=2)
    assert result.violations == 0
    assert result.max_grow_outstanding <= 1
    assert result.max_shrink_outstanding <= 1


def test_e3_counts_every_lemma_violation_and_only_those(monkeypatch):
    """E3's violation column counts past the sampler's record cap, and
    leaves Theorem 4.8 (E5's claim) out."""
    captured = []

    class Failing(obs.ConformanceSampler):
        def attach(self):
            captured.append(self)
            return super().attach()

        def check_now(self):
            super().check_now()
            self._violate("lemma-4.1-grow", "doctored")
            self._violate("theorem-4.8", "doctored")

    monkeypatch.setattr(obs, "ConformanceSampler", Failing)
    result = run_invariant_watch(2, 2, n_moves=5, seed=8)
    (sampler,) = captured
    checks = sampler.checks_run["lemma-4.1-grow"]
    assert checks > MAX_RECORDED
    assert len(sampler.violations) == MAX_RECORDED
    assert result.violations == checks


def test_lemma_4_2_one_lateral_per_level_per_move():
    """Boundary oscillation maximises laterals; still ≤ 1 per move/level."""
    h = grid_hierarchy(2, 3)
    system = VineStalk(h)
    a, b = worst_boundary_pair(h)
    evader = system.make_evader(BoundaryOscillator(a, b), dwell=1e12, start=a)
    with obs.observed():
        sampler = obs.ConformanceSampler(system, stride=1).attach()
        system.run_to_quiescence()
        for _ in range(12):
            evader.step()
            system.run_to_quiescence()
        sampler.detach()
    assert sampler.total_violations() == 0, sampler.violations
    assert sampler.checks_run["lemma-4.2"] >= 1  # laterals actually used


def test_monitor_counts_quiescent_state_as_zero():
    h = grid_hierarchy(2, 2)
    system = VineStalk(h)
    system.make_evader(RandomNeighborWalk(start=(0, 0)), dwell=1e12, start=(0, 0))
    system.run_to_quiescence()
    assert grow_outstanding(system) == 0
    assert shrink_outstanding(system) == 0

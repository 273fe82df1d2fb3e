"""Hypothesis property tests on the core data structures and models."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    atomic_move,
    atomic_move_seq,
    check_consistent,
    init_state,
    check_tracking_path,
    look_ahead,
)
from repro.hierarchy import grid_hierarchy

from ._path_oracles import (
    dense_check_consistent,
    dense_copy,
    lateral_link_count,
    laterals_per_level_ok,
)

H3 = grid_hierarchy(3, 2)
H2 = grid_hierarchy(2, 3)


def walk(h, start, moves):
    seq = [start]
    for m in moves:
        nbrs = h.tiling.neighbors(seq[-1])
        seq.append(nbrs[m % len(nbrs)])
    return seq


region3 = st.tuples(
    st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8)
)
region2 = st.tuples(
    st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
)
moves_list = st.lists(st.integers(min_value=0, max_value=7), max_size=25)
pointer_writes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.sampled_from(["c", "p", "nbrptup", "nbrptdown"]),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(start=region3, moves=moves_list)
def test_atomic_move_seq_always_consistent(start, moves):
    """Every atomicMoveSeq result is a consistent state (spec sanity)."""
    seq = walk(H3, start, moves)
    state = atomic_move_seq(H3, seq)
    assert check_consistent(state, H3, seq[-1]) == []


@settings(max_examples=60, deadline=None)
@given(start=region2, moves=moves_list)
def test_atomic_move_seq_consistent_r2(start, moves):
    seq = walk(H2, start, moves)
    state = atomic_move_seq(H2, seq)
    assert check_consistent(state, H2, seq[-1]) == []


@settings(max_examples=80, deadline=None)
@given(start=region3, moves=moves_list, writes=pointer_writes)
def test_sparse_checker_equals_dense(start, moves, writes):
    """An atomic state with arbitrary pointers written over it (off-path
    c/p, stray and missing secondaries): the checker that visits what the
    state touches reports what the every-cluster one does, in order."""
    seq = walk(H3, start, moves)
    state = atomic_move_seq(H3, seq)
    clusters = H3.all_clusters()
    for at, name, pick in writes:
        clust = clusters[at % len(clusters)]
        domain = [None, clust, *H3.nbrs(clust), *H3.children(clust)]
        if H3.parent(clust) is not None:
            domain.append(H3.parent(clust))
        setattr(state.pointers[clust], name, domain[pick % len(domain)])
    for projected in (state, look_ahead(state, H3, strict=False)):
        assert check_consistent(projected, H3, seq[-1]) == dense_check_consistent(
            dense_copy(projected, H3), H3, seq[-1]
        )


@settings(max_examples=50, deadline=None)
@given(start=region3, moves=moves_list)
def test_lookahead_is_identity_on_consistent_states(start, moves):
    """lookAhead fixes every consistent state (the Lemma 4.7 base case)."""
    seq = walk(H3, start, moves)
    state = atomic_move_seq(H3, seq)
    assert look_ahead(state, H3).pointer_map() == state.pointer_map()


@settings(max_examples=50, deadline=None)
@given(start=region3, moves=moves_list)
def test_lookahead_is_idempotent(start, moves):
    seq = walk(H3, start, moves)
    state = atomic_move_seq(H3, seq)
    once = look_ahead(state, H3)
    twice = look_ahead(once, H3)
    assert once.pointer_map() == twice.pointer_map()


@settings(max_examples=50, deadline=None)
@given(start=region3, moves=moves_list)
def test_at_most_one_lateral_per_level(start, moves):
    """Path structure invariant: ≤ 1 lateral link per level (§IV-B)."""
    seq = walk(H3, start, moves)
    state = atomic_move_seq(H3, seq)
    path, problems = check_tracking_path(state, H3, seq[-1])
    assert problems == []
    assert laterals_per_level_ok(state, H3, path)


@settings(max_examples=50, deadline=None)
@given(start=region3, moves=moves_list)
def test_path_length_bounded(start, moves):
    """A path has at most 2 clusters per level (one lateral pair)."""
    seq = walk(H3, start, moves)
    state = atomic_move_seq(H3, seq)
    path, _ = check_tracking_path(state, H3, seq[-1])
    per_level = {}
    for cluster in path:
        per_level[cluster.level] = per_level.get(cluster.level, 0) + 1
    assert all(count <= 2 for count in per_level.values())
    assert lateral_link_count(state, H3, path) <= H3.max_level


@settings(max_examples=40, deadline=None)
@given(start=region3, moves=moves_list)
def test_move_then_move_back_restores_pointers(start, moves):
    """atomicMove is 'undone' by moving straight back (same terminus).

    Not literal state equality — the junction may differ — but a second
    out-and-back is idempotent: the state after (A B A) equals the state
    after (A B A B A)."""
    seq = walk(H3, start, moves)
    last = seq[-1]
    nbr = H3.tiling.neighbors(last)[0]
    once = atomic_move_seq(H3, seq + [nbr, last])
    twice = atomic_move_seq(H3, seq + [nbr, last, nbr, last])
    assert once.pointer_map() == twice.pointer_map()


@settings(max_examples=40, deadline=None)
@given(region=region3)
def test_init_state_matches_single_element_seq(region):
    assert (
        init_state(H3, region).pointer_map()
        == atomic_move_seq(H3, [region]).pointer_map()
    )


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    start=region3,
    moves=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=10),
    data=st.data(),
)
def test_atomic_move_is_incremental(start, moves, data):
    """atomicMoveSeq(prefix) then atomicMove(last) == atomicMoveSeq(all)."""
    seq = walk(H3, start, moves)
    prefix_state = atomic_move_seq(H3, seq[:-1])
    stepped = atomic_move(H3, prefix_state, seq[-1])
    assert stepped.pointer_map() == atomic_move_seq(H3, seq).pointer_map()

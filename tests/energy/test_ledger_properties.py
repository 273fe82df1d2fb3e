"""Hypothesis properties for the per-region energy ledger.

The ledger's correctness contract (DESIGN.md §11) is conservation —
the per-region maps and the per-channel accumulators are two
decompositions of the same total — plus shard-mergeability:
:func:`~repro.energy.merge_energy` over any partition of the charge
stream, merged in any order, equals the serial ledger.  Costs are drawn
as **integers** (and the model's unit costs are integer-valued floats)
so float addition is exact and equality assertions are legitimate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy import EnergyLedger, EnergyModel, merge_energy
from repro.geocast.cgcast import SendRecord

#: Integer-valued costs keep every float sum exact.
MODEL = EnergyModel(
    tx_cost=2.0, rx_cost=1.0, idle_cost=0.0, sense_cost=3.0, budget=None
)

regions = st.integers(min_value=0, max_value=5)

charges = st.lists(
    st.one_of(
        st.tuples(st.just("send"), regions, regions,
                  st.integers(min_value=1, max_value=9)),
        st.tuples(st.just("vb_tx"), regions),
        st.tuples(st.just("vb_rx"), regions),
        st.tuples(st.just("sense"), regions),
    ),
    max_size=40,
)


def _apply(ledger, op):
    if op[0] == "send":
        cost = float(op[3])
        ledger.observe_send([SendRecord(0.0, op[1], op[2], None, cost, cost)])
    elif op[0] == "vb_tx":
        ledger.charge_vbcast(op[1])
    elif op[0] == "vb_rx":
        ledger.charge_vbcast_rx(op[1])
    else:
        ledger.charge_sense(op[1])


def _ledger(ops):
    # Region endpoints are plain ints, so region_of never consults the
    # hierarchy — None suffices.
    ledger = EnergyLedger(MODEL, hierarchy=None)
    for op in ops:
        _apply(ledger, op)
    return ledger


@settings(max_examples=80, deadline=None)
@given(charges)
def test_conservation(ops):
    """sum(tx)+sum(rx)+sum(sense) == dispatch + vbcast + sense energy."""
    ledger = _ledger(ops)
    by_region = (
        sum(ledger.tx.values())
        + sum(ledger.rx.values())
        + sum(ledger.sense.values())
    )
    by_channel = (
        ledger.dispatch_energy + ledger.vbcast_energy + ledger.sense_energy
    )
    assert by_region == by_channel == ledger.total_charged()
    payload = ledger.as_dict()
    assert payload["totals"]["total"] == by_region
    assert sum(
        entry["total"] for entry in payload["per_region"].values()
    ) == by_region


@settings(max_examples=80, deadline=None)
@given(charges, st.integers(min_value=1, max_value=4))
def test_sharded_merge_equals_serial(ops, k):
    """Any K-partition of the charge stream merges to the serial ledger."""
    serial = _ledger(ops).as_dict()
    shards = [
        _ledger(ops[shard::k]).as_dict() for shard in range(k)
    ]
    assert merge_energy(shards) == serial
    # Commutativity: merge order is irrelevant.
    assert merge_energy(reversed(shards)) == serial
    # Associativity: a two-level merge tree gives the same payload
    # (merge output has the as_dict shape, so it re-merges).
    left = merge_energy(shards[: k // 2 + 1])
    right = merge_energy(shards[k // 2 + 1 :])
    assert merge_energy(p for p in (left, right) if p is not None) == serial


def test_merge_empty_and_none():
    assert merge_energy([]) is None
    assert merge_energy([None, None]) is None
    one = _ledger([("sense", 3)]).as_dict()
    assert merge_energy([None, one, None]) == one


@settings(max_examples=40, deadline=None)
@given(charges)
def test_max_region_charge_is_hottest_region(ops):
    ledger = _ledger(ops)
    touched = set(ledger.tx) | set(ledger.rx) | set(ledger.sense)
    if not touched:
        assert ledger.max_region_charge() == 0.0
    else:
        assert ledger.max_region_charge() == max(
            ledger.region_charge(r) for r in touched
        )

"""Unit tests for the RNG streams."""

from repro.sim import RngRegistry


class TestRng:
    def test_same_seed_same_draws(self):
        a = RngRegistry(seed=7).stream("mobility")
        b = RngRegistry(seed=7).stream("mobility")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_are_independent(self):
        reg = RngRegistry(seed=7)
        first = [reg.stream("a").random() for _ in range(5)]
        reg2 = RngRegistry(seed=7)
        reg2.stream("b").random()  # interleave a draw on another stream
        second = [reg2.stream("a").random() for _ in range(5)]
        assert first == second

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("x")
        b = RngRegistry(seed=2).stream("x")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_names(self):
        reg = RngRegistry()
        reg.stream("b")
        reg.stream("a")
        assert reg.names() == ["a", "b"]

"""Rank-based and uniform sampling policies."""

import random
from collections import Counter

import pytest

from conftest import make_solution
from llmevolve.selection import (
    rank_sample,
    sample_inspirations,
    uniform_sample,
)


def population(fitnesses):
    return [make_solution(f"s{i}", f, epoch=i) for i, f in enumerate(fitnesses)]


class StubRng:
    """Returns the given values from ``random()`` in turn."""

    def __init__(self, *values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestRankDistribution:
    """The weights ``rank_sample`` draws with, read through a stub RNG."""

    def test_three_member_probabilities(self):
        # Ranks 1..3 get 6/11, 3/11 and 2/11 of the unit interval, in that order.
        pop = population([0.1, 0.9, 0.5])
        eps = 1e-12
        draws = {
            0.0: "s1",
            6 / 11 - eps: "s1",
            6 / 11 + eps: "s2",
            9 / 11 - eps: "s2",
            9 / 11 + eps: "s0",
            1 - eps: "s0",
        }
        for u, expected in draws.items():
            assert rank_sample(pop, StubRng(u)) == expected

    def test_ties_ordered_oldest_first(self):
        pop = [
            make_solution("young", 0.5, epoch=9),
            make_solution("old", 0.5, epoch=1),
        ]
        assert rank_sample(pop, StubRng(2 / 3 - 1e-12)) == "old"
        assert rank_sample(pop, StubRng(2 / 3 + 1e-12)) == "young"

    def test_empty_population_raises(self):
        with pytest.raises(ValueError):
            rank_sample([], StubRng(0.5))


class TestRankSample:
    def test_singleton_always_selected(self):
        pop = population([0.4])
        rng = random.Random(0)
        assert all(rank_sample(pop, rng) == "s0" for _ in range(50))

    def test_empirical_frequencies_match_rank_weights(self):
        pop = population([0.9, 0.5, 0.1])
        rng = random.Random(123)
        counts = Counter(rank_sample(pop, rng) for _ in range(100_000))
        for sid, expected in (("s0", 6 / 11), ("s1", 3 / 11), ("s2", 2 / 11)):
            assert counts[sid] / 100_000 == pytest.approx(expected, abs=0.01)

    def test_never_returns_foreign_id(self):
        pop = population([0.2, 0.8, 0.5, 0.1])
        ids = {s.id for s in pop}
        rng = random.Random(5)
        assert all(rank_sample(pop, rng) in ids for _ in range(500))

    def test_reproducible_with_same_seed(self):
        pop = population([0.2, 0.8, 0.5])
        a = [rank_sample(pop, random.Random(42)) for _ in range(1)]
        b = [rank_sample(pop, random.Random(42)) for _ in range(1)]
        assert a == b


class TestUniformSample:
    def test_singleton(self):
        assert uniform_sample(population([0.3]), random.Random(0)) == "s0"

    def test_two_members_balanced(self):
        pop = population([0.1, 0.9])
        rng = random.Random(7)
        counts = Counter(uniform_sample(pop, rng) for _ in range(100_000))
        assert counts["s0"] / 100_000 == pytest.approx(0.5, abs=0.01)
        assert counts["s1"] / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            uniform_sample([], random.Random(0))


class TestSampleInspirations:
    def test_clamped_to_available(self):
        pop = population([0.2, 0.8])
        got = sample_inspirations(pop, "s0", 3, "rank", random.Random(0))
        assert got == ["s1"]

    def test_count_zero_is_empty(self):
        pop = population([0.2, 0.8, 0.5])
        assert sample_inspirations(pop, "s0", 0, "rank", random.Random(0)) == []

    @pytest.mark.parametrize("mode", ["rank", "uniform"])
    def test_distinct_and_never_excluded(self, mode):
        pop = population([i / 10 for i in range(10)])
        rng = random.Random(99)
        for _ in range(1000):
            got = sample_inspirations(pop, "s4", 3, mode, rng)
            assert len(got) == 3
            assert len(set(got)) == 3
            assert "s4" not in got

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            sample_inspirations(population([0.1, 0.2]), "s0", 1, "roulette", random.Random(0))

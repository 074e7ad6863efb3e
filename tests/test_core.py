"""Island state: lineage queries, population control, random streams."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_solution
from llmevolve.core import (
    STATUS_PENDING,
    STATUS_VALID,
    IslandState,
    Solution,
    derive_rng,
    ranked,
)


def make_island(capacity=40):
    return IslandState(0, capacity, master_seed=0)


STREAMS = ("coin", "select", "model")


@pytest.mark.parametrize("seed", [0, 7, -3, 2**63 - 1])
def test_an_islands_streams_draw_what_their_derivation_draws(seed):
    for island_id in (0, 4):
        island = IslandState(island_id, 40, seed)
        for name in STREAMS:
            expected = derive_rng(seed, island_id, name)
            stream = getattr(island, f"{name}_rng")
            assert [stream.random() for _ in range(5)] == [expected.random() for _ in range(5)]


def test_two_islands_and_three_streams_all_differ():
    islands = [IslandState(i, 40, master_seed=7) for i in range(2)]
    draws = {
        (island.id, name): tuple(getattr(island, f"{name}_rng").random() for _ in range(3))
        for island in islands
        for name in STREAMS
    }
    assert len(set(draws.values())) == len(draws)


def test_a_stream_pickles_small_and_its_copy_draws_alike():
    stream = derive_rng(7, 3, "select")
    for _ in range(1000):
        stream.random()
    stream.gauss(0.0, 1.0)  # leaves the second value of its pair pending
    payload = pickle.dumps(stream)
    # A ``random.Random`` pickles its state as a tuple of 625 ints: 3,799 bytes here.
    assert len(payload) < 2700
    copy = pickle.loads(payload)
    assert type(copy) is type(stream)
    plain = random.Random()
    plain.setstate(stream.getstate())

    def draws(rng):
        return rng.gauss(0.0, 1.0), rng.random(), rng.getrandbits(64), rng.randrange(10**30), rng.sample(range(99), 5)

    assert draws(copy) == draws(stream) == draws(plain)


def test_ranked_orders_by_fitness_then_age_then_id():
    sols = [
        make_solution("b", 0.5, epoch=3),
        make_solution("c", 0.9, epoch=7),
        make_solution("a", 0.5, epoch=3),
        make_solution("d", 0.5, epoch=1),
        make_solution("e", 0.1, epoch=0),
    ]
    assert [s.id for s in ranked(sols)] == ["c", "d", "a", "b", "e"]
    assert [s.id for s in ranked(reversed(sols))] == ["c", "d", "a", "b", "e"]


class TestAncestors:
    def _chain(self, island):
        root = make_solution("r", 0.1)
        a = make_solution("a", 0.2, parent="r")
        b = make_solution("b", 0.3, parent="a")
        for sol in (root, a, b):
            island.try_insert(sol)
        return root, a, b

    def test_root_has_no_ancestors(self):
        island = make_island()
        island.try_insert(make_solution("r", 0.5))
        assert island.ancestors("r", None) == []

    def test_nearest_ancestor_with_depth_one(self):
        island = make_island()
        self._chain(island)
        assert [s.id for s in island.ancestors("b", 1)] == ["a"]

    def test_unlimited_depth_walks_to_root(self):
        island = make_island()
        self._chain(island)
        assert [s.id for s in island.ancestors("b", None)] == ["a", "r"]

    def test_unknown_id_raises(self):
        island = make_island()
        with pytest.raises(KeyError):
            island.ancestors("nope", None)

    def test_evicted_ancestors_stay_resolvable(self):
        island = make_island(capacity=2)
        root = make_solution("r", 0.1)
        child = make_solution("a", 0.2, parent="r")
        island.try_insert(root)
        island.try_insert(child)
        # Evicts the root, which must stay reachable through the archive.
        result = island.try_insert(make_solution("c", 0.9, parent="a"))
        assert result.outcome == "inserted_with_eviction"
        assert "r" in island.archive and "r" not in island.solutions
        assert [s.id for s in island.ancestors("c", None)] == ["a", "r"]


class TestTryInsert:
    def test_below_capacity_inserts_even_zero_fitness(self):
        island = make_island(capacity=40)
        for i in range(39):
            island.try_insert(make_solution(f"s{i}", 0.5))
        assert island.try_insert(make_solution("z", 0.0)).outcome == "inserted"

    def test_strict_improvement_inserts_with_eviction(self):
        island = make_island(capacity=3)
        for i, f in enumerate([0.3, 0.5, 0.7]):
            island.try_insert(make_solution(f"s{i}", f))
        result = island.try_insert(make_solution("new", 0.31))
        assert result.outcome == "inserted_with_eviction"
        assert "s0" in island.archive and "s0" not in island.solutions

    def test_equal_fitness_is_rejected(self):
        island = make_island(capacity=3)
        for i, f in enumerate([0.3, 0.5, 0.7, 0.6]):  # the fourth evicts s0
            island.try_insert(make_solution(f"s{i}", f))
        archive = dict(island.archive)
        result = island.try_insert(make_solution("new", 0.5))
        assert result.outcome == "rejected"
        # A rejected candidate is not kept: the archive is unchanged.
        assert island.archive == archive == {"s0": island.lookup("s0")}
        with pytest.raises(KeyError):
            island.lookup("new")

    def test_eviction_tie_breaks_to_oldest(self):
        island = make_island(capacity=2)
        island.try_insert(make_solution("young", 0.3, epoch=5))
        island.try_insert(make_solution("old", 0.3, epoch=1))
        result = island.try_insert(make_solution("new", 0.4))
        assert "old" in island.archive and "old" not in island.solutions

    def test_pending_candidate_rejected(self):
        island = make_island()
        sol = make_solution("p", 0.1)
        sol.status = STATUS_PENDING
        with pytest.raises(ValueError):
            island.try_insert(sol)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 50)),
        max_size=60,
    ),
    st.integers(1, 8),
)
def test_insert_sequences_match_brute_force(entries, capacity):
    """Live set always within capacity and equal to an independent replay."""
    island = IslandState(0, capacity, master_seed=0)
    reference: list[tuple[str, float, int]] = []
    for n, (fitness, epoch) in enumerate(entries):
        sid = f"s{n:03d}"
        island.try_insert(make_solution(sid, fitness, epoch=epoch))
        # Brute-force restatement of the rule.
        if len(reference) < capacity:
            reference.append((sid, fitness, epoch))
        else:
            worst = min(reference, key=lambda t: (t[1], t[2], t[0]))
            if fitness > worst[1]:
                reference.remove(worst)
                reference.append((sid, fitness, epoch))
        assert len(island.solutions) <= capacity
        assert set(island.solutions) == {sid for sid, _, _ in reference}


def test_forest_acyclicity_check_passes_after_mutations():
    island = make_island(capacity=4)
    island.try_insert(make_solution("r", 0.1))
    island.try_insert(make_solution("a", 0.2, parent="r"))
    island.try_insert(make_solution("b", 0.5, parent="a"))
    island.try_insert(make_solution("c", 0.6, parent="b"))
    island.try_insert(make_solution("d", 0.7, parent="c"))
    for sol in island.all_solutions():  # every chain is finite and ends at a root
        chain = island.ancestors(sol.id)
        assert (chain[-1] if chain else sol).parent_id is None


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 5)),
        max_size=60,
    ),
    st.integers(1, 6),
)
def test_prune_keeps_exactly_the_live_lineage(entries, capacity):
    """After random inserts, ``prune`` changes no live solution's ancestors and
    keeps only their archived ancestors. Before it, the island holds exactly
    the candidates that were not rejected."""
    island = make_island(capacity=capacity)
    taken = set()
    for n, (fitness, pick) in enumerate(entries):
        live = sorted(island.solutions)
        parent = live[pick % len(live)] if live else None
        if island.try_insert(make_solution(f"s{n:03d}", fitness, parent=parent)).outcome != "rejected":
            taken.add(f"s{n:03d}")
    assert set(island.solutions) | set(island.archive) == taken
    before = {sid: [s.id for s in island.ancestors(sid)] for sid in island.solutions}
    island.prune()
    assert {sid: [s.id for s in island.ancestors(sid)] for sid in island.solutions} == before
    assert set(island.archive) == {a for chain in before.values() for a in chain} - set(island.solutions)

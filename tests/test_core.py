"""Island state: lineage queries, population control."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_solution
from llmevolve.core import (
    STATUS_PENDING,
    STATUS_VALID,
    IslandState,
    Prompt,
    Solution,
    UnknownIdError,
)


def make_island(capacity=40):
    island = IslandState(0, capacity=capacity)
    island.add_prompt(Prompt(id="i0-p00000", text="solve it", island_id=0))
    return island


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
        with pytest.raises(UnknownIdError):
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
        assert result.evicted_id == "r"
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
        assert result.evicted_id == "s0"

    def test_equal_fitness_is_rejected(self):
        island = make_island(capacity=3)
        for i, f in enumerate([0.3, 0.5, 0.7]):
            island.try_insert(make_solution(f"s{i}", f))
        result = island.try_insert(make_solution("new", 0.3))
        assert result.outcome == "rejected"
        assert "new" in island.archive

    def test_eviction_tie_breaks_to_oldest(self):
        island = make_island(capacity=2)
        island.try_insert(make_solution("young", 0.3, epoch=5))
        island.try_insert(make_solution("old", 0.3, epoch=1))
        result = island.try_insert(make_solution("new", 0.4))
        assert result.evicted_id == "old"

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
    island = IslandState(0, capacity=capacity)
    reference: list[tuple[str, float, int]] = []
    for n, (fitness, epoch) in enumerate(entries):
        sid = f"s{n:03d}"
        island.try_insert(make_solution(sid, fitness, epoch=epoch, prompt=None))
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
    island.check_forest()

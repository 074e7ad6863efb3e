"""Exploit/explore steps, crossover gating, island initialization."""

import random
import threading

import pytest

from conftest import fenced, make_solution, standard_config
from llmevolve.config import AblationToggles
from llmevolve.core import (
    STATUS_GENERATION_FAILED,
    STATUS_PENDING,
    IslandState,
    Prompt,
)
from llmevolve.llm import ReplayBackend
from llmevolve.operators import (
    OP_EXPLOIT,
    OP_EXPLORE,
    IslandRngs,
    evolve_step,
    initialize_island,
)
from llmevolve.problems import get_problem


def rngs(seed=0):
    return IslandRngs(
        coin=random.Random(seed),
        select=random.Random(seed + 1),
        model=random.Random(seed + 2),
    )


def seeded_island(fitnesses=(0.1, 0.5, 0.9), capacity=40):
    island = IslandState(0, capacity=capacity)
    island.add_prompt(Prompt(id="i0-p00000", text="initial prompt", island_id=0))
    island._prompt_counter = 1
    for i, f in enumerate(fitnesses):
        sol = make_solution(f"i0-s{i:05d}", f, epoch=0)
        sol.code = f"print({i})\n"
        island.try_insert(sol)
    island._solution_counter = len(fitnesses)
    return island


def scripted_backend(*responses, island=0):
    return ReplayBackend({(island, i): r for i, r in enumerate(responses)})


class TestEvolveStep:
    def test_p_explore_zero_always_exploits(self):
        config = standard_config(p_explore=0.0)
        for seed in range(10):
            island = seeded_island()
            backend = scripted_backend(fenced("print('new')\n"))
            outcome = evolve_step(island, config, backend, rngs(seed), 1)
            assert outcome.operator == OP_EXPLOIT
            assert list(island.prompts) == ["i0-p00000"]

    def test_p_explore_one_always_explores_with_prompt(self):
        config = standard_config(p_explore=1.0)
        for seed in range(10):
            island = seeded_island()
            backend = scripted_backend("enriched prompt", fenced("print('new')\n"))
            outcome = evolve_step(island, config, backend, rngs(seed), 1)
            assert outcome.operator == OP_EXPLORE
            new_prompt = island.lookup_prompt(outcome.new_solution.parent_prompt_id)
            assert new_prompt.id != "i0-p00000"
            assert new_prompt.parent_solution_id == outcome.new_solution.parent_id

    def test_exploit_applies_scripted_block_edit(self):
        config = standard_config(p_explore=0.0)
        island = seeded_island(fitnesses=(0.9,))
        response = "<<<<<<< SEARCH\nprint(0)\n=======\nprint(42)\n>>>>>>> REPLACE"
        backend = scripted_backend(response)
        outcome = evolve_step(island, config, backend, rngs(), 1)
        assert outcome.new_solution.code == "print(42)\n"
        assert outcome.new_solution.status == STATUS_PENDING
        assert outcome.new_solution.parent_id == "i0-s00000"

    def test_failed_diff_becomes_generation_failure(self):
        config = standard_config(p_explore=0.0)
        island = seeded_island(fitnesses=(0.9,))
        response = "<<<<<<< SEARCH\nnot in the code\n=======\nx\n>>>>>>> REPLACE"
        backend = scripted_backend(response)
        outcome = evolve_step(island, config, backend, rngs(), 1)
        assert outcome.new_solution.status == STATUS_GENERATION_FAILED
        assert "generation failed" in outcome.new_solution.feedback

    def test_no_inspirations_before_gating(self):
        config = standard_config(p_explore=0.0)
        island = seeded_island()
        backend = scripted_backend(fenced("print('x')\n"))
        outcome = evolve_step(island, config, backend, rngs(), config.migration_every)
        assert outcome.inspiration_ids == []

    def test_inspirations_present_when_gated_on(self):
        config = standard_config(p_explore=0.0, num_inspirations=3)
        island = seeded_island(fitnesses=(0.1, 0.3, 0.5, 0.7, 0.9))
        backend = scripted_backend(fenced("print('x')\n"))
        outcome = evolve_step(island, config, backend, rngs(), config.migration_every + 1)
        assert len(outcome.inspiration_ids) == 3
        assert outcome.new_solution.parent_id not in outcome.inspiration_ids

    @pytest.mark.parametrize(
        "overrides",
        [{"num_islands": 1}, {"ablation": AblationToggles(inspirations=False)}],
        ids=["one_island", "inspirations_off"],
    )
    def test_no_inspirations_where_the_config_rules_them_out(self, overrides):
        config = standard_config(p_explore=0.0, num_inspirations=3, **overrides)
        island = seeded_island(fitnesses=(0.1, 0.3, 0.5, 0.7, 0.9))
        backend = scripted_backend(fenced("print('x')\n"))
        outcome = evolve_step(island, config, backend, rngs(), config.migration_every + 1)
        assert outcome.inspiration_ids == []

    def test_meta_prompting_off_never_explores(self):
        config = standard_config(
            p_explore=1.0, ablation=AblationToggles(meta_prompting=False)
        )
        island = seeded_island()
        backend = scripted_backend(fenced("print('x')\n"))
        outcome = evolve_step(island, config, backend, rngs(), 1)
        assert outcome.operator == OP_EXPLOIT

    def test_explore_fraction_matches_p_explore(self):
        """Coin statistics over many simulated steps."""
        config = standard_config(p_explore=0.3)
        coin = random.Random(404)
        explored = sum(
            1 for _ in range(10_000) if coin.random() >= 1.0 - config.p_explore
        )
        assert explored / 10_000 == pytest.approx(0.3, abs=0.01)

    def test_explore_fraction_through_evolve_step(self):
        config = standard_config(p_explore=0.3)
        r = rngs(2024)
        explored = 0
        trials = 2000
        island = seeded_island()
        for i in range(trials):
            backend = ReplayBackend(
                {(0, 0): "a prompt", (0, 1): fenced("print('x')\n")}
            )
            outcome = evolve_step(island, config, backend, r, 1)
            if outcome.operator == OP_EXPLORE:
                explored += 1
            # Keep the island from growing unboundedly with explore prompts.
            island.prompts = {"i0-p00000": island.prompts["i0-p00000"]}
        assert explored / trials == pytest.approx(0.3, abs=0.025)


class TestInitializeIsland:
    def test_six_scripted_programs_become_six_roots(self):
        config = standard_config(init_population=6)
        island = IslandState(0, capacity=40)
        backend = scripted_backend(
            *[fenced(f"print({i})\n") for i in range(6)]
        )
        prompt, pending, failures = initialize_island(island, config, backend, rngs())
        assert prompt.text == get_problem(config.problem_id).brief
        assert len(pending) == 7  # trivial + 6 generated
        assert failures == []
        assert all(p.parent_id is None for p in pending)
        assert all(p.parent_prompt_id == prompt.id for p in pending)
        codes = {p.code for p in pending}
        assert len(codes) == 7

    def test_all_generations_failing_leaves_only_trivial(self):
        config = standard_config(init_population=6)
        island = IslandState(0, capacity=40)
        backend = scripted_backend(*["no code here at all"] * 6)
        _, pending, failures = initialize_island(island, config, backend, rngs())
        assert len(pending) == 1
        assert pending[0].code == get_problem(config.problem_id).trivial_code
        assert len(failures) == 6
        assert all(f.status == STATUS_GENERATION_FAILED for f in failures)

    @pytest.mark.parametrize("calls", [1, 4])
    def test_the_first_set_up_call_goes_out_on_the_islands_thread(self, calls, monkeypatch):
        from llmevolve import operators

        pools = []

        class CountingPool(operators.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        threads = {}

        class ThreadRecording(ReplayBackend):
            def complete(self, *args, **kwargs):
                threads[kwargs["index"]] = threading.current_thread()
                return super().complete(*args, **kwargs)

        monkeypatch.setattr(operators, "ThreadPoolExecutor", CountingPool)
        backend = ThreadRecording({(0, i): fenced(f"print({i})\n") for i in range(calls)})
        config = standard_config(init_population=calls)
        _, pending, _ = initialize_island(IslandState(0, capacity=40), config, backend, rngs())
        assert len(pending) == calls + 1
        assert pools == ([calls - 1] if calls > 1 else [])
        assert threads[0] is threading.current_thread()
        assert all(threads[i] is not threading.current_thread() for i in range(1, calls))

    def test_already_populated_island_rejected(self):
        config = standard_config()
        island = seeded_island()
        with pytest.raises(RuntimeError):
            initialize_island(island, config, scripted_backend(), rngs())

"""Variation operators: depth exploitation, meta-prompting exploration and
the no-evolution baseline.

A step first flips the explore coin, then samples a parent, optional
inspirations and the ancestor chain, asks the generation engine for an edit,
and applies it with the diff engine. All state mutation beyond id allocation
and prompt-pool insertion is left to the engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import diffengine, llm, selection
from .config import RunConfig
from .core import (
    STATUS_GENERATION_FAILED,
    STATUS_PENDING,
    IslandState,
    Prompt,
    Solution,
)

OP_EXPLOIT = "exploit"
OP_EXPLORE = "explore"
OP_NO_EVOLUTION = "no_evolution"

# What a failed generation call or edit raises.
GENERATION_ERRORS = (llm.TransportError, diffengine.DiffParseError, diffengine.DiffApplyError)


@dataclass
class IslandRngs:
    """Independent random substreams for one island."""

    coin: random.Random
    select: random.Random
    model: random.Random


@dataclass
class OperatorOutcome:
    new_solution: Solution
    operator: str
    model_used: str
    inspiration_ids: list[str] = field(default_factory=list)


def _resolve_prompt(island: IslandState, sol: Solution) -> Prompt:
    if sol.parent_prompt_id is None:
        raise RuntimeError(f"solution {sol.id} has no parent prompt")
    return island.lookup_prompt(sol.parent_prompt_id)


def _new_solution(
    island: IslandState,
    epoch: int,
    code: str,
    parent_id: Optional[str],
    prompt_id: Optional[str],
    failure: Optional[str] = None,
) -> Solution:
    """Allocate the island's next solution: pending, or failed with ``failure`` as feedback."""
    return Solution(
        id=island.next_solution_id(),
        island_id=island.id,
        code=code,
        parent_id=parent_id,
        parent_prompt_id=prompt_id,
        epoch_created=epoch,
        status=STATUS_PENDING if failure is None else STATUS_GENERATION_FAILED,
        feedback=failure,
    )


def _offspring(
    island: IslandState,
    epoch: int,
    config: RunConfig,
    backend,
    rngs: IslandRngs,
    request: llm.GenerationRequest,
    parent_id: Optional[str],
    prompt_id: str,
    failure_prefix: str = "generation failed: ",
) -> tuple[Solution, str]:
    """Ask the ensemble for an edit of ``request.parent_code`` and apply it.

    Returns the new solution and the model that wrote it ("" on failure).
    A failed generation keeps the code it was asked to edit, so it stays
    executable if it ever enters a below-capacity population.
    """
    try:
        model, response = llm.generate(
            config.ensemble, request, backend, rngs.model, island_id=island.id
        )
        code = _apply_response(request.parent_code, response)
    except GENERATION_ERRORS as exc:
        failed = _new_solution(
            island, epoch, request.parent_code, parent_id, prompt_id, f"{failure_prefix}{exc}"
        )
        return failed, ""
    return _new_solution(island, epoch, code, parent_id, prompt_id), model


def evolve_step(
    island: IslandState,
    config: RunConfig,
    backend,
    problem_brief: str,
    crossover_enabled: bool,
    rngs: IslandRngs,
    epoch: int,
) -> OperatorOutcome:
    """Run one exploitation or exploration step on one island."""
    population = island.live()
    if not population:
        raise RuntimeError(f"island {island.id} has an empty population")

    p = rngs.coin.random()
    explore = p >= 1.0 - config.p_explore and config.ablation.meta_prompting

    if not explore:
        parent = island.lookup(selection.rank_sample(population, rngs.select))
        prompt = _resolve_prompt(island, parent)
        ancestors = island.ancestors(parent.id, config.max_ancestor_depth)
        new_prompt = None
        operator = OP_EXPLOIT
    else:
        parent = island.lookup(selection.uniform_sample(population, rngs.select))
        prompt_for_meta = _resolve_prompt(island, parent)
        try:
            new_text = llm.meta_prompt(
                config.ensemble,
                prompt_for_meta.text,
                parent.code,
                backend,
                island_id=island.id,
                problem_brief=problem_brief,
            )
        except (llm.TransportError, llm.EmptyResponseError) as exc:
            failed = _new_solution(
                island, epoch, parent.code, parent.id, prompt_for_meta.id,
                f"meta-prompting failed: {exc}",
            )
            return OperatorOutcome(failed, OP_EXPLORE, model_used="")
        new_prompt = Prompt(
            id=island.next_prompt_id(),
            text=new_text,
            island_id=island.id,
            parent_solution_id=parent.id,
            epoch_created=epoch,
        )
        # Inserted into the pool regardless of whether the offspring below
        # succeeds.
        island.add_prompt(new_prompt)
        prompt = new_prompt
        ancestors = []  # lineage deliberately withheld on exploration
        operator = OP_EXPLORE
    inspiration_ids = (
        selection.sample_inspirations(
            population,
            parent.id,
            config.num_inspirations,
            "uniform" if explore else "rank",
            rngs.select,
        )
        if crossover_enabled
        else []
    )

    request = llm.GenerationRequest(
        prompt_text=prompt.text,
        parent_code=parent.code,
        ancestor_codes=[a.code for a in ancestors],
        inspiration_codes=[island.lookup(i).code for i in inspiration_ids],
        execution_feedback=parent.feedback,
        problem_brief=problem_brief,
    )
    sol, model = _offspring(island, epoch, config, backend, rngs, request, parent.id, prompt.id)
    return OperatorOutcome(sol, operator, model, inspiration_ids)


def no_evolution_step(
    island: IslandState,
    config: RunConfig,
    backend,
    problem_brief: str,
    trivial_code: str,
    rngs: IslandRngs,
    epoch: int,
) -> OperatorOutcome:
    """Table-style baseline: regenerate from the island's first (and only) prompt and program."""
    prompt = next(iter(island.prompts.values()))
    request = llm.GenerationRequest(
        prompt_text=prompt.text,
        parent_code=trivial_code,
        problem_brief=problem_brief,
    )
    sol, model = _offspring(island, epoch, config, backend, rngs, request, None, prompt.id)
    return OperatorOutcome(sol, OP_NO_EVOLUTION, model)


def _apply_response(parent_code: str, response: str) -> str:
    parsed = diffengine.parse_response(response)
    if parsed.kind == "blocks":
        return diffengine.apply_blocks(parent_code, parsed.blocks)
    if parsed.kind == "full":
        return parsed.full_replacement or ""
    raise diffengine.DiffParseError("response contains no edit blocks or code block")


def initialize_island(
    island: IslandState,
    config: RunConfig,
    backend,
    problem_brief: str,
    trivial_code: str,
    rngs: IslandRngs,
) -> tuple[Prompt, list[Solution], list[Solution]]:
    """Seed an empty island from the initial prompt/solution pair.

    Returns (initial prompt, pending root solutions, failed generations).
    The trivial program is always the first pending root; each successful
    independent generation adds another root. Failures carry fitness 0 and
    are recorded but never become roots.
    """
    if island.solutions:
        raise RuntimeError(f"island {island.id} is already initialized")
    initial_prompt = Prompt(
        id=island.next_prompt_id(),
        text=problem_brief,
        island_id=island.id,
        epoch_created=0,
    )
    island.add_prompt(initial_prompt)
    pending = [_new_solution(island, 0, trivial_code, None, initial_prompt.id)]
    failures: list[Solution] = []
    request = llm.GenerationRequest(
        prompt_text=initial_prompt.text,
        parent_code=trivial_code,
        problem_brief=problem_brief,
    )
    for _ in range(config.init_population):
        sol, _ = _offspring(
            island, 0, config, backend, rngs, request, None, initial_prompt.id,
            "initialization generation failed: ",
        )
        (pending if sol.status == STATUS_PENDING else failures).append(sol)
    return initial_prompt, pending, failures

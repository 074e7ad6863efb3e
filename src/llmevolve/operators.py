"""Variation operators: island initialization, depth exploitation,
meta-prompting exploration and the no-evolution baseline.

Each operator takes ``(island, config, backend, rngs)``, and a step also its
epoch. The rest follows from the config: the problem's brief and trivial
program, and whether inspirations join the prompt, which they do once the
islands have exchanged migrants (``RunConfig.migrations_before``) unless the
ablation turns them off.

A step first flips the explore coin, then samples a parent, optional
inspirations and the ancestor chain, builds the chat messages from them with
the templates, sends them through the model layer and applies the reply with
the diff engine. All state mutation other than allocating ids and
model-call indices, and inserting prompts into the pool, is left to the
engine.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import diffengine, llm, selection, templates
from .config import RunConfig
from .core import (
    STATUS_GENERATION_FAILED,
    STATUS_PENDING,
    IslandState,
    Prompt,
    Solution,
)
from .problems import get_problem

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


def _generation(
    island: IslandState,
    config: RunConfig,
    backend,
    rngs: IslandRngs,
    messages: list[dict[str, str]],
) -> tuple[llm.EnsembleMember, Callable[[], str]]:
    """Draw the member of the island's next generation call and take its index.

    Returns the member and a function that sends the call, so that a caller
    may draw several calls in order and then send them at once.
    """
    member = llm.sample_model(config.ensemble, rngs.model)
    index = island.next_call_index()
    return member, lambda: llm.generate(
        config.ensemble, messages, backend, member, island.id, index
    )


def _offspring(
    island: IslandState,
    epoch: int,
    member: llm.EnsembleMember,
    reply: Callable[[], str],
    parent_code: str,
    parent_id: Optional[str],
    prompt_id: str,
    failure_prefix: str = "generation failed: ",
) -> tuple[Solution, str]:
    """Apply the edit that ``reply()``, ``member``'s response, makes to ``parent_code``.

    Returns the new solution and the model that wrote it ("" on failure).
    A failed generation keeps the code it was asked to edit, so it stays
    executable if it ever enters a below-capacity population.
    """
    try:
        code = _apply_response(parent_code, reply())
    except GENERATION_ERRORS as exc:
        failed = _new_solution(
            island, epoch, parent_code, parent_id, prompt_id, f"{failure_prefix}{exc}"
        )
        return failed, ""
    return _new_solution(island, epoch, code, parent_id, prompt_id), member.name


def evolve_step(
    island: IslandState, config: RunConfig, backend, rngs: IslandRngs, epoch: int
) -> OperatorOutcome:
    """Run one exploitation or exploration step on one island.

    Inspirations join the prompt once the islands have exchanged migrants.
    """
    brief = get_problem(config.problem_id).brief
    population = island.live()
    if not population:
        raise RuntimeError(f"island {island.id} has an empty population")

    p = rngs.coin.random()
    explore = p >= 1.0 - config.p_explore and config.ablation.meta_prompting

    if not explore:
        parent = island.lookup(selection.rank_sample(population, rngs.select))
        prompt = island.lookup_prompt(parent.parent_prompt_id)
        ancestors = island.ancestors(parent.id, config.max_ancestor_depth)
        operator = OP_EXPLOIT
    else:
        parent = island.lookup(selection.uniform_sample(population, rngs.select))
        prompt_for_meta = island.lookup_prompt(parent.parent_prompt_id)
        messages = templates.build_meta_messages(brief, prompt_for_meta.text, parent.code)
        try:
            new_text = llm.meta_prompt(
                config.ensemble, messages, backend, island.id, island.next_call_index()
            )
        except (llm.TransportError, llm.EmptyResponseError) as exc:
            failed = _new_solution(
                island, epoch, parent.code, parent.id, prompt_for_meta.id,
                f"meta-prompting failed: {exc}",
            )
            return OperatorOutcome(failed, OP_EXPLORE, model_used="")
        prompt = Prompt(
            id=island.next_prompt_id(),
            text=new_text,
            island_id=island.id,
            parent_solution_id=parent.id,
            epoch_created=epoch,
        )
        # Inserted into the pool regardless of whether the offspring below
        # succeeds.
        island.add_prompt(prompt)
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
        if config.ablation.inspirations and config.migrations_before(epoch) > 0
        else []
    )

    messages = templates.build_generation_messages(
        brief,
        prompt.text,
        parent.code,
        [a.code for a in ancestors],
        [island.lookup(i).code for i in inspiration_ids],
        parent.feedback,
    )
    sol, model = _offspring(
        island, epoch, *_generation(island, config, backend, rngs, messages),
        parent.code, parent.id, prompt.id,
    )
    return OperatorOutcome(sol, operator, model, inspiration_ids)


def no_evolution_step(
    island: IslandState, config: RunConfig, backend, rngs: IslandRngs, epoch: int
) -> OperatorOutcome:
    """Table-style baseline: regenerate from the island's first (and only) prompt and program."""
    problem = get_problem(config.problem_id)
    prompt = next(iter(island.prompts.values()))
    messages = templates.build_generation_messages(problem.brief, prompt.text, problem.trivial_code)
    sol, model = _offspring(
        island, epoch, *_generation(island, config, backend, rngs, messages),
        problem.trivial_code, None, prompt.id,
    )
    return OperatorOutcome(sol, OP_NO_EVOLUTION, model)


def _apply_response(parent_code: str, response: str) -> str:
    parsed = diffengine.parse_response(response)
    if parsed.kind == "blocks":
        code = diffengine.apply_blocks(parent_code, parsed.blocks)
    elif parsed.kind == "full":
        code = parsed.full_replacement
    else:
        raise diffengine.DiffParseError("response contains no edit blocks or code block")
    if not code:
        raise diffengine.DiffApplyError("the edit leaves an empty program")
    return code


def initialize_island(
    island: IslandState, config: RunConfig, backend, rngs: IslandRngs
) -> tuple[Prompt, list[Solution], list[Solution]]:
    """Seed an empty island from its problem's brief and trivial program.

    Returns (initial prompt, pending root solutions, failed generations).
    The trivial program is always the first pending root; each successful
    independent generation adds another root. Failures carry fitness 0 and
    are recorded but never become roots.

    The ``init_population`` generation calls are drawn and keyed in order,
    sent at once (the first on this thread, the others on a pool of their
    own), and applied in order, so the result is the same as if they had
    been sent one after another.
    """
    if island.solutions:
        raise RuntimeError(f"island {island.id} is already initialized")
    problem = get_problem(config.problem_id)
    initial_prompt = Prompt(
        id=island.next_prompt_id(),
        text=problem.brief,
        island_id=island.id,
        epoch_created=0,
    )
    island.add_prompt(initial_prompt)
    pending = [_new_solution(island, 0, problem.trivial_code, None, initial_prompt.id)]
    failures: list[Solution] = []
    messages = templates.build_generation_messages(
        problem.brief, initial_prompt.text, problem.trivial_code
    )
    calls = [
        _generation(island, config, backend, rngs, messages)
        for _ in range(config.init_population)
    ]
    # Calls 1.. go to a pool of their own; call 0 goes out on this thread as
    # it is applied, so a single call starts no thread.
    pool = ThreadPoolExecutor(max_workers=len(calls) - 1) if len(calls) > 1 else None
    try:
        replies = [calls[0][1]] + [pool.submit(send).result for _, send in calls[1:]]
        for (member, _), reply in zip(calls, replies):
            sol, _ = _offspring(
                island, 0, member, reply, problem.trivial_code, None, initial_prompt.id,
                "initialization generation failed: ",
            )
            (pending if sol.status == STATUS_PENDING else failures).append(sol)
    finally:
        if pool is not None:
            pool.shutdown()
    return initial_prompt, pending, failures

"""Variation operators: island initialization, depth exploitation,
meta-prompting exploration and the no-evolution baseline.

Each operator takes ``(island, config, backend)``, a step also its epoch
and set-up a thread pool's ``submit``: the engine starts every pool. Every
draw comes from one of the island's own streams (``core.IslandState``).
The rest follows from the config: the problem's brief and trivial
program, and whether inspirations join the prompt, which they do once the
islands have exchanged migrants (``RunConfig.migrations_before``), up to
``num_inspirations`` of them.

A step first flips the explore coin, then samples a parent, optional
inspirations and the ancestor chain, builds the chat messages from them with
the templates, sends them through the model layer and applies the reply with
the diff engine. A call that fails (``llm.TransportError``, which a
``RejectedError`` is too) or an edit that fails (``diffengine.EditError``)
fails the step: the child is a failed solution whose feedback is the
error's message. A ``KeyRefusedError`` is not caught, so it ends the run.
Each offspring carries the instruction text it was generated from: its
parent's, or the meta model's rewrite of it on exploration. All state mutation other than allocating ids and model-call
indices and drawing from the island's streams is left to the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import diffengine, llm, selection, templates
from .config import RunConfig
from .core import (
    STATUS_GENERATION_FAILED,
    STATUS_PENDING,
    IslandState,
    Solution,
)
from .problems import get_problem

OP_EXPLOIT = "exploit"
OP_EXPLORE = "explore"
OP_NO_EVOLUTION = "no_evolution"

# What a failed generation call or edit raises.
GENERATION_ERRORS = (llm.TransportError, diffengine.EditError)


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
    prompt: str,
    parent_id: Optional[str],
    failure: Optional[str] = None,
) -> Solution:
    """Allocate the island's next solution: pending, or failed with ``failure`` as feedback."""
    return Solution(
        id=island.next_solution_id(),
        island_id=island.id,
        code=code,
        prompt=prompt,
        parent_id=parent_id,
        epoch_created=epoch,
        status=STATUS_PENDING if failure is None else STATUS_GENERATION_FAILED,
        feedback=failure,
    )


def _generation(
    island: IslandState,
    config: RunConfig,
    backend,
    messages: list[dict[str, str]],
) -> tuple[llm.EnsembleMember, Callable[[], str]]:
    """Draw the member of the island's next generation call and take its index.

    Returns the member and a function that sends the call, so that a caller
    may draw several calls in order and then send them at once.
    """
    member = llm.sample_model(config.ensemble, island.model_rng)
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
    prompt: str,
    parent_id: Optional[str],
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
            island, epoch, parent_code, prompt, parent_id, f"{failure_prefix}{exc}"
        )
        return failed, ""
    return _new_solution(island, epoch, code, prompt, parent_id), member.name


def evolve_step(island: IslandState, config: RunConfig, backend, epoch: int) -> OperatorOutcome:
    """Run one exploitation or exploration step on one island.

    Inspirations join the prompt once the islands have exchanged migrants.
    """
    brief = get_problem(config.problem_id).brief
    population = island.live()
    if not population:
        raise RuntimeError(f"island {island.id} has an empty population")

    p = island.coin_rng.random()
    explore = p >= 1.0 - config.p_explore

    sample = selection.uniform_sample if explore else selection.rank_sample
    parent = island.lookup(sample(population, island.select_rng))
    if not explore:
        prompt = parent.prompt
        ancestors = island.ancestors(parent.id, config.max_ancestor_depth)
        operator = OP_EXPLOIT
    else:
        messages = templates.build_meta_messages(brief, parent.prompt, parent.code)
        try:
            prompt = llm.meta_prompt(
                config.ensemble, messages, backend, island.id, island.next_call_index()
            )
        except llm.TransportError as exc:
            failed = _new_solution(
                island, epoch, parent.code, parent.prompt, parent.id,
                f"meta-prompting failed: {exc}",
            )
            return OperatorOutcome(failed, OP_EXPLORE, model_used="")
        ancestors = []  # lineage deliberately withheld on exploration
        operator = OP_EXPLORE
    inspiration_ids = (
        selection.sample_inspirations(
            population, parent.id, config.num_inspirations, sample, island.select_rng
        )
        if config.migrations_before(epoch) > 0
        else []
    )

    messages = templates.build_generation_messages(
        brief,
        prompt,
        parent.code,
        [a.code for a in ancestors],
        [island.lookup(i).code for i in inspiration_ids],
        parent.feedback,
    )
    sol, model = _offspring(
        island, epoch, *_generation(island, config, backend, messages),
        parent.code, prompt, parent.id,
    )
    return OperatorOutcome(sol, operator, model, inspiration_ids)


def no_evolution_step(island: IslandState, config: RunConfig, backend, epoch: int) -> OperatorOutcome:
    """Table-style baseline: regenerate from the problem's brief and trivial program."""
    problem = get_problem(config.problem_id)
    messages = templates.build_generation_messages(problem.brief, problem.brief, problem.trivial_code)
    sol, model = _offspring(
        island, epoch, *_generation(island, config, backend, messages),
        problem.trivial_code, problem.brief, None,
    )
    return OperatorOutcome(sol, OP_NO_EVOLUTION, model)


def _apply_response(parent_code: str, response: str) -> str:
    edit = diffengine.parse_response(response)
    code = edit if isinstance(edit, str) else diffengine.apply_blocks(parent_code, edit)
    if not code:
        raise diffengine.EditError("the edit leaves an empty program")
    try:
        code.encode("utf-8")  # a JSON reply can carry a lone surrogate
    except UnicodeEncodeError as exc:
        raise diffengine.EditError(f"the edit leaves a program that is not UTF-8 text: {exc}") from None
    return code


def initialize_island(
    island: IslandState, config: RunConfig, backend, submit: Callable
) -> tuple[str, list[Solution], list[Solution]]:
    """Seed an empty island from its problem's brief and trivial program.

    Returns (the initial prompt, i.e. the brief, pending roots, failed generations).
    The trivial program is always the first pending root; each successful
    independent generation adds another root. Failures carry fitness 0 and
    are recorded but never become roots.

    The ``init_population`` generation calls are drawn and keyed in order,
    sent at once (the first on this thread as it is applied, so one call
    starts no thread; the others through ``submit``, a pool's that the engine
    starts for this set-up), and applied in order, so the result is the same
    as if they had been sent one after another.
    """
    if island.solutions:
        raise RuntimeError(f"island {island.id} is already initialized")
    problem = get_problem(config.problem_id)
    brief = problem.brief
    pending = [_new_solution(island, 0, problem.trivial_code, brief, None)]
    failures: list[Solution] = []
    messages = templates.build_generation_messages(brief, brief, problem.trivial_code)
    calls = [
        _generation(island, config, backend, messages)
        for _ in range(config.init_population)
    ]
    replies = [calls[0][1]] + [submit(send).result for _, send in calls[1:]]
    for (member, _), reply in zip(calls, replies):
        sol, _ = _offspring(
            island, 0, member, reply, problem.trivial_code, brief, None,
            "initialization generation failed: ",
        )
        (pending if sol.status == STATUS_PENDING else failures).append(sol)
    return brief, pending, failures

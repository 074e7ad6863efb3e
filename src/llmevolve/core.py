"""Domain types for the evolutionary search: solutions, prompts, islands.

An island owns a live population of solutions plus an append-only archive of
everything that was ever evaluated there, so lineage queries keep working
after an individual is evicted by population control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

# Terminal states a solution can end up in after generation + evaluation.
STATUS_VALID = "valid"
STATUS_RUNTIME_ERROR = "runtime_error"
STATUS_TIMEOUT = "timeout"
STATUS_MEMORY_EXCEEDED = "memory_exceeded"
STATUS_INVALID_ARTIFACT = "invalid_artifact"
STATUS_GENERATION_FAILED = "generation_failed"
STATUS_PENDING = "pending"


class UnknownIdError(KeyError):
    """Raised when a solution or prompt id cannot be resolved."""


@dataclass
class Solution:
    """A candidate program together with its lineage and evaluation result."""

    id: str
    island_id: int
    code: str
    parent_id: Optional[str] = None
    parent_prompt_id: Optional[str] = None
    epoch_created: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    fitness: float = 0.0
    status: str = STATUS_PENDING
    log_ref: Optional[str] = None
    has_migrated: bool = False
    # Truncated stdout/stderr tail carried along for prompt feedback.
    feedback: Optional[str] = None
    # Free-form record keeping (e.g. migration provenance).
    provenance: dict = field(default_factory=dict)


@dataclass
class Prompt:
    """A textual generation instruction living in an island's prompt pool."""

    id: str
    text: str
    island_id: int
    parent_solution_id: Optional[str] = None
    epoch_created: int = 0

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("prompt text must be non-empty")


@dataclass
class InsertResult:
    outcome: str  # "inserted" | "rejected" | "inserted_with_eviction"


class IslandState:
    """Live population, prompt pool and solution forest for one island.

    The live population never exceeds ``capacity``; displaced and rejected
    individuals move to the archive, which ``ancestors`` still sees.
    """

    def __init__(self, island_id: int, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.id = island_id
        self.capacity = capacity
        self.solutions: dict[str, Solution] = {}
        self.archive: dict[str, Solution] = {}
        self.prompts: dict[str, Prompt] = {}
        self._solution_counter = 0
        self._prompt_counter = 0
        self._call_counter = 0

    # -- id allocation (deterministic, human readable) --

    def next_solution_id(self) -> str:
        sid = f"i{self.id}-s{self._solution_counter:05d}"
        self._solution_counter += 1
        return sid

    def next_prompt_id(self) -> str:
        pid = f"i{self.id}-p{self._prompt_counter:05d}"
        self._prompt_counter += 1
        return pid

    def next_call_index(self) -> int:
        """Key of the island's next model call; a retry keeps its call's key."""
        index = self._call_counter
        self._call_counter += 1
        return index

    # -- lookups --

    def lookup(self, solution_id: str) -> Solution:
        sol = self.solutions.get(solution_id) or self.archive.get(solution_id)
        if sol is None:
            raise UnknownIdError(solution_id)
        return sol

    def lookup_prompt(self, prompt_id: str) -> Prompt:
        try:
            return self.prompts[prompt_id]
        except KeyError:
            raise UnknownIdError(prompt_id) from None

    def add_prompt(self, prompt: Prompt) -> None:
        self.prompts[prompt.id] = prompt

    def archive_solution(self, solution: Solution) -> None:
        """Record a solution that never enters (or leaves) the live set."""
        self.archive[solution.id] = solution

    def live(self) -> list[Solution]:
        return list(self.solutions.values())

    def all_solutions(self) -> Iterable[Solution]:
        yield from self.solutions.values()
        yield from self.archive.values()

    # -- forest queries --

    def ancestors(self, solution_id: str, k: Optional[int] = None) -> list[Solution]:
        """Return up to ``k`` ancestors of a solution, nearest first.

        ``k=None`` means unlimited depth. Roots (and migrant copies, whose
        parent pointers were cleared on arrival) yield the empty list.
        """
        sol = self.lookup(solution_id)
        chain: list[Solution] = []
        seen = {sol.id}
        while sol.parent_id is not None and (k is None or len(chain) < k):
            sol = self.lookup(sol.parent_id)
            if sol.id in seen:
                raise RuntimeError(f"cycle detected in solution forest at {sol.id}")
            seen.add(sol.id)
            chain.append(sol)
        return chain

    # -- population control --

    def try_insert(self, candidate: Solution) -> InsertResult:
        """Offer an evaluated candidate to the live population.

        Below capacity the candidate always enters. At capacity it enters
        only with strictly higher fitness than the current worst, which is
        then evicted to the archive. Ties on minimum fitness evict the
        oldest individual (smallest epoch_created, then smallest id).
        """
        if candidate.status == STATUS_PENDING:
            raise ValueError("candidate must be evaluated before insertion")
        if len(self.solutions) < self.capacity:
            self.solutions[candidate.id] = candidate
            return InsertResult("inserted")
        worst = min(
            self.solutions.values(),
            key=lambda s: (s.fitness, s.epoch_created, s.id),
        )
        if candidate.fitness > worst.fitness:
            del self.solutions[worst.id]
            self.archive[worst.id] = worst
            self.solutions[candidate.id] = candidate
            return InsertResult("inserted_with_eviction")
        self.archive[candidate.id] = candidate
        return InsertResult("rejected")

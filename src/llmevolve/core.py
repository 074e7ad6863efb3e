"""Domain types for the evolutionary search: solutions and islands.

An island owns a live population of solutions and an archive of the evicted
ones, pruned to the live solutions' ancestors so that lineage queries outlive
eviction. A rejected candidate is not kept: it is never a parent, an
inspiration or a migrant. A solution carries the instruction it was
generated from. The run's counts by status come from its event log.

An island also owns all of its deterministic state: its solution ids, its
model-call keys and three random streams, each derived from the master
seed, the island and the stream's name (``derive_rng``). ``coin_rng`` flips
a step's explore coin, ``select_rng`` samples its parent and inspirations,
and ``model_rng`` draws the ensemble member of each generation call.

Solutions rank by ``ranked``: fittest first; on equal fitness the older
(smaller ``epoch_created``) first, then the smaller id. Rank sampling,
the inspiration top-up, migration and the exported best read this order.
Eviction breaks ties the other way: the oldest of the least fit goes first.
"""

from __future__ import annotations

import hashlib
import random
import struct
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


@dataclass
class Solution:
    """A candidate program together with its lineage and evaluation result."""

    id: str
    island_id: int
    code: str
    prompt: str  # the instruction it was generated from: the brief or a meta-prompting rewrite
    parent_id: Optional[str] = None
    epoch_created: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    fitness: float = 0.0
    status: str = STATUS_PENDING
    # Byte offset of the solutions-log record that holds its code, logs and artifact.
    log_ref: Optional[int] = None
    has_migrated: bool = False
    # Truncated stdout/stderr tail carried along for prompt feedback.
    feedback: Optional[str] = None
    # Free-form record keeping (e.g. migration provenance).
    provenance: dict = field(default_factory=dict)


def ranked(solutions: Iterable[Solution]) -> list[Solution]:
    """The solutions in rank order, fittest first (see the module docstring)."""
    return sorted(solutions, key=lambda s: (-s.fitness, s.epoch_created, s.id))


@dataclass
class InsertResult:
    outcome: str  # "inserted" | "rejected" | "inserted_with_eviction"


class RandomStream(random.Random):
    """A ``random.Random`` that pickles its state as 2,500 bytes.

    It overrides neither ``random`` nor ``getrandbits``, so it draws exactly
    as ``random.Random`` does. Its pickle holds the Mersenne Twister state
    (624 words and an index) packed little-endian, the same on every
    platform, and the pending ``gauss`` value, where ``random.Random``'s
    holds a tuple of 625 ints that the pickler's and unpickler's memos keep
    until the whole dump or load ends.
    """

    def __reduce__(self):
        _, internal, gauss_next = self.getstate()
        return _unpack_stream, (struct.pack("<625I", *internal), gauss_next)


def _unpack_stream(internal: bytes, gauss_next: Optional[float]) -> RandomStream:
    stream = RandomStream(0)
    stream.setstate((RandomStream.VERSION, struct.unpack("<625I", internal), gauss_next))
    return stream


def derive_rng(master_seed: int, island: int, stream: str) -> RandomStream:
    """The random stream named ``stream`` of ``island`` under ``master_seed``.

    A ``RandomStream``, which draws as ``random.Random`` and pickles small;
    a checkpoint that holds plain ``random.Random`` streams resumes alike.
    """
    blob = f"{master_seed}:{island}:{stream}".encode()
    seed = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return RandomStream(seed)


class IslandState:
    """Live population, solution forest and random streams for one island.

    The live population never exceeds ``capacity``; displaced individuals
    move to the archive, which ``ancestors`` still sees.
    """

    def __init__(self, island_id: int, capacity: int, master_seed: int):
        self.id = island_id
        self.capacity = capacity
        self.solutions: dict[str, Solution] = {}
        self.archive: dict[str, Solution] = {}
        self._solution_counter = 0
        self._call_counter = 0
        self.coin_rng = derive_rng(master_seed, island_id, "coin")
        self.select_rng = derive_rng(master_seed, island_id, "select")
        self.model_rng = derive_rng(master_seed, island_id, "model")

    # -- id allocation (deterministic, human readable) --

    def next_solution_id(self) -> str:
        sid = f"i{self.id}-s{self._solution_counter:05d}"
        self._solution_counter += 1
        return sid

    def next_call_index(self) -> int:
        """Key of the island's next model call; a retry keeps its call's key."""
        index = self._call_counter
        self._call_counter += 1
        return index

    # -- lookups --

    def lookup(self, solution_id: str) -> Solution:
        """The live or archived solution ``solution_id``; a ``KeyError`` if there is none."""
        sol = self.solutions.get(solution_id) or self.archive.get(solution_id)
        if sol is None:
            raise KeyError(solution_id)
        return sol

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

    def prune(self) -> None:
        """Keep only the archived solutions a later step can read: the live
        solutions' ancestors (only live solutions become parents)."""
        reached = set(self.solutions)
        for sol in self.live():
            while sol.parent_id is not None and sol.parent_id not in reached:
                reached.add(sol.parent_id)
                sol = self.lookup(sol.parent_id)
        self.archive = {sid: sol for sid, sol in self.archive.items() if sid in reached}

    # -- population control --

    def try_insert(self, candidate: Solution) -> InsertResult:
        """Offer an evaluated candidate to the live population.

        Below capacity the candidate always enters. At capacity it enters
        only with strictly higher fitness than the current worst, which is
        then evicted to the archive; a rejected candidate is dropped. Ties
        on minimum fitness evict the oldest individual (smallest
        epoch_created, then smallest id).
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
        return InsertResult("rejected")

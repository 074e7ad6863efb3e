"""Sampling policies over populations: rank-based, uniform, inspirations."""

from __future__ import annotations

import random
from typing import Callable, Sequence

from .core import Solution, ranked


def rank_sample(population: Sequence[Solution], rng: random.Random) -> str:
    """Draw one solution id with probability inversely proportional to rank.

    Rank r in ``core.ranked`` order (1 the fittest) gets probability
    (1/r) / sum_{r'} (1/r').
    """
    if not population:
        raise ValueError("population is empty")
    ordered = ranked(population)
    weights = [1.0 / (r + 1) for r in range(len(ordered))]
    total = sum(weights)
    u = rng.random()
    acc = 0.0
    for sol, w in zip(ordered, weights):
        acc += w / total
        if u < acc:
            return sol.id
    return ordered[-1].id


def uniform_sample(population: Sequence[Solution], rng: random.Random) -> str:
    """Draw one solution id uniformly at random."""
    if not population:
        raise ValueError("population is empty")
    return rng.choice(sorted(s.id for s in population))


def sample_inspirations(
    population: Sequence[Solution],
    exclude: str,
    count: int,
    sample: Callable[[Sequence[Solution], random.Random], str],
    rng: random.Random,
) -> list[str]:
    """Sample up to ``count`` distinct ids with ``sample``, never the excluded one.

    ``sample`` is the step's parent sampler: ``rank_sample`` on exploitation,
    ``uniform_sample`` on exploration. A repeated draw is discarded; after
    100*count draws the set is topped up in rank order.
    """
    eligible = [s for s in population if s.id != exclude]
    target = min(count, len(eligible))
    chosen: list[str] = []
    for _ in range(100 * count):
        if len(chosen) == target:
            return chosen
        sid = sample(eligible, rng)
        if sid not in chosen:
            chosen.append(sid)
    rest = [s.id for s in ranked(eligible) if s.id not in chosen]
    return chosen + rest[: target - len(chosen)]

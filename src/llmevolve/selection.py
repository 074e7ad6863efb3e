"""Sampling policies over populations: rank-based, uniform, inspirations."""

from __future__ import annotations

import random
from typing import Sequence

from .core import Solution


def rank_sample(population: Sequence[Solution], rng: random.Random) -> str:
    """Draw one solution id with probability inversely proportional to rank.

    Solutions are ordered by fitness descending (ties broken oldest first),
    and rank r gets probability (1/r) / sum_{r'} (1/r').
    """
    if not population:
        raise ValueError("population is empty")
    ordered = sorted(population, key=lambda s: (-s.fitness, s.epoch_created, s.id))
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
    mode: str,
    rng: random.Random,
) -> list[str]:
    """Sample up to ``count`` distinct ids, never the excluded one.

    mode="rank" re-draws via rank_sample (exploitation), mode="uniform" via
    uniform_sample (exploration). Duplicates are rejected; after 100*count
    failed attempts the set is topped up from the fitness-sorted remainder.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    eligible = [s for s in population if s.id != exclude]
    target = min(count, len(eligible))
    if target == 0:
        return []
    sampler = rank_sample if mode == "rank" else uniform_sample
    if mode not in ("rank", "uniform"):
        raise ValueError(f"unknown inspiration mode: {mode}")
    chosen: list[str] = []
    attempts = 0
    while len(chosen) < target and attempts < 100 * count:
        sid = sampler(eligible, rng)
        attempts += 1
        if sid not in chosen:
            chosen.append(sid)
    if len(chosen) < target:
        ordered = sorted(eligible, key=lambda s: (-s.fitness, s.epoch_created, s.id))
        for sol in ordered:
            if sol.id not in chosen:
                chosen.append(sol.id)
            if len(chosen) == target:
                break
    return chosen

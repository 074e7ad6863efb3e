"""Run configuration: hyperparameters, topology, the ablation presets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

import yaml

from .llm import MAX_INTEGER, EnsembleConfig, EnsembleMember, MetaModel, RetryPolicy, check_field, quote
from .problems import REGISTRY
from .sandbox import ResourceLimits


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# Each island runs on a thread and uses at most one launcher at a time, and its
# set-up sends all but the first of its init_population calls on threads of its own.
MAX_ISLANDS = 64
MAX_INIT_POPULATION = 64

BACKENDS = ("http", "replay")

# The paper's ablations by name, each as the field values it sets. A step
# explores only when ``p_explore`` > 0 and sends inspirations only when
# ``num_inspirations`` > 0; under ``evolution: false`` neither matters.
ABLATION_PRESETS = {
    "full": {},
    "mp": {"num_inspirations": 0},
    "insp": {"p_explore": 0.0},
    "none": {"num_inspirations": 0, "p_explore": 0.0},
    "no-evolution": {"evolution": False},
}


@dataclass
class RunConfig:
    problem_id: str
    num_islands: int = 5
    topology: str | list[tuple[int, int]] = "ring"
    migration_every: int = 40
    migration_rate: float = 0.1
    p_explore: float = 0.3
    max_population: int = 40
    init_population: int = 6
    num_inspirations: int = 3
    max_ancestor_depth: Optional[int] = None  # None = unlimited
    epochs: int = 100
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig.default)
    limits: Optional[ResourceLimits] = None
    master_seed: int = 0
    evolution: bool = True  # False: each step starts from the trivial program; no migration
    backend: str = "replay"  # one of BACKENDS
    base_url: str = ""
    interpreter: list[str] = field(default_factory=lambda: ["python3"])  # runs the sandbox launchers
    sandbox_workers: Optional[int] = None  # default: usable CPUs; maximum: num_islands

    RANGES = (
        ("num_islands", "integer", 1, MAX_ISLANDS), ("init_population", "integer", 1, MAX_INIT_POPULATION),
        ("migration_every", "integer", 1, MAX_INTEGER), ("max_population", "integer", 1, MAX_INTEGER),
        ("epochs", "integer", 1, MAX_INTEGER), ("num_inspirations", "integer", 0, MAX_INTEGER),
        ("master_seed", "integer", -MAX_INTEGER - 1, MAX_INTEGER),
        ("max_ancestor_depth", "integer or null", 0, MAX_INTEGER), ("sandbox_workers", "integer or null", 1, MAX_INTEGER),
        ("migration_rate", "positive number", 0, 1), ("p_explore", "number", 0, 1),
        ("evolution", "boolean", None, None), ("base_url", "string", None, None),
    )

    def __post_init__(self) -> None:
        known = ", ".join(REGISTRY)
        if not isinstance(self.problem_id, str):
            raise ConfigError(f"problem_id must be a string naming a known problem; known: {known}")
        if self.problem_id not in REGISTRY:
            raise ConfigError(f"unknown problem_id {self.problem_id!r}; known: {known}")
        if self.limits is None:  # a copy, so that no run changes the problem's own
            self.limits = replace(REGISTRY[self.problem_id].limits)
        for name, cls in (("ensemble", EnsembleConfig), ("limits", ResourceLimits)):
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be a mapping")
        for name, *rule in self.RANGES:
            check_field(name, getattr(self, name), *rule)
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend: {quote(self.backend)}")
        if self.backend == "http":
            url = urlsplit(self.base_url)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ConfigError(f"backend http needs an http(s) base_url with a host, not {self.base_url!r}")
        if not (isinstance(self.interpreter, list) and self.interpreter
                and all(isinstance(arg, str) for arg in self.interpreter)):
            raise ConfigError("interpreter must be a non-empty list of strings")
        self.neighbors()  # validates topology indices

    def neighbors(self) -> dict[int, list[int]]:
        """Adjacency of the migration graph, destination lists sorted."""
        adj: dict[int, set[int]] = {i: set() for i in range(self.num_islands)}
        if self.topology == "ring":
            if self.num_islands > 1:
                for i in range(self.num_islands):
                    adj[i].add((i + 1) % self.num_islands)
                    adj[i].add((i - 1) % self.num_islands)
        elif self.topology == "complete":
            for i in range(self.num_islands):
                adj[i] = {j for j in range(self.num_islands) if j != i}
        elif isinstance(self.topology, (list, tuple)):
            for edge in self.topology:
                if not (isinstance(edge, (list, tuple)) and len(edge) == 2
                        and all(type(i) is int and 0 <= i < self.num_islands for i in edge)):
                    raise ConfigError(
                        f"topology edge {quote(edge)} must join two integer island indices in range({self.num_islands})"
                    )
                a, b = edge
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
        else:
            raise ConfigError(f"unknown topology: {quote(self.topology)}")
        return {i: sorted(v) for i, v in adj.items()}

    def migrates(self) -> bool:
        return self.evolution and self.num_islands > 1

    def migrations_before(self, epoch: int) -> int:
        """Migrations done before ``epoch``; each ends an epoch that ``migration_every`` divides."""
        return (epoch - 1) // self.migration_every if self.migrates() else 0

    def migrants_per_island(self, population_size: int) -> int:
        return math.ceil(self.migration_rate * population_size)


def load_config(path: str | Path, **overrides) -> RunConfig:
    """Load a RunConfig from a YAML (or JSON) document plus overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh) or {}
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: bytes not UTF-8, or an integer too long to read
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    return config_from_dict({**doc, **{k: v for k, v in overrides.items() if v is not None}})


def config_from_dict(doc: dict) -> RunConfig:
    doc = {"problem_id": None, **doc}
    try:
        if isinstance(doc.get("limits"), dict):
            doc["limits"] = ResourceLimits(**doc["limits"])
        if isinstance(doc.get("ensemble"), dict):
            # Every key goes to EnsembleConfig, so a misspelt one is refused;
            # an omitted one keeps its default.
            ens = dict(doc["ensemble"])
            if "members" in ens:
                ens["members"] = [EnsembleMember(**m) for m in ens["members"]]
            if "meta_model" in ens:
                ens["meta_model"] = MetaModel(**ens["meta_model"])
            if "retry" in ens:
                ens["retry"] = RetryPolicy(**ens["retry"])
            doc["ensemble"] = replace(EnsembleConfig.default(), **ens)
        if isinstance(doc.get("topology"), list):
            doc["topology"] = [tuple(e) for e in doc["topology"]]
        return RunConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


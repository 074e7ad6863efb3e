"""Run configuration: hyperparameters, topology, the ablation presets."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

import yaml

from .llm import EnsembleConfig, EnsembleMember, MetaModel, RetryPolicy
from .problems import REGISTRY, get_problem
from .sandbox import ResourceLimits


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


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
    backend: str = "replay"  # "replay" | "http"
    base_url: str = ""
    interpreter: list[str] = field(default_factory=lambda: ["python3"])  # runs the sandbox launchers
    sandbox_workers: Optional[int] = None  # default and maximum: num_islands

    def __post_init__(self) -> None:
        try:
            problem = get_problem(self.problem_id)
        except KeyError:
            raise ConfigError(f"unknown problem_id {self.problem_id!r}; known: {', '.join(REGISTRY)}") from None
        if self.limits is None:
            self.limits = ResourceLimits(problem.wall_seconds, problem.memory_bytes)
        for name, cls in (("ensemble", EnsembleConfig), ("limits", ResourceLimits)):
            if not isinstance(getattr(self, name), cls):
                raise ConfigError(f"{name} must be a mapping")
        # Each count's least value; None leaves an optional count unset.
        optional = {"max_ancestor_depth": 0, "sandbox_workers": 1}
        for name, least in {"num_islands": 1, "migration_every": 1, "max_population": 1,
                            "init_population": 1, "epochs": 1, "num_inspirations": 0,
                            **optional}.items():
            value = getattr(self, name)
            if not (type(value) is int and value >= least or value is None and name in optional):
                raise ConfigError(f"{name} must be an integer >= {least}")
        if type(self.evolution) is not bool:
            raise ConfigError("evolution must be true or false")
        if type(self.master_seed) is not int:
            raise ConfigError("master_seed must be an integer")
        if isinstance(self.migration_rate, bool) or not (0 < self.migration_rate <= 1):
            raise ConfigError("migration_rate must be a number in (0, 1]")
        if isinstance(self.p_explore, bool) or not (0 <= self.p_explore <= 1):
            raise ConfigError("p_explore must be a number in [0, 1]")
        if self.backend not in ("replay", "http"):
            raise ConfigError(f"unknown backend: {self.backend!r}")
        if self.backend == "http":
            url = urlsplit(str(self.base_url))
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
                        f"topology edge {edge!r} must join two integer island indices in range({self.num_islands})"
                    )
                a, b = edge
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
        else:
            raise ConfigError(f"unknown topology: {self.topology!r}")
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
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict({**doc, **{k: v for k, v in overrides.items() if v is not None}})


def config_from_dict(doc: dict) -> RunConfig:
    doc = dict(doc)
    if "problem_id" not in doc:
        raise ConfigError("config must name a problem_id")
    try:
        if isinstance(doc.get("limits"), dict):
            doc["limits"] = ResourceLimits(**doc["limits"])
        if isinstance(doc.get("ensemble"), dict):
            ens = doc["ensemble"]  # every key goes to EnsembleConfig, so a misspelt one is refused
            doc["ensemble"] = EnsembleConfig(**{
                **ens,
                "members": [EnsembleMember(**m) for m in ens.get("members", [])],
                "meta_model": MetaModel(**ens.get("meta_model", {"name": "flash"})),
                "retry": RetryPolicy(**ens.get("retry", {})),
            })
        if isinstance(doc.get("topology"), list):
            doc["topology"] = [tuple(e) for e in doc["topology"]]
        return RunConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


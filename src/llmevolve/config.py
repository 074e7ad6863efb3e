"""Run configuration: hyperparameters, topology, ablation toggles."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .llm import EnsembleConfig, EnsembleMember, MetaModel, RetryPolicy
from .problems import get_problem
from .sandbox import ResourceLimits


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class AblationToggles:
    meta_prompting: bool = True
    inspirations: bool = True
    evolution: bool = True

    @classmethod
    def from_name(cls, name: str) -> "AblationToggles":
        presets = {
            "full": cls(True, True, True),
            "mp": cls(True, False, True),
            "insp": cls(False, True, True),
            "none": cls(False, False, True),
            "no-evolution": cls(False, False, False),
        }
        try:
            return presets[name]
        except KeyError:
            raise ConfigError(f"unknown ablation preset: {name!r}") from None


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
    ablation: AblationToggles = field(default_factory=AblationToggles)
    backend: str = "replay"  # "replay" | "http"
    base_url: str = ""
    interpreter: list[str] = field(default_factory=lambda: ["python3"])  # runs the sandbox launchers
    sandbox_workers: Optional[int] = None  # default: num_islands

    def __post_init__(self) -> None:
        problem = get_problem(self.problem_id)  # raises on unknown id
        if self.limits is None:
            self.limits = ResourceLimits(problem.wall_seconds, problem.memory_bytes)
        for name, cls in (
            ("ensemble", EnsembleConfig), ("limits", ResourceLimits), ("ablation", AblationToggles)
        ):
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
        if type(self.master_seed) is not int:
            raise ConfigError("master_seed must be an integer")
        if not (0 < self.migration_rate <= 1):
            raise ConfigError("migration_rate must be in (0, 1]")
        if not (0 <= self.p_explore <= 1):
            raise ConfigError("p_explore must be in [0, 1]")
        if self.backend not in ("replay", "http"):
            raise ConfigError(f"unknown backend: {self.backend!r}")
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
                a, b = edge
                if not (0 <= a < self.num_islands and 0 <= b < self.num_islands):
                    raise ConfigError(f"topology edge {edge} out of range")
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
        else:
            raise ConfigError(f"unknown topology: {self.topology!r}")
        return {i: sorted(v) for i, v in adj.items()}

    def migrates(self) -> bool:
        return self.ablation.evolution and self.num_islands > 1

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
        if "ablation" in doc and isinstance(doc["ablation"], str):
            doc["ablation"] = AblationToggles.from_name(doc["ablation"])
        elif isinstance(doc.get("ablation"), dict):
            doc["ablation"] = AblationToggles(**doc["ablation"])
        if isinstance(doc.get("limits"), dict):
            doc["limits"] = ResourceLimits(**doc["limits"])
        if isinstance(doc.get("ensemble"), dict):
            ens = doc["ensemble"]
            doc["ensemble"] = EnsembleConfig(
                members=[EnsembleMember(**m) for m in ens.get("members", [])],
                meta_model=MetaModel(**ens.get("meta_model", {"name": "flash"})),
                retry=RetryPolicy(**ens.get("retry", {})),
            )
        if isinstance(doc.get("topology"), list):
            doc["topology"] = [tuple(e) for e in doc["topology"]]
        return RunConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


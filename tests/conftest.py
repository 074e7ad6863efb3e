"""Shared fixtures: scripted replay transcripts and candidate programs."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from llmevolve.config import RunConfig
from llmevolve.core import STATUS_VALID, Solution
from llmevolve.diffengine import DIVIDER_MARKER, REPLACE_MARKER, SEARCH_MARKER, EditBlock
from llmevolve.sandbox import ResourceLimits

FAST_INTERPRETER = [sys.executable, "-S"]


def packing_program(num_circles: int, radius: float) -> str:
    """A candidate emitting ``num_circles`` tiny circles of equal radius."""
    cols = 6
    return (
        "import json, os\n"
        "circles = []\n"
        f"for i in range({num_circles}):\n"
        f"    cx = (i % {cols}) / {cols} + 0.08\n"
        f"    cy = (i // {cols}) / {cols} + 0.08\n"
        f"    circles.append([cx, cy, {radius!r}])\n"
        'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
        '    json.dump({"circles": circles}, fh)\n'
    )


def fenced(code: str) -> str:
    return f"Here is the program:\n```python\n{code}```\n"


def write_transcript(
    run_dir: Path, num_islands: int, calls_per_island: int, num_circles: int = 26
) -> Path:
    """Scripted responses whose packing fitness strictly increases per call.

    Every response doubles as a full-replacement program and (when consumed
    by a meta-prompting call) as a non-empty prompt body.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "transcripts.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for island in range(num_islands):
            for index in range(calls_per_island):
                radius = 5e-4 + (island * calls_per_island + index) * 1e-7
                rec = {
                    "island": island,
                    "index": index,
                    "response": fenced(packing_program(num_circles, radius)),
                }
                fh.write(json.dumps(rec) + "\n")
    return path


def climbing_program(radius: float) -> str:
    """``packing_program(26, radius)`` with each radius times ``scale``, which
    ``SCALE_EDIT`` multiplies by 1.5 each time it is applied."""
    return "scale = 1.0\n" + packing_program(26, radius).replace(f"{radius!r}]", f"{radius!r} * scale]")


# A reply that improves a program descended from ``climbing_program``, and
# fails to apply to any other (the trivial program has no ``scale``).
SCALE_EDIT = f"{SEARCH_MARKER}\nscale = 1.0\n{DIVIDER_MARKER}\nscale = 1.0\nscale *= 1.5\n{REPLACE_MARKER}\n"
PROSE = "I would try a hexagonal lattice next."


def write_climbing_transcript(run_dir: Path, num_islands: int, calls_per_island: int, init_population: int) -> Path:
    """Scripted responses whose best improves on island 0 alone, and on the
    other islands only once they have received its programs by migration.

    Set-up replies are prose, so every island starts from the trivial
    program alone. Island 0's first step reply is ``climbing_program(2e-3)``,
    which beats the trivial program's radius of 1e-3; its next two replies
    are ``SCALE_EDIT`` and the rest prose. Every step reply on the
    other islands is ``SCALE_EDIT``. Every call is a generation under
    ``p_explore=0``.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "transcripts.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for island in range(num_islands):
            for index in range(calls_per_island):
                step = index - init_population  # the step's number on its island, from 0
                if step < 0:
                    response = PROSE
                elif island > 0:
                    response = SCALE_EDIT
                elif step == 0:
                    response = fenced(climbing_program(2e-3))
                else:
                    response = SCALE_EDIT if step <= 2 else PROSE
                fh.write(json.dumps({"island": island, "index": index, "response": response}) + "\n")
    return path


def render_blocks(blocks: list[EditBlock]) -> str:
    """Serialize blocks back to the marker grammar (parse round-trips)."""
    return "\n\n".join(
        "\n".join([SEARCH_MARKER, b.search, DIVIDER_MARKER, b.replace, REPLACE_MARKER])
        for b in blocks
    )


def standard_config(**overrides) -> RunConfig:
    """The reference 5-island, 100-epoch replay configuration."""
    defaults = dict(
        problem_id="p3.a",
        num_islands=5,
        epochs=100,
        migration_every=40,
        migration_rate=0.1,
        p_explore=0.3,
        max_population=40,
        init_population=6,
        num_inspirations=3,
        master_seed=7,
        backend="replay",
        interpreter=FAST_INTERPRETER,
        limits=ResourceLimits(wall_seconds=20.0, memory_bytes=1 << 30),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def make_solution(
    sid: str,
    fitness: float,
    island: int = 0,
    epoch: int = 0,
    parent: str | None = None,
    prompt: str = "initial prompt",
) -> Solution:
    return Solution(
        id=sid,
        island_id=island,
        code=f"# {sid}",
        prompt=prompt,
        parent_id=parent,
        epoch_created=epoch,
        fitness=fitness,
        status=STATUS_VALID,
    )


@pytest.fixture(scope="session")
def reference_run(tmp_path_factory) -> tuple[Path, object]:
    """One completed standard replay run, shared across tests."""
    from llmevolve import engine

    run_dir = tmp_path_factory.mktemp("reference-run")
    write_transcript(run_dir, num_islands=5, calls_per_island=210)
    summary = engine.run(standard_config(), run_dir)
    return run_dir, summary


# Islands 1 and 2 receive island 0's programs at the migration after epoch
# 3, and one another's at the one after epoch 6.
CLIMBING_CONFIG = dict(num_islands=3, epochs=8, migration_every=3, init_population=2, p_explore=0.0)


@pytest.fixture(scope="session")
def climbing_run(tmp_path_factory) -> tuple[Path, object]:
    """One completed replay run whose best improves through migration."""
    from llmevolve import engine

    run_dir = tmp_path_factory.mktemp("climbing-run")
    config = standard_config(**CLIMBING_CONFIG)
    calls = config.init_population + config.epochs  # one call per step under p_explore=0
    write_climbing_transcript(run_dir, config.num_islands, calls, config.init_population)
    return run_dir, engine.run(config, run_dir)

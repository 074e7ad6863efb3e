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

"""The benchmark's workloads: run configs, generated transcripts, backends.

Every input the engine sees is generated here from the workload seed and
written into the run directory as ``transcripts.jsonl``; the engine gets
only those files and a backend built from them.

* ``replay``: the reference config (p3.a, 5 islands x 100 epochs, migration
  every 40) with a scripted full-replacement transcript. Candidate execution
  is nearly all of the wall time, so sandbox spawn and thread-pool changes
  show here and model-call changes do not.
* ``latency``: the same inputs on a 40-epoch run, with every backend call
  delayed by a fixed sleep (the offline stand-in for HTTP). Model waits are
  the larger share of wall time, so parallel-island and model-concurrency
  changes show here and not on ``replay``.
* ``mixed``: p1 with 300 heights, SEARCH/REPLACE edits on programs several
  KB long, scripted shares of edits that do not apply, no-op edits,
  crashing and constraint-violating candidates and a few timeouts, frequent
  migration, and a run executed as a chain of run/resume segments. Its
  shares of each outcome are synthetic, chosen to exercise every path, and
  were not measured on model traffic; its duplicate share therefore says
  nothing about whether an evaluation cache would pay off.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from llmevolve import llm, problems
from llmevolve.config import RunConfig
from llmevolve.core import (
    STATUS_GENERATION_FAILED,
    STATUS_INVALID_ARTIFACT,
    STATUS_RUNTIME_ERROR,
    STATUS_TIMEOUT,
    STATUS_VALID,
)
from llmevolve.engine import TRANSCRIPT_NAME
from llmevolve.sandbox import ResourceLimits

# Startup without site-packages keeps each candidate's interpreter cheap, as
# in the repository's own reference config.
FAST_INTERPRETER = [sys.executable, "-S"]

# Response kinds. A kind fixes the status its candidate must end in,
# whichever parent it is applied to; "noop" repeats its parent's program and
# so must end in the status that program reached before.
FULL = "full"
FULL_TIMEOUT = "full_timeout"
EDIT_OK = "ok"
EDIT_NOOP = "noop"
EDIT_MISSING = "missing_anchor"
EDIT_CRASH = "crash"
EDIT_VIOLATE = "violate"

SCRIPTED_STATUS = {
    FULL: STATUS_VALID,
    FULL_TIMEOUT: STATUS_TIMEOUT,
    EDIT_OK: STATUS_VALID,
    EDIT_MISSING: STATUS_GENERATION_FAILED,
    EDIT_CRASH: STATUS_RUNTIME_ERROR,
    EDIT_VIOLATE: STATUS_INVALID_ARTIFACT,
}

# One deck of twenty mixed-workload edits; each island's edits are shuffled
# decks, so every twenty consecutive responses hold these exact counts. The
# counts are synthetic: they make every outcome common enough to time, and
# no measurement of real model output stands behind them.
MIXED_DECK = {EDIT_OK: 11, EDIT_NOOP: 2, EDIT_MISSING: 3, EDIT_CRASH: 2, EDIT_VIOLATE: 2}

# Both anchors occur in every program the mixed workload can produce,
# including p1's trivial program, so each edit applies to any parent.
TOP_ANCHOR = "import json, os"
WRITE_ANCHOR = 'with open(os.environ["ARTIFACT_PATH"], "w") as fh:'

P1_HEIGHTS = 300


def expected_status(kind: str, parent_status: Optional[str]) -> Optional[str]:
    """The status a candidate built from a response of ``kind`` must reach.

    ``parent_status`` is the status the parent's program reached when run.
    """
    if kind == EDIT_NOOP:
        return parent_status
    return SCRIPTED_STATUS[kind]


class DelayBackend:
    """Sleeps a fixed time before each call, then forwards to ``inner``."""

    def __init__(self, inner, delay_s: float):
        self.inner = inner
        self.delay_s = delay_s

    def complete(self, *args, **kwargs) -> str:
        time.sleep(self.delay_s)
        return self.inner.complete(*args, **kwargs)

    def get_state(self):
        return self.inner.get_state()

    def set_state(self, state) -> None:
        self.inner.set_state(state)


@dataclass
class Workload:
    name: str
    config: RunConfig
    # Response kind of each transcript record, keyed by (island, index).
    kinds: dict[tuple[int, int], str]
    records: list[dict]
    delay_s: float = 0.0
    # stop_after_epoch of each segment but the last; empty runs straight.
    segments: list[int] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        """Candidates a complete run finalises: init roots plus one per step."""
        cfg = self.config
        return cfg.num_islands * (1 + cfg.init_population + cfg.epochs)

    def scripted_shares(self) -> dict[str, float]:
        """Share of each response kind in the transcript past initialisation."""
        init = self.config.init_population
        edits = [k for (_, index), k in self.kinds.items() if index >= init]
        return {k: edits.count(k) / len(edits) for k in sorted(set(edits))}

    def write_inputs(self, run_dir: Path) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / TRANSCRIPT_NAME, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")

    def make_backend(self, run_dir: Path):
        backend = llm.ReplayBackend.from_file(run_dir / TRANSCRIPT_NAME)
        return DelayBackend(backend, self.delay_s) if self.delay_s else backend


def _fenced(code: str) -> str:
    return f"Here is the program:\n```python\n{code}```\n"


def _record(island: int, index: int, response: str) -> dict:
    return {"island": island, "index": index, "response": response}


# -- replay and latency --


def _packing_program(radius: float, cols: int) -> str:
    """26 equal circles on a grid; larger radius means higher fitness."""
    return (
        "import json, os\n"
        "circles = []\n"
        "for i in range(26):\n"
        f"    cx = (i % {cols}) / {cols} + 0.08\n"
        f"    cy = (i // {cols}) / {cols} + 0.08\n"
        f"    circles.append([cx, cy, {radius!r}])\n"
        'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
        '    json.dump({"circles": circles}, fh)\n'
    )


def reference_config(**overrides) -> RunConfig:
    """The repository's reference 5-island, 100-epoch replay configuration."""
    doc = dict(
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
    doc.update(overrides)
    return RunConfig(**doc)


def _packing_transcript(seed: int, num_islands: int, calls: int):
    """Full-replacement responses whose radius rises with every call."""
    rng = random.Random(f"packing:{seed}")
    cols = rng.choice((6, 7))
    radius = rng.uniform(4e-4, 6e-4)
    records, kinds = [], {}
    for island in range(num_islands):
        for index in range(calls):
            radius += rng.uniform(0.5e-7, 1.5e-7)
            records.append(_record(island, index, _fenced(_packing_program(radius, cols))))
            kinds[(island, index)] = FULL
    return records, kinds


def replay(seed: int, sandbox_workers: int) -> Workload:
    cfg = reference_config(sandbox_workers=sandbox_workers)
    # Enough calls for every step to be an exploration (two calls each).
    records, kinds = _packing_transcript(seed, cfg.num_islands, 210)
    return Workload("replay", cfg, kinds, records)


# 40 epochs at 50 ms per call spend about two thirds of the wall time in
# model waits on two cores, while keeping one run near 20 s.
LATENCY_EPOCHS = 40
LATENCY_DELAY_S = 0.05


def latency(seed: int, sandbox_workers: int, delay_s: float = LATENCY_DELAY_S) -> Workload:
    """``replay``'s inputs on a shorter run; ``delay_s=0`` gives the undelayed twin."""
    cfg = reference_config(sandbox_workers=sandbox_workers, epochs=LATENCY_EPOCHS)
    records, kinds = _packing_transcript(seed, cfg.num_islands, 6 + 2 * LATENCY_EPOCHS + 4)
    return Workload("latency", cfg, kinds, records, delay_s=delay_s)


# -- mixed --


def _p1_base_program(rng: random.Random) -> str:
    """A several-KB p1 program: a warm-start table refined by harmonics."""
    table = ", ".join(f"{rng.uniform(0.2, 1.0):.5f}" for _ in range(P1_HEIGHTS))
    amps = ", ".join(f"{rng.uniform(0.0, 0.3):.4f}" for _ in range(6))
    phases = ", ".join(f"{rng.uniform(0.0, 3.14159):.4f}" for _ in range(6))
    return f'''\
{TOP_ANCHOR}
import math

# Step-function construction for the autoconvolution ratio.
# A warm-start table of heights is modulated by a few harmonics, smoothed,
# clipped at zero and normalised to a unit peak.

N = {P1_HEIGHTS}
WARM_START = [{table}]
AMPLITUDES = [{amps}]
PHASES = [{phases}]
SMOOTHING = {rng.randint(1, 3)}


def harmonic(t):
    total = 0.0
    for k, (a, p) in enumerate(zip(AMPLITUDES, PHASES), start=1):
        total += a * math.cos(2.0 * math.pi * k * t + p)
    return total


def smooth(values, width):
    out = []
    for i in range(len(values)):
        lo, hi = max(0, i - width), min(len(values), i + width + 1)
        out.append(sum(values[lo:hi]) / (hi - lo))
    return out


def heights(n):
    raw = [max(0.0, WARM_START[i] * (1.0 + harmonic(i / n))) for i in range(n)]
    smoothed = smooth(raw, SMOOTHING)
    peak = max(smoothed) or 1.0
    return [h / peak for h in smoothed]


{WRITE_ANCHOR}
    json.dump({{"heights": heights(N)}}, fh)
'''


def _timeout_program() -> str:
    return (
        f"{TOP_ANCHOR}\n"
        "import time\n"
        "# exhaustive search over all step functions (far too slow)\n"
        "time.sleep(30)\n"
        f"{WRITE_ANCHOR}\n"
        '    json.dump({"heights": [1.0]}, fh)\n'
    )


def _block(search: str, replace: str) -> str:
    return f"<<<<<<< SEARCH\n{search}\n=======\n{replace}\n>>>>>>> REPLACE"


def _revision_heights(a: float, b: float, w: float) -> list[float]:
    """The heights an ``ok`` edit's program writes; mirrors ``_edit``'s code."""
    return [max(0.0, a + b * math.cos(w * k)) + 1e-3 for k in range(P1_HEIGHTS)]


def _revisions(count: int, rng: random.Random) -> list[tuple[float, float, float]]:
    """Parameters of ``count`` ok edits, in rising order of their p1 objective.

    The best third of the draws scores above the initial programs. Handing
    them out in call order makes later edits better than earlier ones, as in
    a search that makes progress, so lineages grow deep.
    """
    params = [
        (round(rng.uniform(0.2, 1.0), 6), round(rng.uniform(0.0, 0.9), 6), round(rng.uniform(0.001, 0.05), 6))
        for _ in range(3 * count)
    ]
    objective = {
        p: problems.score_p1(problems.StepFunctionArtifact(_revision_heights(*p))).objective
        for p in params
    }
    return sorted(params, key=objective.__getitem__)[-count:]


def _edit(kind: str, tag: str, rng: random.Random, revision: Optional[tuple] = None) -> str:
    """An edit of ``kind``; the code it inserts runs first and decides the outcome.

    Inserted code writes the artifact through ``open(..., 'w')`` with single
    quotes, so it never repeats ``WRITE_ANCHOR``.
    """
    if kind == EDIT_NOOP:
        return "Keeping the program as it is.\n" + _block(TOP_ANCHOR, TOP_ANCHOR)
    if kind == EDIT_MISSING:
        return "Tune the step size.\n" + _block(f"STEP_SIZE = {rng.random():.6f}", "STEP_SIZE = 0.5")
    if kind == EDIT_CRASH:
        body = f'raise RuntimeError("refinement {tag} diverged")'
    elif kind == EDIT_VIOLATE:
        body = (
            f"_h = [1.0] * {P1_HEIGHTS}\n"
            f"_h[{rng.randrange(P1_HEIGHTS)}] = -{rng.uniform(0.1, 1.0):.4f}\n"
            "with open(os.environ['ARTIFACT_PATH'], 'w') as _fh:\n"
            '    json.dump({"heights": _h}, _fh)\n'
            "raise SystemExit(0)"
        )
    else:
        a, b, w = revision
        body = (
            f"def _revision(n, a={a!r}, b={b!r}, w={w!r}):\n"
            "    import math\n"
            "    return [max(0.0, a + b * math.cos(w * k)) + 1e-3 for k in range(n)]\n"
            "with open(os.environ['ARTIFACT_PATH'], 'w') as _fh:\n"
            f'    json.dump({{"heights": _revision({P1_HEIGHTS})}}, _fh)\n'
            "raise SystemExit(0)"
        )
    text = f"Revision {tag}.\n" + _block(TOP_ANCHOR, f"{TOP_ANCHOR}\n# revision {tag}\n{body}")
    if kind == EDIT_OK:
        text += "\n\n" + _block(WRITE_ANCHOR, f"# revision {tag} notes\n{WRITE_ANCHOR}")
    return text


MIXED_EPOCHS = 40
# Segment ends avoid migration epochs, so resumes load mid-interval checkpoints.
MIXED_SEGMENTS = [9, 19, 29]
# Islands whose last initial program sleeps past the wall limit.
MIXED_TIMEOUT_ISLANDS = (0, 2)


def mixed(
    seed: int,
    sandbox_workers: int,
    segments: Optional[list[int]] = None,
    epochs: int = MIXED_EPOCHS,
) -> Workload:
    """``segments=[]`` gives the straight-through twin of the segmented run."""
    cfg = RunConfig(
        problem_id="p1",
        num_islands=5,
        epochs=epochs,
        migration_every=10,
        migration_rate=0.1,
        p_explore=0.3,
        max_population=40,
        init_population=6,
        num_inspirations=3,
        master_seed=7,
        backend="replay",
        interpreter=FAST_INTERPRETER,
        limits=ResourceLimits(wall_seconds=0.5, memory_bytes=1 << 30),
        sandbox_workers=sandbox_workers,
    )
    rng = random.Random(f"mixed:{seed}")
    records, kinds = [], {}
    init = cfg.init_population
    edit_calls = 2 * cfg.epochs + 4
    decks = -(-edit_calls // sum(MIXED_DECK.values()))
    for island in range(cfg.num_islands):
        for index in range(init):
            kind = FULL_TIMEOUT if island in MIXED_TIMEOUT_ISLANDS and index == init - 1 else FULL
            code = _timeout_program() if kind == FULL_TIMEOUT else _p1_base_program(rng)
            records.append(_record(island, index, _fenced(code)))
            kinds[(island, index)] = kind
        sequence: list[str] = []
        for _ in range(decks):
            deck = [k for k, n in MIXED_DECK.items() for _ in range(n)]
            rng.shuffle(deck)
            sequence += deck
        for offset, kind in enumerate(sequence[:edit_calls]):
            kinds[(island, init + offset)] = kind
    # Islands progress together: the i-th ok edit of every island is drawn
    # from the same band of objectives.
    ok_keys = sorted(
        (key for key, kind in kinds.items() if kind == EDIT_OK), key=lambda k: (k[1], k[0])
    )
    revision = dict(zip(ok_keys, _revisions(len(ok_keys), rng)))
    for (island, index), kind in sorted(kinds.items()):
        if index >= init:
            text = _edit(kind, f"{island}.{index}", rng, revision.get((island, index)))
            records.append(_record(island, index, text))
    return Workload(
        "mixed",
        cfg,
        kinds,
        records,
        segments=list(MIXED_SEGMENTS if segments is None else segments),
    )


WORKLOADS = {"replay": replay, "latency": latency, "mixed": mixed}

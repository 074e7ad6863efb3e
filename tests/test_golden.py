"""Golden runs: small replay runs of every ablation preset, byte for byte.

Each preset runs 2 islands for 8 epochs with a migration every 3 epochs on a
scripted transcript that mixes valid programs, edit blocks that apply and
ones that do not, prose with no edit, crashing programs, programs that write
no artifact, malformed and constraint-violating artifacts, blank replies and
(on island 1) an exhausted transcript. The test compares five files with the
ones stored under ``tests/golden/``:

- ``<preset>.events.jsonl``: the run's ``events.jsonl``;
- ``<preset>.calls.jsonl``: one line per backend call with the sha256 of its
  chat messages, which pins every prompt byte, execution feedback included.
  Calls arrive concurrently, so both sides are compared sorted by the key
  ``(island, index)`` that the engine gave each call;
- ``<preset>.best.json``: the run's ``best/summary.json``;
- ``<preset>.solutions.sha256``: the sha256 of the run's ``solutions.jsonl``
  with its lines sorted, since islands append to it concurrently;
- ``<preset>.report.tsv``: what ``llmevolve report`` prints for the run with
  its default options.

A change that is meant to alter any of them regenerates the fixtures with
``PYTHONPATH=src python3 tests/test_golden.py`` and says why in its
description.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import fenced, packing_program, standard_config
from llmevolve import engine, llm
from llmevolve.cli import main
from llmevolve.config import ABLATION_PRESETS

GOLDEN_DIR = Path(__file__).parent / "golden"
PRESETS = tuple(ABLATION_PRESETS)
# Island 1 runs out of responses part-way through every preset.
RESPONSES_PER_ISLAND = {0: 40, 1: 9}

_KINDS = (
    "valid", "edit", "valid", "crash", "valid", "no_artifact", "bad_edit",
    "valid", "overlap", "prose", "bad_json", "valid", "blank",
)


def _response(island: int, index: int) -> str:
    kind = _KINDS[(index + 4 * island) % len(_KINDS)]
    if kind == "valid":
        return fenced(packing_program(26, 5e-4 + (island * 100 + index) * 1e-6))
    if kind == "edit":
        return "<<<<<<< SEARCH\nimport json, os\n=======\nimport json, os  # edited\n>>>>>>> REPLACE\n"
    if kind == "bad_edit":
        return "<<<<<<< SEARCH\nno such line\n=======\nanything\n>>>>>>> REPLACE\n"
    if kind == "crash":
        return fenced("import sys\nsys.stderr.write('boom\\n')\nsys.exit(3)\n")
    if kind == "no_artifact":
        return fenced("print('done')\n")
    if kind == "overlap":
        return fenced(packing_program(26, 0.3))
    if kind == "bad_json":
        return fenced(
            "import os\n"
            'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
            '    fh.write("{\\"circles\\": 5}")\n'
        )
    if kind == "prose":
        return "I would try a hexagonal lattice next."
    return "   \n"  # blank


class RecordingReplay(llm.ReplayBackend):
    """Replay backend that keeps a digest of every request it is sent, with its key."""

    def __init__(self, responses):
        super().__init__(responses)
        self.calls: list[dict] = []

    def complete(self, model, messages, island_id, **kwargs):
        self.calls.append(
            {
                "island": island_id,
                "index": kwargs["index"],
                "model": model.name,
                "digest": llm.request_digest(messages),
            }
        )
        return super().complete(model, messages, island_id, **kwargs)


def golden_run(preset: str, run_dir: Path) -> dict[str, bytes]:
    """Run one preset; return the content of each of its golden files, by suffix.

    The preset's field values override the base values below.
    """
    base = dict(
        num_islands=2,
        epochs=8,
        migration_every=3,
        migration_rate=0.25,
        max_population=4,
        init_population=3,
        num_inspirations=2,
        p_explore=0.4,
        ensemble=llm.EnsembleConfig(
            members=[
                llm.EnsembleMember(name="flash", weight=0.8),
                llm.EnsembleMember(name="pro", weight=0.2),
            ],
            meta_model=llm.MetaModel(name="flash"),
            retry=llm.RetryPolicy(backoff_seconds=(0.0, 0.0)),
        ),
    )
    cfg = standard_config(**{**base, **ABLATION_PRESETS[preset]})
    backend = RecordingReplay(
        {
            (island, index): _response(island, index)
            for island, count in RESPONSES_PER_ISLAND.items()
            for index in range(count)
        }
    )
    engine.run(cfg, run_dir, backend=backend)
    calls = "".join(json.dumps(c, sort_keys=True) + "\n" for c in backend.calls)
    solutions = sorted((run_dir / engine.SOLUTIONS_LOG_NAME).read_bytes().splitlines(keepends=True))
    report = CliRunner().invoke(main, ["report", "--run-dir", str(run_dir)])
    assert report.exit_code == 0, report.output
    return {
        "events.jsonl": (run_dir / engine.EVENT_LOG_NAME).read_bytes(),
        "calls.jsonl": by_key(calls.encode("utf-8")),
        "best.json": (run_dir / "best" / "summary.json").read_bytes(),
        "solutions.sha256": hashlib.sha256(b"".join(solutions)).hexdigest().encode("ascii") + b"\n",
        "report.tsv": report.stdout_bytes,
    }


def by_key(calls: bytes) -> bytes:
    """Call lines sorted by their key ``(island, index)``."""
    def key(line: bytes) -> tuple[int, int]:
        call = json.loads(line)
        return call["island"], call["index"]

    return b"".join(sorted(calls.splitlines(keepends=True), key=key))


@pytest.fixture(scope="module", params=PRESETS)
def golden(request, tmp_path_factory):
    """One preset's run: its name and the content of its golden files."""
    preset = request.param
    return preset, golden_run(preset, tmp_path_factory.mktemp("golden") / preset)


def test_event_log_and_prompts_match_golden(golden):
    preset, got = golden
    assert got["events.jsonl"] == (GOLDEN_DIR / f"{preset}.events.jsonl").read_bytes()
    assert got["calls.jsonl"] == by_key((GOLDEN_DIR / f"{preset}.calls.jsonl").read_bytes())


def test_best_and_solutions_match_golden(golden):
    preset, got = golden
    assert got["best.json"] == (GOLDEN_DIR / f"{preset}.best.json").read_bytes()
    assert got["solutions.sha256"] == (GOLDEN_DIR / f"{preset}.solutions.sha256").read_bytes()


def test_report_matches_golden(golden):
    preset, got = golden
    assert got["report.tsv"] == (GOLDEN_DIR / f"{preset}.report.tsv").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for preset in PRESETS:
            files = golden_run(preset, Path(tmp) / preset)
            for suffix, content in files.items():
                (GOLDEN_DIR / f"{preset}.{suffix}").write_bytes(content)
            print(
                f"{preset}: {len(files['events.jsonl'].splitlines())} events, "
                f"{len(files['calls.jsonl'].splitlines())} calls",
                file=sys.stderr,
            )

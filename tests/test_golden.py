"""Golden event logs: small replay runs of every ablation preset, byte for byte.

Each preset runs 2 islands for 8 epochs with a migration every 3 epochs on a
scripted transcript that mixes valid programs, edit blocks that apply and
ones that do not, prose with no edit, crashing programs, programs that write
no artifact, malformed and constraint-violating artifacts, blank replies and
(on island 1) an exhausted transcript. The test compares two files with the
ones stored under ``tests/golden/``:

- ``<preset>.events.jsonl``: the run's ``events.jsonl``;
- ``<preset>.calls.jsonl``: one line per backend call with the sha256 of its
  chat messages, which pins every prompt byte, execution feedback included.
  Calls arrive concurrently, so both sides are compared sorted by the key
  ``(island, index)`` that the engine gave each call.

A change that is meant to alter either file regenerates the fixtures with
``PYTHONPATH=src python3 tests/test_golden.py`` and says why in its
description.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from conftest import fenced, packing_program, standard_config
from llmevolve import engine, llm
from llmevolve.config import AblationToggles

GOLDEN_DIR = Path(__file__).parent / "golden"
PRESETS = ("full", "mp", "insp", "none", "no-evolution")
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
                "model": model,
                "digest": llm.request_digest(messages),
            }
        )
        return super().complete(model, messages, island_id, **kwargs)


def golden_run(preset: str, run_dir: Path) -> tuple[bytes, bytes]:
    """Run one preset; return its event log and its call digests."""
    cfg = standard_config(
        num_islands=2,
        epochs=8,
        migration_every=3,
        migration_rate=0.25,
        max_population=4,
        init_population=3,
        num_inspirations=2,
        p_explore=0.4,
        ablation=AblationToggles.from_name(preset),
        ensemble=llm.EnsembleConfig(
            members=[
                llm.EnsembleMember(name="flash", weight=0.8),
                llm.EnsembleMember(name="pro", weight=0.2),
            ],
            meta_model=llm.MetaModel(name="flash"),
            retry=llm.RetryPolicy(backoff_seconds=(0.0,)),
        ),
    )
    backend = RecordingReplay(
        {
            (island, index): _response(island, index)
            for island, count in RESPONSES_PER_ISLAND.items()
            for index in range(count)
        }
    )
    engine.run(cfg, run_dir, backend=backend)
    calls = "".join(json.dumps(c, sort_keys=True) + "\n" for c in backend.calls)
    return (run_dir / engine.EVENT_LOG_NAME).read_bytes(), by_key(calls.encode("utf-8"))


def by_key(calls: bytes) -> bytes:
    """Call lines sorted by their key ``(island, index)``."""
    def key(line: bytes) -> tuple[int, int]:
        call = json.loads(line)
        return call["island"], call["index"]

    return b"".join(sorted(calls.splitlines(keepends=True), key=key))


@pytest.mark.parametrize("preset", PRESETS)
def test_event_log_and_prompts_match_golden(preset, tmp_path):
    events, calls = golden_run(preset, tmp_path / preset)
    assert events == (GOLDEN_DIR / f"{preset}.events.jsonl").read_bytes()
    assert calls == by_key((GOLDEN_DIR / f"{preset}.calls.jsonl").read_bytes())


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for preset in PRESETS:
            events, calls = golden_run(preset, Path(tmp) / preset)
            (GOLDEN_DIR / f"{preset}.events.jsonl").write_bytes(events)
            (GOLDEN_DIR / f"{preset}.calls.jsonl").write_bytes(calls)
            print(f"{preset}: {len(events.splitlines())} events, {len(calls.splitlines())} calls", file=sys.stderr)

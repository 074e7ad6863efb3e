"""A run killed at any durable write resumes to the uninterrupted run.

``crash_runner.py`` kills a small run once after each of its durable writes,
in the spirit of ALICE (Pillai et al., OSDI 2014): it enumerates the crash
points between writes rather than sampling them. Each killed directory is
then resumed, or run afresh where no checkpoint was written yet, and must
give the uninterrupted run's ``events.jsonl``, ``best/`` and summary, and
its ``solutions.jsonl`` once the records are sorted by solution id (their
order depends on thread timing). A kill between the two halves of a
checkpoint's pickle leaves a partial ``.tmp`` file, which the resumed run
writes again. This holds for a run on the scripted transcript and for one
whose best improves through migration.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import crash_runner
from llmevolve import engine

RUNNER = Path(__file__).with_name("crash_runner.py")


def sorted_records(run_dir: Path) -> list:
    """The solutions log's records, sorted by solution id."""
    lines = (run_dir / "solutions.jsonl").read_text(encoding="utf-8").splitlines()
    return sorted((json.loads(line) for line in lines), key=lambda r: r["solution"])


def resumes_to_the_uninterrupted_run(tmp_path, climbing: bool = False) -> list:
    """Enumerate the crash points of ``crash_runner``'s run and check that each
    killed run resumes to the uninterrupted one; return the ``[n, kind]`` kills."""
    root = tmp_path / "crashes"
    out = subprocess.run(
        [sys.executable, str(RUNNER), str(root)] + (["climbing"] if climbing else []),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    kills = [line.split() for line in out.stdout.splitlines()]
    assert [int(n) for n, _ in kills] == list(range(1, len(kills) + 1))

    straight_dir = tmp_path / "straight"
    config = crash_runner.prepare(straight_dir, climbing)
    straight = engine.run(config, straight_dir)
    best = {p.name: p.read_bytes() for p in (straight_dir / "best").iterdir()}
    events = (straight_dir / "events.jsonl").read_bytes()
    records = sorted_records(straight_dir)
    for n, kind in kills:
        run_dir = root / f"kill-{n}"
        where = f"killed after write {n} ({kind})"
        partial = list((run_dir / "checkpoints").glob("*.tmp"))
        if kind == "payload":  # killed mid-pickle: the .tmp holds no checkpoint
            assert len(partial) == 1, where
            with pytest.raises(engine.CheckpointError):
                engine.load_checkpoint(partial[0])
        if any((run_dir / "checkpoints").glob("epoch_*.ckpt")):
            summary = engine.resume(run_dir)
        else:
            summary = engine.run(config, run_dir)
        assert summary == straight, where
        assert (run_dir / "events.jsonl").read_bytes() == events, where
        assert sorted_records(run_dir) == records, where
        assert {p.name: p.read_bytes() for p in (run_dir / "best").iterdir()} == best, where
        # The resumed run wrote that epoch's checkpoint again, over its .tmp.
        assert not any(p.exists() for p in partial), where
        assert all(p.with_suffix(".ckpt").exists() for p in partial), where
    return kills


def test_a_run_killed_at_any_durable_write_resumes_to_the_uninterrupted_run(tmp_path):
    kills = resumes_to_the_uninterrupted_run(tmp_path)
    # 2 islands: 4 init, 8 step and 4 migration events; 12 evaluated
    # candidates; checkpoints at epochs 2 and 4; best/ holds solution.py,
    # artifact.json and summary.json.
    assert Counter(kind for _, kind in kills) == {
        "event": 16, "solution": 12, "payload": 2, "fsync": 2, "replace": 2, "best": 3
    }


def test_a_run_that_improves_through_migration_killed_at_any_durable_write_resumes_to_it(tmp_path):
    kills = resumes_to_the_uninterrupted_run(tmp_path, climbing=True)
    # Each island logs its trivial root and its failed set-up call.
    assert Counter(kind for _, kind in kills) == {
        "event": 16, "solution": 12, "payload": 2, "fsync": 2, "replace": 2, "best": 3
    }
    # The run's best is island 1's, copied to island 0 by the last migration.
    summary = json.loads((tmp_path / "straight" / "best" / "summary.json").read_text())
    assert (summary["island"], summary["solution"]) == (0, "i0-s00007")
    assert not any(e.get("solution") == "i0-s00007" for e in engine.read_events(tmp_path / "straight"))

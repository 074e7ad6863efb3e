"""A run killed at any durable write resumes to the uninterrupted run.

``crash_runner.py`` kills a small run once after each of its durable writes,
in the spirit of ALICE (Pillai et al., OSDI 2014): it enumerates the crash
points between writes rather than sampling them. Each killed directory is
then resumed, or run afresh where no checkpoint was written yet, and must
give the uninterrupted run's ``events.jsonl``, ``best/`` and summary.
"""

from __future__ import annotations

import subprocess
import sys
from collections import Counter
from pathlib import Path

import crash_runner
from llmevolve import engine

RUNNER = Path(__file__).with_name("crash_runner.py")


def test_a_run_killed_at_any_durable_write_resumes_to_the_uninterrupted_run(tmp_path):
    root = tmp_path / "crashes"
    out = subprocess.run(
        [sys.executable, str(RUNNER), str(root)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    kills = [line.split() for line in out.stdout.splitlines()]
    # 2 islands: 4 init, 8 step and 4 migration events; checkpoints at
    # epochs 2 and 4; best/ holds solution.py, artifact.json and summary.json.
    assert Counter(kind for _, kind in kills) == {"event": 16, "fsync": 2, "replace": 2, "best": 3}
    assert [int(n) for n, _ in kills] == list(range(1, len(kills) + 1))

    straight_dir = tmp_path / "straight"
    config = crash_runner.prepare(straight_dir)
    straight = engine.run(config, straight_dir)
    best = {p.name: p.read_bytes() for p in (straight_dir / "best").iterdir()}
    events = (straight_dir / "events.jsonl").read_bytes()
    for n, kind in kills:
        run_dir = root / f"kill-{n}"
        if any((run_dir / "checkpoints").glob("epoch_*.ckpt")):
            summary = engine.resume(run_dir)
        else:
            summary = engine.run(config, run_dir)
        where = f"killed after write {n} ({kind})"
        assert summary == straight, where
        assert (run_dir / "events.jsonl").read_bytes() == events, where
        assert {p.name: p.read_bytes() for p in (run_dir / "best").iterdir()} == best, where

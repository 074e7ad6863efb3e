"""Crash-point runner: kill a small run at each of its durable writes in turn.

    python tests/crash_runner.py ROOT

For N = 1, 2, ... it prepares ``ROOT/kill-N`` (transcript only) and forks a
child that runs ``engine.run`` there with ``CONFIG``. The child counts its
durable writes (an event-log flush, a checkpoint ``fsync`` or ``os.replace``,
a file under ``best/``), prints ``N <kind>`` after the N-th one and sends
itself ``SIGKILL``. The first child that finishes without reaching its N-th
write ends the loop; its directory is an uninterrupted run. The patches are
applied only inside the children; nothing under ``src/`` knows about them.
"""

from __future__ import annotations

import os
import pathlib
import signal
import sys
import threading

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from conftest import standard_config, write_transcript  # noqa: E402
from llmevolve import engine  # noqa: E402

CONFIG = dict(num_islands=2, epochs=4, migration_every=2, init_population=1)
CALLS_PER_ISLAND = 40


def prepare(run_dir: pathlib.Path):
    """Write the transcript into ``run_dir``; return the run's config."""
    write_transcript(run_dir, num_islands=CONFIG["num_islands"], calls_per_island=CALLS_PER_ISLAND)
    return standard_config(**CONFIG)


def die_at_write(n: int) -> None:
    """Patch the durable writes of this process so that the n-th is its last."""
    lock = threading.Lock()
    done = 0

    def patch(owner, name: str, kind: str, counts=lambda *args: True) -> None:
        write = getattr(owner, name)

        def durable(*args, **kwargs):
            nonlocal done
            result = write(*args, **kwargs)
            if counts(*args):
                with lock:
                    done += 1
                    if done == n:
                        os.write(1, f"{n} {kind}\n".encode())
                        os.kill(os.getpid(), signal.SIGKILL)
            return result

        setattr(owner, name, durable)

    def in_best(path, *args) -> bool:
        return path.parent.name == "best"

    patch(engine._Run, "_emit", "event")
    patch(os, "fsync", "fsync")
    patch(os, "replace", "replace")
    patch(pathlib.Path, "write_text", "best", in_best)
    patch(pathlib.Path, "write_bytes", "best", in_best)


def main(root: pathlib.Path) -> int:
    n = 0
    while True:
        n += 1
        run_dir = root / f"kill-{n}"
        config = prepare(run_dir)
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            die_at_write(n)
            engine.run(config, run_dir)
            os._exit(0)  # fewer than n durable writes: the run finished
        _, status = os.waitpid(pid, 0)
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
            return 0
        if not (os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL):
            print(f"{n} failed with wait status {status}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main(pathlib.Path(sys.argv[1])))

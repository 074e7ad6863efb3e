"""Crash-point runner: kill a small run at each of its durable writes in turn.

    python tests/crash_runner.py ROOT [climbing]

For N = 1, 2, ... it prepares ``ROOT/kill-N`` (transcript only) and forks a
child that runs ``engine.run`` there with ``CONFIG``. The transcript is
``write_transcript``'s, or with ``climbing`` ``write_climbing_transcript``'s,
whose best improves through migration. The child counts its
durable writes (an event-log flush, a solutions-log append, the first half
of a checkpoint's pickle reaching its ``.tmp`` file, a checkpoint ``fsync``
or ``os.replace``, a file under ``best/``), prints ``N <kind>``
after the N-th one and sends itself ``SIGKILL``. The first child that
finishes without reaching its N-th write ends the loop; its directory is an
uninterrupted run. The patches are applied only inside the children; nothing
under ``src/`` knows about them.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import signal
import sys
import threading

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from conftest import standard_config, write_climbing_transcript, write_transcript  # noqa: E402
from llmevolve import engine  # noqa: E402

CONFIG = dict(num_islands=2, epochs=4, migration_every=2, init_population=1)
CALLS_PER_ISLAND = 40


def prepare(run_dir: pathlib.Path, climbing: bool = False):
    """Write the transcript into ``run_dir``; return the run's config."""
    if climbing:
        write_climbing_transcript(run_dir, CONFIG["num_islands"], CALLS_PER_ISLAND, CONFIG["init_population"])
        return standard_config(**CONFIG, p_explore=0.0)
    write_transcript(run_dir, num_islands=CONFIG["num_islands"], calls_per_island=CALLS_PER_ISLAND)
    return standard_config(**CONFIG)


def die_at_write(n: int) -> None:
    """Patch the durable writes of this process so that the n-th is its last."""
    lock = threading.Lock()
    done = 0

    def wrote(kind: str) -> None:
        nonlocal done
        with lock:
            done += 1
            if done == n:
                os.write(1, f"{n} {kind}\n".encode())
                os.kill(os.getpid(), signal.SIGKILL)

    def patch(owner, name: str, kind: str, counts=lambda *args: True) -> None:
        write = getattr(owner, name)

        def durable(*args, **kwargs):
            result = write(*args, **kwargs)
            if counts(*args):
                wrote(kind)
            return result

        setattr(owner, name, durable)

    def in_best(path, *args) -> bool:
        return path.parent.name == "best"

    def dump_in_halves(obj, fh, *args, **kwargs) -> None:
        """``pickle.dump``, with the first half of the payload in the file
        before the second is written: a kill there leaves a partial ``.tmp``."""
        payload = pickle.dumps(obj, *args, **kwargs)
        fh.write(payload[: len(payload) // 2])
        fh.flush()
        wrote("payload")
        fh.write(payload[len(payload) // 2 :])

    pickle.dump = dump_in_halves
    patch(engine._Run, "_emit", "event")
    patch(engine._Run, "_log", "solution")  # it returns once its record is appended
    patch(os, "fsync", "fsync")
    patch(os, "replace", "replace")
    patch(pathlib.Path, "write_text", "best", in_best)
    patch(pathlib.Path, "write_bytes", "best", in_best)


def main(root: pathlib.Path, climbing: bool) -> int:
    n = 0
    while True:
        n += 1
        run_dir = root / f"kill-{n}"
        config = prepare(run_dir, climbing)
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
    sys.exit(main(pathlib.Path(sys.argv[1]), sys.argv[2:] == ["climbing"]))

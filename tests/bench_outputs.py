"""Digests of what the benchmark's workloads write, at seed 7.

    python3 tests/bench_outputs.py [CHECKOUT]

Runs ``replay``, undelayed ``latency``, segmented ``mixed`` (its segments
through ``engine.resume``) and straight ``mixed`` from this repository's
``perfbench/workloads.py`` on two sandbox workers, with the ``llmevolve``
package in ``CHECKOUT/src`` (this checkout's by default), in a temporary
directory. For each run it prints the sha256 of ``events.jsonl``, of
``best/`` (each file's name and bytes) and of ``solutions.jsonl`` with its
lines sorted, since islands append to it concurrently. A change that must
not alter what a run writes prints the same lines as its parent checkout.

Exits 1 if segmented and straight ``mixed`` differ in any of the three.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
WORKERS = 2


def digests(run_dir: Path) -> dict[str, str]:
    best = hashlib.sha256()
    for path in sorted((run_dir / "best").iterdir()):
        best.update(path.name.encode() + b"\n" + hashlib.sha256(path.read_bytes()).digest())
    solutions = sorted((run_dir / "solutions.jsonl").read_bytes().splitlines(keepends=True))
    return {
        "events": hashlib.sha256((run_dir / "events.jsonl").read_bytes()).hexdigest(),
        "best": best.hexdigest(),
        "solutions": hashlib.sha256(b"".join(solutions)).hexdigest(),
    }


def run_workload(engine, workload, run_dir: Path) -> dict[str, str]:
    workload.write_inputs(run_dir)
    for i, stop in enumerate(workload.segments + [None]):
        backend = workload.make_backend(run_dir)
        if i == 0:
            engine.run(workload.config, run_dir, backend=backend, stop_after_epoch=stop)
        else:
            engine.resume(run_dir, backend=backend, stop_after_epoch=stop)
    return digests(run_dir)


def main(argv: list[str]) -> int:
    src = (Path(argv[0]) if argv else ROOT).resolve() / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import llmevolve
    import workloads
    from llmevolve import engine

    if Path(llmevolve.__file__).resolve().parent != src / "llmevolve":
        print(f"llmevolve was imported from {llmevolve.__file__}, not from {src}", file=sys.stderr)
        return 2
    runs = {
        "replay": workloads.replay(SEED, WORKERS),
        "latency": workloads.latency(SEED, WORKERS, delay_s=0),
        "mixed": workloads.mixed(SEED, WORKERS),
        "mixed_straight": workloads.mixed(SEED, WORKERS, segments=[]),
    }
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in runs.items():
            results[name] = run_workload(engine, workload, Path(tmp) / name)
            for kind, digest in results[name].items():
                print(f"{name:<15} {kind:<10} {digest}", flush=True)
    differing = [kind for kind, digest in results["mixed"].items() if results["mixed_straight"][kind] != digest]
    if differing:
        print(f"segmented and straight mixed differ in: {', '.join(differing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

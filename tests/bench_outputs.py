"""Digests of what the benchmark's workloads write, at seed 7.

    python3 tests/bench_outputs.py [CHECKOUT]
    python3 tests/bench_outputs.py --against REV

Runs ``replay``, undelayed ``latency``, segmented ``mixed`` (its segments
through ``engine.resume``) and straight ``mixed`` from this repository's
``perfbench/workloads.py`` on two sandbox workers, with the ``llmevolve``
package in ``CHECKOUT/src`` (this checkout's by default), in a temporary
directory. For each run it prints the sha256 of ``events.jsonl``, of
``best/`` (each file's name and bytes) and of ``solutions.jsonl`` with its
lines sorted, since islands append to it concurrently. A change that must
not alter what a run writes prints the same lines as its parent checkout.

Exits 1 if segmented and straight ``mixed`` differ in any of the three.

With ``--against REV``, it checks the git revision ``REV`` out into a
temporary worktree, prints the digests of REV's package and then of this
checkout's, each run in its own process, removes the worktree, and exits 1
if any digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
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


def side_digests(checkout: Path, title: str) -> list[str]:
    """The digest lines that a run of this script on ``checkout`` prints, echoed under ``title``."""
    print(f"== {title}", flush=True)
    proc = subprocess.run([sys.executable, __file__, str(checkout)], stdout=subprocess.PIPE, text=True)
    print(proc.stdout, end="", flush=True)
    if proc.returncode:
        raise SystemExit(proc.returncode)
    return proc.stdout.splitlines()


def against(rev: str) -> int:
    worktree = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        checkout = Path(tmp) / "rev"
        subprocess.run([*worktree, "add", "--detach", "--quiet", str(checkout), rev], check=True)
        try:
            theirs = side_digests(checkout, rev)
        finally:
            subprocess.run([*worktree, "remove", "--force", str(checkout)], check=True)
    ours = side_digests(ROOT, "this checkout")
    differing = sorted({" ".join(line.split()[:2]) for line in set(ours) ^ set(theirs)})
    if differing:
        print(f"{rev} and this checkout differ in: {', '.join(differing)}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Print digests of what the benchmark's workloads write.")
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT, help="checkout whose src/ to run")
    parser.add_argument("--against", metavar="REV", help="compare REV's digests with this checkout's")
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    src = args.checkout.resolve() / "src"
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

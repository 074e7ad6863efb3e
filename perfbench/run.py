"""Benchmark for llmevolve: end-to-end metrics per workload, per-layer split on request.

Run from the repository root, offline and without an API key:

    python3 perfbench/run.py                        # every workload, end to end
    python3 perfbench/run.py --workload mixed --seed 3 --seconds 36 --trace 1

Each invocation generates its workload's inputs from ``--seed``, drives the
engine through the public ``engine.run`` / ``engine.resume`` entry points for
about ``--seconds`` seconds, checks the outputs, prints every metric with its
unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs once
untraced and once with spans around every layer's public calls, and reports
the per-layer split. The checks, any of which makes the exit code non-zero:

* the event log is byte-identical across the runs of one invocation;
* ``latency``'s log equals an undelayed replay of the same inputs, and
  ``mixed``'s segmented log equals a straight-through run;
* the best objective in the run summary and in ``best/summary.json`` equals
  an independent re-score of ``best/artifact.json`` (of the original's stored
  artifact when the best solution is a migrant copy, which the engine does
  not export: printed as a known defect);
* every run finishes without raising, and reading it back with
  ``engine.resume`` gives the same summary.

Candidates that end in a status the workload did not script count as
failed. Run directories, spans and result files go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"

END_TO_END = {
    "wall_s": "s",
    "candidates_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "setup_s": "s",
    "cpu_ms_per_candidate": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}

# Typical wall time of one full run on two cores. An invocation makes as
# many runs as fit in ``--seconds`` by this estimate, and at least two
# (which shows determinism), except on ``latency``, which shows it against
# its undelayed twin. The count does not depend on the measured times, so a
# slow run does not cut its invocation short and skew the median.
NOMINAL_RUN_S = {"replay": 12.0, "latency": 22.0, "mixed": 6.5}
MIN_RUNS = {"replay": 2, "latency": 1, "mixed": 2}
SETUP_SAMPLES = 3


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_kb") or "_kb_" in metric:
        return "KiB"
    if metric.endswith("_share"):
        return "share"
    if metric.endswith(("concurrency", "cpu_util")):
        return "ratio"
    return "count"


def load_program():
    """Import llmevolve from this checkout's ``src``; None when it is absent."""
    src = ROOT / "src"
    if not (src / "llmevolve" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import llmevolve

    if Path(llmevolve.__file__).resolve().parent != (src / "llmevolve").resolve():
        return None
    return llmevolve


@dataclass
class RunRecord:
    """One engine run: straight through, as segments, or up to epoch 1."""

    wall_s: float
    setup_s: Optional[float]
    step_ms: list[float]
    cpu_s: float
    child_cpu_s: float
    finalised: int
    failed: int
    digest: str
    errors: list[str] = field(default_factory=list)
    rescore_mismatches: list[str] = field(default_factory=list)
    probe_gaps: list[str] = field(default_factory=list)
    known_defects: list[str] = field(default_factory=list)
    statuses: dict[str, int] = field(default_factory=dict)


def execute(workload, run_dir: Path, trace=None, setup_only: bool = False) -> RunRecord:
    """Run ``workload`` in a fresh ``run_dir`` and check what it wrote."""
    from llmevolve import engine
    from probes import StepProbe, rusage_s

    if run_dir.exists():
        shutil.rmtree(run_dir)
    workload.write_inputs(run_dir)
    gc.collect()  # start every run from a collected heap
    stops = [1] if setup_only else workload.segments + [None]
    probe = StepProbe(workload)
    summary, read_back, error = None, None, None
    with contextlib.ExitStack() as stack:
        probe.install(stack)
        if trace is not None:
            trace.install(stack)
        cpu0, kids0 = rusage_s()
        t0 = time.perf_counter()
        try:
            for i, stop in enumerate(stops):
                backend = workload.make_backend(run_dir)
                if trace is not None:
                    backend = trace.wrap_backend(backend)
                if i == 0:
                    summary = engine.run(workload.config, run_dir, backend=backend, stop_after_epoch=stop)
                else:
                    summary = engine.resume(run_dir, backend=backend, stop_after_epoch=stop)
            if not setup_only:
                # Read the finished run back, as ``llmevolve resume`` does; this
                # puts a checkpoint load in every workload.
                read_back = engine.resume(run_dir, backend=workload.make_backend(run_dir))
        except Exception:  # reported as a failed check and failed candidates
            error = "run raised " + traceback.format_exc()
        wall = time.perf_counter() - t0
        cpu1, kids1 = rusage_s()

    log = run_dir / engine.EVENT_LOG_NAME
    record = RunRecord(
        wall_s=wall,
        setup_s=None if probe.first_step is None else probe.first_step - t0,
        step_ms=probe.step_ms,
        cpu_s=cpu1 - cpu0,
        child_cpu_s=kids1 - kids0,
        finalised=probe.finalised,
        failed=len(probe.unscripted),
        digest=hashlib.sha256(log.read_bytes()).hexdigest() if log.exists() else "",
    )
    if error:
        record.errors.append(error)
    elif not setup_only and read_back != summary:
        record.errors.append(f"resuming the finished run gave {read_back}, not {summary}")
    # The probes patch module attributes; if the engine stops calling
    # through them, the timings would be missing rather than fast.
    cfg = workload.config
    steps = cfg.num_islands * (1 if setup_only else cfg.epochs)
    if record.setup_s is None or len(record.step_ms) != steps:
        record.probe_gaps.append(
            f"probes saw {len(record.step_ms)} of {steps} steps"
            + ("" if record.setup_s is not None else " and no end of set-up")
        )
    if setup_only:
        return record
    record.failed += max(0, workload.attempted - probe.finalised)
    for line in log.read_text(encoding="utf-8").splitlines() if log.exists() else []:
        event = json.loads(line)
        if event["type"] in ("init", "step"):
            record.statuses[event["status"]] = record.statuses.get(event["status"], 0) + 1
    if summary is not None and not summary.finished:
        record.errors.append("run did not finish")
    if summary is not None:
        record.rescore_mismatches, record.known_defects = rescore_mismatches(
            workload.config.problem_id, run_dir, summary
        )
    return record


def best_artifact(run_dir: Path, best_id: str) -> tuple[Optional[Path], list[str]]:
    """The artifact the engine stored for the best solution, and known defects seen.

    ``best/artifact.json`` is that artifact when the engine exported it. The
    engine does not export it when the best solution is a migrant copy
    (``Engine.export_best`` looks under the copy's own id, while the artifact
    was stored under the id of the solution it was copied from). That case is
    reported as a known defect and the re-score uses the stored original;
    a missing artifact in any other case is returned as ``None``.
    """
    from llmevolve import engine

    exported = run_dir / "best" / "artifact.json"
    if exported.is_file():
        return exported, []
    _, state = engine.load_latest_checkpoint(run_dir)
    by_id = {s.id: s for island in state.islands for s in island.all_solutions()}
    sol = by_id.get(best_id)
    while sol is not None and "original_id" in sol.provenance:
        sol = by_id.get(sol.provenance["original_id"])
        stored = run_dir / "solutions" / f"{sol.id}.artifact.json" if sol else None
        if stored is not None and stored.is_file():
            return stored, [
                f"best/artifact.json not exported: best solution {best_id} is a migrant "
                f"copy of {sol.id}, whose stored artifact was re-scored instead"
            ]
    return None, []


def rescore_mismatches(problem_id: str, run_dir: Path, summary) -> tuple[list[str], list[str]]:
    """Compare the reported best objective with a re-score of the best artifact.

    Returns the mismatches and the known defects seen on the way.
    """
    from llmevolve import problems

    artifact, known = best_artifact(run_dir, summary.best_solution_id)
    if artifact is None:
        return [f"best/artifact.json is missing (best solution {summary.best_solution_id})"], known
    report = problems.score_artifact(
        problem_id, problems.parse_artifact(problem_id, artifact.read_bytes())
    )
    reported = json.loads((run_dir / "best" / "summary.json").read_text(encoding="utf-8"))["objective"]
    rescored = report.metrics.get("objective")
    if not report.valid or not rescored == summary.best_objective == reported:
        return [
            f"best objective {summary.best_objective!r} (summary.json {reported!r}) "
            f"!= re-scored {rescored!r} of {artifact.relative_to(run_dir)} (valid={report.valid})"
        ], known
    return [], known


def twin_of(name: str, seed: int, workers: int):
    """The run whose event log this workload's must equal, if any."""
    import workloads

    if name == "latency":
        return workloads.latency(seed, workers, delay_s=0.0)
    if name == "mixed":
        return workloads.mixed(seed, workers, segments=[])
    return None


def environment(workers: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sandbox_workers": workers,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns its result document."""
    import workloads
    from probes import LayerTrace
    from spans import percentile

    workers = len(os.sched_getaffinity(0))
    env = environment(workers)
    workload = workloads.WORKLOADS[name](seed, workers)
    base = OUT / "runs" / f"{name}-{seed}"
    runs: list[RunRecord] = []
    checked_only: list[RunRecord] = []  # set-up runs and the twin: checked, not reported
    metrics: dict[str, float] = {}
    notes: list[str] = []
    # The twin runs first, so it also warms the file cache and the imports
    # before the measured runs.
    twin = twin_of(name, seed, workers)
    if twin is not None:
        twin_run = execute(twin, base / "twin")
        checked_only.append(twin_run)

    if trace:
        runs.append(execute(workload, base / "untraced"))
        layers = LayerTrace(f"{name}-{seed}-traced", workload.config.problem_id)
        traced = execute(workload, base / "traced", trace=layers)
        runs.append(traced)
        metrics = layers.metrics(
            traced.wall_s, traced.cpu_s + traced.child_cpu_s, traced.child_cpu_s,
            env["nproc"], base / "traced",
        )
        metrics["trace.overhead_s"] = traced.wall_s - runs[0].wall_s
        notes.append(f"wall_s: untraced {runs[0].wall_s:.3f}, traced {traced.wall_s:.3f}")
        layers.tracer.write(OUT / "traces" / f"{name}-seed{seed}.jsonl")
    else:
        count = max(MIN_RUNS[name], int(seconds // NOMINAL_RUN_S[name]))
        runs = [execute(workload, base / f"run{i}") for i in range(count)]
        setups = [r.setup_s for r in runs if r.setup_s is not None]
        while len(setups) < SETUP_SAMPLES:
            checked_only.append(execute(workload, base / "setup", setup_only=True))
            if checked_only[-1].probe_gaps:
                break
            setups.append(checked_only[-1].setup_s)
        # Percentiles per run, then the median over runs: a run slowed by the
        # host moves the median less than it would move pooled percentiles.
        timed = [r.step_ms for r in runs if r.step_ms]
        p50 = statistics.median(percentile(ms, 50)[0] for ms in timed) if timed else 0.0
        p95 = statistics.median(percentile(ms, 95)[0] for ms in timed) if timed else 0.0
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "candidates_per_s": statistics.median(r.finalised / r.wall_s for r in runs),
            "step_p50_ms": p50,
            "step_p95_ms": p95,
            "setup_s": statistics.median(setups) if setups else 0.0,
            "cpu_ms_per_candidate": statistics.median(
                1e3 * (r.cpu_s + r.child_cpu_s) / max(r.finalised, 1) for r in runs
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": 1.0 - sum(r.failed for r in runs) / (workload.attempted * len(runs)),
        }
        notes.append(
            f"samples: {len(runs)} runs, {'/'.join(str(len(ms)) for ms in timed)} steps, "
            f"{len(setups)} set-ups; step percentiles are medians over runs"
        )
        notes.append("run wall_s: " + " ".join(f"{r.wall_s:.3f}" for r in runs))
        notes.append("run cpu_s: " + " ".join(f"{r.cpu_s + r.child_cpu_s:.3f}" for r in runs))

    checks: dict[str, bool] = {}
    digests = {r.digest for r in runs}
    checks[f"event log equal across {len(runs)} runs"] = len(digests) == 1 and "" not in digests
    if twin is not None:
        label = "undelayed replay" if name == "latency" else "straight-through run"
        checks[f"event log equals {label}"] = digests == {twin_run.digest}
    problems = [p for r in runs + checked_only for p in r.errors]
    checks["every run finishes"] = not problems
    mismatches = [p for r in runs + checked_only for p in r.rescore_mismatches]
    checks["best objective equals a re-score of the best solution's artifact"] = not mismatches
    problems += mismatches
    gaps = [p for r in runs + checked_only for p in r.probe_gaps]
    checks["probes timed every step and the set-up"] = not gaps
    problems += gaps

    attempted = workload.attempted * len(runs)
    failed = sum(r.failed for r in runs)
    statuses: dict[str, int] = {}
    for r in runs:
        for status, count in r.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
    total = sum(statuses.values()) or 1
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "environment": env,
        "config": {k: v for k, v in vars(workload.config).items() if isinstance(v, (int, float, str))},
        "delay_s": workload.delay_s,
        "segments": workload.segments,
        "scripted_shares": workload.scripted_shares(),
        "status_shares": {s: c / total for s, c in sorted(statuses.items())},
        "fail_share": failed / attempted,
        "checks": checks,
        "problems": problems,
        "known_defects": sorted({d for r in runs + checked_only for d in r.known_defects}),
        "notes": notes,
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)} for k, v in metrics.items()
        },
    }


def print_result(result: dict) -> None:
    env = result["environment"]
    print(
        f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    )
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"  fail_share {result['fail_share']:.6g} ({result['failed']} of {result['attempted']} attempted)")
    print(f"  scripted shares {json.dumps(result['scripted_shares'], sort_keys=True)}")
    print(f"  status shares   {json.dumps(result['status_shares'], sort_keys=True)}")
    for note in result["notes"]:
        print(f"  {note}")
    for check, ok in result["checks"].items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for defect in result["known_defects"]:
        print(f"  known defect (not a failed check): {defect}")


WORKLOAD_NAMES = ("replay", "latency", "mixed")


def run_all(args: argparse.Namespace) -> int:
    """Run each workload in a process of its own, so each has its own peak RSS."""
    finals = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        finals[name] = json.loads(lines[-1])
    final = {
        "correct": all(f["correct"] for f in finals.values()),
        "attempted": sum(f["attempted"] for f in finals.values()),
        "failed": sum(f["failed"] for f in finals.values()),
        "metrics": {f"{n}.{k}": v for n, f in finals.items() for k, v in f["metrics"].items()},
    }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument(
        "--trace", type=int, default=0, choices=[0, 1],
        help="1: one untraced and one traced run, per-layer metrics (ignores --seconds)",
    )
    args = parser.parse_args(argv)

    if load_program() is None:
        print(f"llmevolve sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    # Candidate working directories stay inside the checkout.
    tempfile.tempdir = str(OUT / "tmp")

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / "results" / name).write_text(json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")
    shutil.rmtree(OUT / "runs" / f"{args.workload}-{args.seed}", ignore_errors=True)
    final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run orchestration: epoch loop, evaluation pipeline, migration, lifecycle.

The engine owns all state mutation. Every run lives in a run directory
containing the config snapshot, a line-delimited JSON event log, per-solution
code (with its logs and artifact when they hold something), checkpoints, and
the best artifact found. With the replay backend and a fixed master seed,
two runs emit byte-identical event logs.

``run`` builds a fresh ``RunState`` and ``resume`` loads the latest intact
one; both build the backend first, so a missing or malformed replay
transcript is a ``ConfigError`` before anything is written, and hand the
state to ``_run_from``, which truncates the event log to the state's position
and runs the remaining epochs. Each island step is one operator call, to
``operators.evolve_step`` or, under the no-evolution ablation,
``operators.no_evolution_step``; the operator decides the variation, and the
engine evaluates and inserts its offspring.

Islands share nothing between migrations, so each island runs as one job on
its own thread up to the next barrier: a migration epoch, a requested stop,
or the end of the run; its first job sets it up before its first step, and
sends the set-up's ``init_population`` model calls at once. Every model call
carries the key ``(island, index)`` that the island assigned it, so replay
does not depend on the order in which calls arrive. Jobs queue candidates,
one at a time per island, on one FIFO pool of ``sandbox_workers`` threads,
each of which runs them on an idle warm launcher (see
``sandbox.Launcher``); ``close`` reaps the launchers. At the barrier the
engine writes the jobs' buffered events in canonical order (init events by
island, then step events by epoch and island), migrates if the epoch is a
migration epoch, and writes one checkpoint per barrier. At the end of the
run it exports ``best/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import queue
import random
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import yaml

from . import llm, operators, sandbox
from .config import ConfigError, RunConfig
from .core import (
    STATUS_GENERATION_FAILED,
    STATUS_INVALID_ARTIFACT,
    STATUS_MEMORY_EXCEEDED,
    STATUS_PENDING,
    STATUS_RUNTIME_ERROR,
    STATUS_TIMEOUT,
    STATUS_VALID,
    IslandState,
    Solution,
)
from .operators import IslandRngs
from .problems import ArtifactError, ProblemSpec, get_problem

EVENT_LOG_NAME = "events.jsonl"
TRANSCRIPT_NAME = "transcripts.jsonl"
CONFIG_SNAPSHOT_NAME = "config.yaml"
FEEDBACK_TAIL_CHARS = 2000

# Solution status after each sandbox outcome; a clean exit stays valid only
# if its artifact parses and scores as valid.
_EXECUTION_STATUS = {
    sandbox.STATUS_OK: STATUS_VALID,
    sandbox.STATUS_NONZERO_EXIT: STATUS_RUNTIME_ERROR,
    sandbox.STATUS_SPAWN_ERROR: STATUS_RUNTIME_ERROR,
    sandbox.STATUS_TIMEOUT: STATUS_TIMEOUT,
    sandbox.STATUS_MEMORY_EXCEEDED: STATUS_MEMORY_EXCEEDED,
}


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, or fails its digest."""


@dataclass
class RunState:
    """What a checkpoint holds: only what a run cannot recompute."""

    islands: list[IslandState]
    rngs: list[IslandRngs]
    epoch: int = 0
    event_log_pos: int = 0


@dataclass
class RunSummary:
    problem_id: str
    epochs_run: int
    best_island: int
    best_solution_id: Optional[str]
    best_fitness: float
    best_objective: Optional[float]
    migration_events: int
    step_counts: dict[str, int]
    finished: bool


def _derive_rng(master_seed: int, island: int, stream: str) -> random.Random:
    blob = f"{master_seed}:{island}:{stream}".encode()
    seed = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    return random.Random(seed)


def _solution_event(kind: str, sol: Solution, insert: str, **extra) -> dict:
    return {
        "type": kind,
        "island": sol.island_id,
        "solution": sol.id,
        "status": sol.status,
        "fitness": sol.fitness,
        "objective": sol.metrics.get("objective"),
        "insert": insert,
        **extra,
    }


def make_backend(config: RunConfig, run_dir: Path):
    """The configured backend; a missing or malformed transcript is a ``ConfigError``."""
    if config.backend != "replay":
        return llm.HttpBackend(config.base_url)
    try:
        return llm.ReplayBackend.from_file(run_dir / TRANSCRIPT_NAME)
    except (OSError, ValueError) as exc:  # each names the transcript's path
        raise ConfigError(f"cannot load the replay transcript: {exc}") from exc


class _Run:
    """One in-progress run bound to its directory, config and backend."""

    def __init__(self, config: RunConfig, run_dir: Path, backend, state: RunState):
        self.config = config
        self.run_dir = run_dir
        self.backend = backend
        self.state = state
        self.problem: ProblemSpec = get_problem(config.problem_id)
        self.migrating = config.migrates()
        (run_dir / "solutions").mkdir(parents=True, exist_ok=True)
        (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
        # Events past the checkpointed position belong to epochs run again.
        self._event_fh = open(run_dir / EVENT_LOG_NAME, "a", encoding="utf-8")
        self._event_fh.truncate(state.event_log_pos)
        self._island_pool = ThreadPoolExecutor(max_workers=config.num_islands)
        workers = config.sandbox_workers or config.num_islands
        # Candidates wait in this pool's FIFO queue, so no island overtakes another.
        self._sandbox_pool = ThreadPoolExecutor(max_workers=workers)
        # One warm launcher per sandbox worker; each starts on first use.
        self._launchers = [sandbox.Launcher(config.interpreter) for _ in range(workers)]
        self._idle_launchers: queue.SimpleQueue = queue.SimpleQueue()
        for launcher in self._launchers:
            self._idle_launchers.put(launcher)
        self._abort = threading.Event()

    def _emit(self, record: dict) -> None:
        self._event_fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._event_fh.flush()

    # -- evaluation --

    def evaluate(self, sol: Solution) -> Solution:
        """Execute, parse and score one pending candidate, finalizing it in place."""
        launcher = self._idle_launchers.get()
        try:
            outcome = sandbox.run_candidate(
                sol.code, self.config.limits, launcher, self.problem.max_artifact_bytes
            )
        finally:
            self._idle_launchers.put(launcher)
        self._store_logs(sol, outcome)
        sol.status = _EXECUTION_STATUS[outcome.status]
        if sol.status != STATUS_VALID:
            return sol
        if outcome.artifact_size is None:
            sol.status = STATUS_INVALID_ARTIFACT
            sol.feedback = (sol.feedback or "") + "\nno artifact file was written"
            return sol
        limit = self.problem.max_artifact_bytes
        try:
            if outcome.artifact is None:  # too long for the sandbox to read
                raise ArtifactError(f"{outcome.artifact_size} bytes, more than the {limit} allowed")
            report = self.problem.scorer(self.problem.parser(outcome.artifact))
        except ArtifactError as exc:
            sol.status = STATUS_INVALID_ARTIFACT
            sol.feedback = f"invalid artifact: {exc}"
            return sol
        except Exception as exc:  # a scorer fault fails this candidate, not the run
            sol.status = STATUS_INVALID_ARTIFACT
            sol.feedback = f"invalid artifact: scorer raised {type(exc).__name__}: {exc}"
            return sol
        if report.valid:
            sol.metrics = dict(report.metrics)
            sol.fitness = report.fitness
            (self.run_dir / f"{sol.log_ref}.artifact.json").write_bytes(outcome.artifact)
        else:
            sol.status = STATUS_INVALID_ARTIFACT
            sol.feedback = "constraint violations: " + ", ".join(
                f"{k}={v:.3g}" for k, v in sorted(report.violations.items())
            )
        return sol

    def _store_logs(self, sol: Solution, outcome: sandbox.ExecutionOutcome) -> None:
        base = self.run_dir / "solutions" / sol.id
        base.with_suffix(".py").write_text(sol.code, encoding="utf-8")
        # Only a log that holds something is stored, and ``evaluate`` stores
        # only a valid artifact. A file that an earlier, killed evaluation of
        # this candidate left goes: unseeded code may print something else.
        for suffix, text in ((".stdout", outcome.stdout), (".stderr", outcome.stderr)):
            if text:
                base.with_suffix(suffix).write_text(text, encoding="utf-8")
            else:
                base.with_suffix(suffix).unlink(missing_ok=True)
        base.with_suffix(".artifact.json").unlink(missing_ok=True)
        sol.log_ref = f"solutions/{sol.id}"
        tail = (outcome.stderr or outcome.stdout)[-FEEDBACK_TAIL_CHARS:]
        if outcome.status != sandbox.STATUS_OK:
            sol.feedback = f"execution {outcome.status}:\n{tail}" if tail else f"execution {outcome.status}"
        elif tail:
            sol.feedback = tail

    def _island_jobs(self, job) -> list:
        """Run ``job(island, rngs)`` for every island at once; results in island order.

        The first failure, or an interrupt, is raised as soon as it happens,
        and the other islands' step loops stop before their next step.
        """
        futures = [
            self._island_pool.submit(job, island, rngs)
            for island, rngs in zip(self.state.islands, self.state.rngs)
        ]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
            for f in futures:
                if f.done():
                    f.result()
        except BaseException:
            self._abort.set()
            raise
        return [f.result() for f in futures]

    # -- lifecycle --

    def _set_up(self, island: IslandState, rngs: IslandRngs) -> list[dict]:
        """Set up an empty island: generate and evaluate its roots; returns their events."""
        _, pending, failures = operators.initialize_island(island, self.config, self.backend, rngs)
        for sol in pending:
            self._sandbox_pool.submit(self.evaluate, sol).result()
        events = []
        for sol in pending + failures:
            if sol.status == STATUS_GENERATION_FAILED:
                island.archive_solution(sol)
                insert = "not_attempted"
            else:
                insert = island.try_insert(sol).outcome
            events.append(_solution_event("init", sol, insert))
        return events

    def _step(self, island: IslandState, rngs: IslandRngs, epoch: int) -> dict:
        """One epoch on one island: vary, evaluate, insert; returns its event."""
        cfg = self.config
        vary = operators.evolve_step if cfg.ablation.evolution else operators.no_evolution_step
        outcome = vary(island, cfg, self.backend, rngs, epoch)
        sol = outcome.new_solution
        if sol.status == STATUS_PENDING:
            self._sandbox_pool.submit(self.evaluate, sol).result()
        return _solution_event(
            "step",
            sol,
            island.try_insert(sol).outcome,
            epoch=epoch,
            operator=outcome.operator,
            model=outcome.model_used,
            parent=sol.parent_id,
            inspirations=len(outcome.inspiration_ids),
        )

    def run_epochs(self, stop_after_epoch: Optional[int] = None) -> RunSummary:
        cfg = self.config
        state = self.state
        while state.epoch < cfg.epochs:
            first = state.epoch + 1
            last = cfg.epochs
            if self.migrating:  # the first migration epoch at or after ``first``
                last = min(last, -(-first // cfg.migration_every) * cfg.migration_every)
            if stop_after_epoch is not None:
                last = min(last, max(first, stop_after_epoch))

            def job(island: IslandState, rngs: IslandRngs) -> list[list[dict]]:
                rows = [self._set_up(island, rngs) if first == 1 else []]
                for epoch in range(first, last + 1):
                    if self._abort.is_set():  # the run failed elsewhere
                        break
                    rows.append([self._step(island, rngs, epoch)])
                return rows

            # Init events by island, then step events by epoch and island.
            for row in zip(*self._island_jobs(job)):
                for events in row:
                    for event in events:
                        self._emit(event)
            state.epoch = last
            migrated = self.migrating and last % cfg.migration_every == 0
            if migrated:
                for event in self.migrate(last):
                    self._emit(event)
            stopping = stop_after_epoch is not None and last >= stop_after_epoch
            if migrated or stopping or last == cfg.epochs:
                self.checkpoint()
            if stopping and last < cfg.epochs:
                return self.summary(finished=False)
        self.export_best()
        return self.summary(finished=True)

    # -- migration --

    def migrate(self, epoch: int) -> list[dict]:
        """Copy each island's top eligible solutions to its topology neighbors; return the events."""
        cfg = self.config
        state = self.state
        neighbors = cfg.neighbors()
        plans: list[tuple[int, list[Solution]]] = []
        for island in state.islands:
            pop = island.live()
            count = cfg.migrants_per_island(len(pop))
            eligible = [s for s in pop if not s.has_migrated]
            eligible.sort(key=lambda s: (-s.fitness, s.epoch_created, s.id))
            plans.append((island.id, eligible[:count]))
        events: list[dict] = []
        for source_id, migrants in plans:
            dests = neighbors[source_id]
            for sol in migrants:
                sol.has_migrated = True
            for dest_id in dests:
                dest = state.islands[dest_id]
                for sol in migrants:
                    prompt_copy = replace(
                        state.islands[source_id].lookup_prompt(sol.parent_prompt_id),
                        id=dest.next_prompt_id(),
                        island_id=dest_id,
                        parent_solution_id=None,
                        epoch_created=epoch,
                    )
                    dest.add_prompt(prompt_copy)
                    copy = replace(
                        sol,
                        id=dest.next_solution_id(),
                        island_id=dest_id,
                        parent_id=None,  # migrants root a fresh tree
                        parent_prompt_id=prompt_copy.id,
                        epoch_created=epoch,
                        metrics=dict(sol.metrics),
                        has_migrated=False,
                        provenance={"migrated_from": source_id, "original_id": sol.id},
                    )
                    dest.try_insert(copy)
            events.append(
                {
                    "type": "migration",
                    "epoch": epoch,
                    "source": source_id,
                    "dest": list(dests),
                    "migrants": [s.id for s in migrants],
                }
            )
        return events

    # -- checkpointing --

    def checkpoint(self) -> Path:
        self._event_fh.flush()
        self.state.event_log_pos = (self.run_dir / EVENT_LOG_NAME).stat().st_size
        payload = pickle.dumps({"config": self.config, "state": self.state})
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path = self.run_dir / "checkpoints" / f"epoch_{self.state.epoch:05d}.ckpt"
        # Written whole under a name outside the ``epoch_*.ckpt`` glob, then
        # renamed, so a crash never leaves a partial newest checkpoint.
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(digest + b"\n" + payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    # -- reporting --

    def best_solution(self) -> Optional[Solution]:
        """The fittest valid solution; the first found on a tie."""
        islands = self.state.islands
        valid = (s for i in islands for s in i.all_solutions() if s.status == STATUS_VALID)
        return max(valid, key=lambda s: s.fitness, default=None)

    def export_best(self) -> None:
        best = self.best_solution()
        if best is None:
            return
        best_dir = self.run_dir / "best"
        best_dir.mkdir(exist_ok=True)
        (best_dir / "solution.py").write_text(best.code, encoding="utf-8")
        # Migrant copies share the log_ref, and so the artifact, of their original.
        artifact = self.run_dir / f"{best.log_ref}.artifact.json"
        if artifact.exists():
            (best_dir / "artifact.json").write_bytes(artifact.read_bytes())
        (best_dir / "summary.json").write_text(
            json.dumps(
                {
                    "solution": best.id,
                    "island": best.island_id,
                    "fitness": best.fitness,
                    "objective": best.metrics.get("objective"),
                    "problem": self.config.problem_id,
                },
                indent=2,
                sort_keys=True,
            ),
            encoding="utf-8",
        )

    def summary(self, finished: bool) -> RunSummary:
        best = self.best_solution()
        # Migrations done by the end of ``state.epoch``; each logs one record per island.
        migrations = self.config.migrations_before(self.state.epoch + 1)
        counts: dict[str, int] = {}
        for island in self.state.islands:
            for sol in island.all_solutions():
                counts[sol.status] = counts.get(sol.status, 0) + 1
        return RunSummary(
            problem_id=self.config.problem_id,
            epochs_run=self.state.epoch,
            best_island=best.island_id if best else -1,
            best_solution_id=best.id if best else None,
            best_fitness=best.fitness if best else 0.0,
            best_objective=best.metrics.get("objective") if best else None,
            migration_events=self.config.num_islands * migrations,
            step_counts=counts,
            finished=finished,
        )

    def close(self) -> None:
        self._island_pool.shutdown()
        self._sandbox_pool.shutdown()
        for launcher in self._launchers:  # reaped, so their CPU time is counted
            launcher.close()
        self._event_fh.close()


def run(
    config: RunConfig,
    run_dir: str | Path,
    backend=None,
    stop_after_epoch: Optional[int] = None,
) -> RunSummary:
    """Execute a fresh run from epoch 1 to config.epochs in ``run_dir``."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if backend is None:  # before the snapshot, so a bad transcript leaves no config behind
        backend = make_backend(config, run_dir)
    _write_config_snapshot(config, run_dir)
    islands = [
        IslandState(i, capacity=config.max_population) for i in range(config.num_islands)
    ]
    rngs = [
        IslandRngs(
            coin=_derive_rng(config.master_seed, i, "coin"),
            select=_derive_rng(config.master_seed, i, "select"),
            model=_derive_rng(config.master_seed, i, "model"),
        )
        for i in range(config.num_islands)
    ]
    state = RunState(islands=islands, rngs=rngs)
    return _run_from(config, run_dir, state, backend, stop_after_epoch)


def resume(
    run_dir: str | Path,
    backend=None,
    stop_after_epoch: Optional[int] = None,
) -> RunSummary:
    """Continue a checkpointed run to completion.

    Restores the latest intact checkpoint exactly: the event log is truncated
    to the checkpointed position and the remaining epochs are executed once
    each. Resuming a finished run only exports ``best/`` again and returns its
    summary.
    """
    run_dir = Path(run_dir)
    config, state = load_latest_checkpoint(run_dir)
    if backend is None:
        backend = make_backend(config, run_dir)
    return _run_from(config, run_dir, state, backend, stop_after_epoch)


def _run_from(
    config: RunConfig, run_dir: Path, state: RunState, backend, stop_after_epoch
) -> RunSummary:
    """Run ``state`` from its epoch: the one path behind ``run`` and ``resume``."""
    runner = _Run(config, run_dir, backend, state)
    try:
        return runner.run_epochs(stop_after_epoch=stop_after_epoch)
    finally:
        runner.close()


def load_latest_checkpoint(run_dir: Path) -> tuple[RunConfig, RunState]:
    """Load the newest checkpoint that passes its integrity check."""
    error = CheckpointError(f"no checkpoints in {run_dir}")
    for path in sorted((run_dir / "checkpoints").glob("epoch_*.ckpt"), reverse=True):
        try:
            return load_checkpoint(path)
        except CheckpointError as exc:
            error = exc
    raise error


def load_checkpoint(path: Path) -> tuple[RunConfig, RunState]:
    blob = path.read_bytes()
    sep = blob.find(b"\n")
    if sep != 64:
        raise CheckpointError(f"checkpoint {path} is malformed")
    digest, payload = blob[:sep], blob[sep + 1:]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        raise CheckpointError(f"checkpoint {path} failed its integrity check")
    doc = pickle.loads(payload)
    return doc["config"], _declared_state(doc["state"])


def _declared(cls, old, **init):
    """A fresh ``cls(**init)`` that takes ``old``'s value of each other field it declares."""
    new = cls(**init)
    held = vars(old)
    for name in vars(new).keys() - init.keys():
        if name in held:
            setattr(new, name, held[name])
    return new


def _declared_state(old: RunState) -> RunState:
    """``old`` rebuilt from the fields that ``RunState``, ``IslandState`` and
    ``Solution`` declare today, so that a field an older checkpoint held is
    not pickled again into every later one.

    An older checkpoint kept each island's next model-call index in the
    replay backend's counters (``backend_state``); those become the islands'.
    """
    counters = vars(old).get("backend_state") or {}
    islands = []
    for island in old.islands:
        new = _declared(IslandState, island, island_id=island.id, capacity=island.capacity)
        if "_call_counter" not in vars(island):
            new._call_counter = counters.get(island.id, 0)
        for pool in (new.solutions, new.archive):
            for sid, sol in pool.items():
                pool[sid] = _declared(Solution, sol, id=sol.id, island_id=sol.island_id, code=sol.code)
        islands.append(new)
    return _declared(RunState, old, islands=islands, rngs=old.rngs)


def _write_config_snapshot(config: RunConfig, run_dir: Path) -> None:
    """Write the complete config; ``load_config`` reads it back equal."""
    (run_dir / CONFIG_SNAPSHOT_NAME).write_text(
        yaml.safe_dump(asdict(config), sort_keys=True), encoding="utf-8"
    )

"""Run orchestration: epoch loop, evaluation pipeline, migration, lifecycle.

The engine owns all state mutation. Every run lives in a run directory
containing the config snapshot, a line-delimited JSON event log, a
line-delimited solutions log (one record per generated candidate: its code,
and its feedback, logs and artifact when they hold something), the newest
two checkpoints, and the best artifact found. With the replay backend and a
fixed master seed, two runs emit byte-identical event logs, since every
launcher's string-hash seed derives from it too; the solutions log holds
the same records in an order that depends on thread timing.

``run`` builds a fresh ``RunState``, in a directory that holds no
checkpoint, and ``resume`` loads the latest intact one; both build the
backend first, so a missing or malformed replay transcript is a
``ConfigError`` before anything is written, and hand the state to
``_run_from``. That starts the run's ``sandbox.LauncherPool``,
every launcher at once and each ready, so an interpreter that cannot start
one is a ``ConfigError`` before anything is written or any model is called
(a run with no epoch left starts none); then it writes a fresh run's config
snapshot, truncates the event and solutions logs to the state's positions
and runs the remaining epochs. A log shorter than its position is refused
with a ``CheckpointError``; an endpoint that refuses the API key
(``llm.KeyRefusedError``) ends the run, which resumes from its last
checkpoint. Each island step is one operator call, to
``operators.evolve_step`` or, under ``evolution: false``,
``operators.no_evolution_step``; the operator decides the variation, and
the engine evaluates and inserts its offspring.

Islands share nothing between migrations, not even random state: each
``IslandState`` holds its own streams, which a checkpoint of the islands
holds too. So each island runs as one job on its own thread up to the next
barrier: a migration epoch, a requested stop, or the end of the run; its
first job sets it up before its first step, and sends the set-up's
``init_population`` model calls at once, the first on the island's thread
and the others on a pool that the engine starts for that set-up. The engine
starts every thread pool of a run. Every model call carries the key
``(island, index)`` that the island assigned it, so replay does not depend
on the order in which calls arrive. An island evaluates each of its
candidates, one at a time, on its own thread, with one call: the pool runs
it on one of the run's ``sandbox_workers`` warm launchers (by default one
per usable CPU, at most one per island), lent in arrival order, and the same
thread then reads the artifact through ``ProblemSpec.read_artifact``, closes
it, parses and scores it, and appends the candidate's record to the
solutions log, under a lock; a generation failure is only recorded. The
pool's launchers stop together when the run returns. At the barrier the
engine writes the jobs' buffered events in canonical order (init events by
island, then step events by epoch and island), migrates if the epoch is a
migration epoch, prunes each island and writes one checkpoint per barrier: a
digest line and a pickle, which is streamed into the file and hashed from it
in chunks, so no second copy of it is held in memory. A load checks the
digest over the whole payload before it unpickles any byte of it. At the end
of the run it exports ``best/``, taking the artifact from the best
solution's record, which starts at its ``log_ref`` byte offset. A summary
counts statuses from the event log's init and step events.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shlex
import signal
import threading
from collections import Counter
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator, Optional

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
    derive_rng,
    ranked,
)
from .problems import ArtifactError, ProblemSpec, get_problem

EVENT_LOG_NAME = "events.jsonl"
SOLUTIONS_LOG_NAME = "solutions.jsonl"
TRANSCRIPT_NAME = "transcripts.jsonl"
CONFIG_SNAPSHOT_NAME = "config.yaml"
FEEDBACK_TAIL_CHARS = 2000
CHECKPOINT_VERSION = 5
KEPT_CHECKPOINTS = 2
_DIGEST_LINE_BYTES = 65  # a checkpoint's first line: 64 hex digits and a newline
_CHUNK_BYTES = 1 << 16

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
    """A checkpoint file is missing, truncated, fails its digest, cannot be
    unpickled, or predates ``CHECKPOINT_VERSION``; or a log is shorter than
    its checkpoint records."""


@dataclass
class RunState:
    """What a checkpoint holds: only what a run cannot recompute."""

    islands: list[IslandState]
    epoch: int = 0
    event_log_pos: int = 0
    solutions_log_pos: int = 0


@dataclass
class RunSummary:
    problem_id: str
    epochs_run: int
    best_solution_id: Optional[str]
    best_fitness: float
    best_objective: Optional[float]
    migration_events: int
    step_counts: dict[str, int]
    finished: bool


def _signal_name(number: int) -> str:
    """``SIGSEGV`` for 11; a real-time signal has no name of its own."""
    try:
        return signal.Signals(number).name
    except ValueError:
        return f"signal {number}"


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


# The keys of each event type that the summary and ``report`` read, each with
# its kind (see ``llm.check_field``, which refuses a bool for each).
_EVENT_KEYS = {"init": {"island": "integer", "status": "string", "fitness": "number"}}
_EVENT_KEYS["step"] = {**_EVENT_KEYS["init"], "epoch": "integer"}


def read_events(run_dir: str | Path) -> Iterator[dict]:
    """The records of ``run_dir``'s event log, in order.

    A line that is not a JSON object with a string ``type``, or an ``init``
    or ``step`` record without a key that its readers need or with one of
    another type, is a ``ValueError`` that names the line.
    """
    path = Path(run_dir) / EVENT_LOG_NAME
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                record = json.loads(line)  # a UnicodeDecodeError is a ValueError too
                if not (isinstance(record, dict) and isinstance(record.get("type"), str)):
                    raise ValueError("not a JSON object with a string type")
                kinds = _EVENT_KEYS.get(record["type"], {})
                missing = [key for key in kinds if key not in record]
                if missing:
                    raise ValueError(f"a {record['type']} event without {', '.join(missing)}")
                for key, kind in kinds.items():
                    llm.check_field(f"a {record['type']} event's {key}", record[key], kind)
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
            yield record


def start_launchers(config: RunConfig, running: bool) -> sandbox.LauncherPool:
    """The run's launcher pool: one launcher per sandbox worker, started at
    once and each ready, or none if the run is not ``running``.

    As many candidates run at once as there are launchers: ``sandbox_workers``,
    by default the CPUs this thread may use, so that no candidate spends its
    wall-time budget waiting for a core, but no more than islands, since each
    island has at most one in flight. Every launcher gets one string-hash
    seed derived from ``master_seed``, so a candidate hashes strings alike on
    any launcher, in a run and its resume. A launcher that cannot start is a
    ``ConfigError`` that names the interpreter, with any unprintable
    character escaped, and quotes the launcher's error, with every one
    reaped.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(config.sandbox_workers or cpus, config.num_islands) if running else 0
    hash_seed = derive_rng(config.master_seed, 0, "hash").getrandbits(32)
    try:
        return sandbox.LauncherPool(config.interpreter, workers, config.limits, hash_seed)
    except sandbox.LauncherError as exc:
        interpreter = "".join(c if c.isprintable() else repr(c)[1:-1] for c in shlex.join(config.interpreter))
        raise ConfigError(f"cannot start a launcher on the interpreter {interpreter}: {exc}") from None


def make_backend(config: RunConfig, run_dir: Path):
    """The configured backend; a transcript that is missing, malformed or not a
    regular file is a ``ConfigError``."""
    if config.backend != "replay":
        return llm.HttpBackend(config.base_url)
    try:
        return llm.ReplayBackend.from_file(run_dir / TRANSCRIPT_NAME)
    except (OSError, ValueError) as exc:  # each names the transcript's path
        raise ConfigError(f"cannot load the replay transcript: {exc}") from exc


class _Run:
    """One in-progress run bound to its directory, config and backend."""

    def __init__(self, config: RunConfig, run_dir: Path, backend, state: RunState, pool: sandbox.LauncherPool):
        self.config = config
        self.run_dir = run_dir
        self.backend = backend
        self.state = state
        self.problem: ProblemSpec = get_problem(config.problem_id)
        self.migrating = config.migrates()
        for name, pos in ((EVENT_LOG_NAME, state.event_log_pos), (SOLUTIONS_LOG_NAME, state.solutions_log_pos)):
            path = run_dir / name
            size = path.stat().st_size if path.exists() else 0
            if size < pos:  # truncating would pad it with NUL bytes
                raise CheckpointError(f"{path} holds {size} bytes, fewer than the {pos} its checkpoint records")
        (run_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
        # Events and solution records past the checkpointed positions belong
        # to epochs run again.
        self._event_fh = open(run_dir / EVENT_LOG_NAME, "a", encoding="utf-8")
        self._event_fh.truncate(state.event_log_pos)
        self._solutions_fh = open(run_dir / SOLUTIONS_LOG_NAME, "ab")
        self._solutions_fh.truncate(state.solutions_log_pos)
        self._solutions_lock = threading.Lock()
        self._island_pool = ThreadPoolExecutor(max_workers=config.num_islands)
        self.pool = pool
        self._abort = threading.Event()

    def _emit(self, record: dict) -> None:
        self._event_fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._event_fh.flush()

    # -- evaluation --

    def evaluate(self, sol: Solution) -> Solution:
        """Finalize one candidate in place on the caller's thread and append its record:
        a pending one is run on the pool, parsed and scored; a generation failure is only recorded."""
        if sol.status != STATUS_PENDING:
            self._log(sol)
            return sol
        outcome = self.pool.run(sol.code)
        artifact = self._finalize(sol, outcome)
        self._log(sol, outcome.stdout, outcome.stderr, artifact)
        return sol

    def _log(self, sol: Solution, stdout: str = "", stderr: str = "", artifact: Optional[str] = None) -> None:
        """Append ``sol``'s record: its code, and its feedback, logs and artifact if not empty;
        ``sol.log_ref`` becomes the byte offset at which it starts."""
        record = {"solution": sol.id, "code": sol.code}
        for key, text in (("feedback", sol.feedback), ("stdout", stdout), ("stderr", stderr), ("artifact", artifact)):
            if text:
                record[key] = text
        line = (json.dumps(record) + "\n").encode("utf-8")
        with self._solutions_lock:
            # Not ``tell()``: after ``truncate`` it can still report the old end.
            sol.log_ref = self._solutions_fh.seek(0, os.SEEK_END)
            self._solutions_fh.write(line)
            self._solutions_fh.flush()

    def _finalize(self, sol: Solution, outcome: sandbox.ExecutionOutcome) -> Optional[str]:
        """Set ``sol``'s status, feedback and score from ``outcome``; returns the
        artifact as text if it is valid, and closes the artifact file. An invalid
        artifact's feedback names one fault: no file, not a regular file, over
        the cap, unparsable, a scorer error, or violations.

        A valid artifact parses, so it is UTF-8; ``surrogateescape`` keeps
        any other parser's bytes too, so the text round-trips byte for byte.
        """
        tail = (outcome.stderr or outcome.stdout)[-FEEDBACK_TAIL_CHARS:]
        if outcome.status != sandbox.STATUS_OK:
            cause = f"execution {outcome.status}"
            if outcome.status != sandbox.STATUS_TIMEOUT and (outcome.exit_code or 0) < 0:
                cause += f": killed by {_signal_name(-outcome.exit_code)}"  # a signal the engine did not send
            sol.feedback = f"{cause}:\n{tail}" if tail else cause
        elif tail:
            sol.feedback = tail
        sol.status = _EXECUTION_STATUS[outcome.status]
        if sol.status != STATUS_VALID:
            return None
        if outcome.artifact is None:
            error = "\n".join(filter(None, [sol.feedback, "no artifact file was written"]))
        else:
            try:
                with outcome.artifact as fh:
                    raw = self.problem.read_artifact(fh)
                report = self.problem.scorer(self.problem.parser(raw))
            except ArtifactError as exc:
                error = f"invalid artifact: {exc}"
            except Exception as exc:  # a scorer fault fails this candidate, not the run
                error = f"invalid artifact: scorer raised {type(exc).__name__}: {exc}"
            else:
                error = None if report.valid else "constraint violations: " + ", ".join(
                    f"{k}={v:.3g}" for k, v in sorted(report.violations.items())
                )
        if error is not None:
            sol.status = STATUS_INVALID_ARTIFACT
            sol.feedback = error
            return None
        sol.metrics = dict(report.metrics)
        sol.fitness = report.fitness
        return raw.decode("utf-8", "surrogateescape")

    def _island_jobs(self, job) -> list:
        """Run ``job(island)`` for every island at once; results in island order.

        The first failure, or an interrupt, is raised as soon as it happens,
        and the other islands' step loops stop before their next step.
        """
        futures = [self._island_pool.submit(job, island) for island in self.state.islands]
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

    def _set_up(self, island: IslandState) -> list[dict]:
        """Set up an empty island: generate its roots, sending every call but the
        first on a pool of its own, and evaluate them; returns their events."""
        with ThreadPoolExecutor(max_workers=self.config.init_population) as pool:
            _, pending, failures = operators.initialize_island(island, self.config, self.backend, pool.submit)
        events = []
        for sol in pending + failures:
            self.evaluate(sol)
            insert = "not_attempted" if sol.status == STATUS_GENERATION_FAILED else island.try_insert(sol).outcome
            events.append(_solution_event("init", sol, insert))
        return events

    def _step(self, island: IslandState, epoch: int) -> dict:
        """One epoch on one island: vary, evaluate, insert; returns its event."""
        cfg = self.config
        vary = operators.evolve_step if cfg.evolution else operators.no_evolution_step
        outcome = vary(island, cfg, self.backend, epoch)
        sol = self.evaluate(outcome.new_solution)
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

            def job(island: IslandState) -> list[list[dict]]:
                rows = [self._set_up(island) if first == 1 else []]
                for epoch in range(first, last + 1):
                    if self._abort.is_set():  # the run failed elsewhere
                        break
                    rows.append([self._step(island, epoch)])
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
            plans.append((island.id, ranked(s for s in pop if not s.has_migrated)[:count]))
        events: list[dict] = []
        for source_id, migrants in plans:
            dests = neighbors[source_id]
            for sol in migrants:
                sol.has_migrated = True
            for dest_id in dests:
                dest = state.islands[dest_id]
                for sol in migrants:
                    copy = replace(
                        sol,
                        id=dest.next_solution_id(),
                        island_id=dest_id,
                        parent_id=None,  # migrants root a fresh tree
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
        """Write the pruned state, a digest line and a pickle; keep the newest ``KEPT_CHECKPOINTS``.

        The pickle is streamed into the file and then hashed from it in
        chunks, so no copy of the whole payload is held in memory.
        """
        for island in self.state.islands:
            island.prune()
        self._event_fh.flush()
        self.state.event_log_pos = (self.run_dir / EVENT_LOG_NAME).stat().st_size
        self.state.solutions_log_pos = (self.run_dir / SOLUTIONS_LOG_NAME).stat().st_size
        checkpoints = self.run_dir / "checkpoints"
        path = checkpoints / f"epoch_{self.state.epoch:05d}.ckpt"
        # Written whole under a name outside the ``epoch_*.ckpt`` glob, then
        # renamed, so a crash never leaves a partial newest checkpoint.
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "w+b") as fh:
                fh.write(bytes(_DIGEST_LINE_BYTES))  # a placeholder until the payload's digest is known
                pickle.dump({"version": CHECKPOINT_VERSION, "config": self.config, "state": self.state}, fh)
                digest = _payload_digest(fh)
                fh.seek(0)
                fh.write(digest + b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        for old in checkpoints_of(self.run_dir)[:-KEPT_CHECKPOINTS]:
            old.unlink()
        return path

    # -- reporting --

    def best_solution(self) -> Optional[Solution]:
        """The first valid live solution in ``ranked`` order (none archived is
        fitter): on a tie, an original over its copies from later epochs."""
        islands = self.state.islands
        valid = (s for i in islands for s in i.solutions.values() if s.status == STATUS_VALID)
        return next(iter(ranked(valid)), None)

    def export_best(self) -> None:
        best = self.best_solution()
        if best is None:
            return
        best_dir = self.run_dir / "best"
        best_dir.mkdir(exist_ok=True)
        (best_dir / "solution.py").write_text(best.code, encoding="utf-8")
        # Migrant copies share the log_ref, and so the record, of their original.
        artifact = self._record(best.log_ref).get("artifact")
        if artifact is not None:
            (best_dir / "artifact.json").write_bytes(artifact.encode("utf-8", "surrogateescape"))
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

    def _record(self, offset: int) -> dict:
        """The solutions-log record at byte ``offset``; the log is only truncated
        to a checkpointed position, past every checkpointed solution's record."""
        with open(self.run_dir / SOLUTIONS_LOG_NAME, "rb") as fh:
            fh.seek(offset)
            return json.loads(fh.readline())

    def summary(self, finished: bool) -> RunSummary:
        best = self.best_solution()
        # Migrations done by the end of ``state.epoch``; each logs one record per island.
        migrations = self.config.migrations_before(self.state.epoch + 1)
        counts = Counter(e["status"] for e in read_events(self.run_dir) if e["type"] in ("init", "step"))
        return RunSummary(
            problem_id=self.config.problem_id,
            epochs_run=self.state.epoch,
            best_solution_id=best.id if best else None,
            best_fitness=best.fitness if best else 0.0,
            best_objective=best.metrics.get("objective") if best else None,
            migration_events=self.config.num_islands * migrations,
            step_counts=dict(counts),
            finished=finished,
        )

    def close(self) -> None:
        self._island_pool.shutdown()
        self._event_fh.close()
        self._solutions_fh.close()


def run(
    config: RunConfig,
    run_dir: str | Path,
    backend=None,
    stop_after_epoch: Optional[int] = None,
) -> RunSummary:
    """Execute a fresh run from epoch 1 to config.epochs in ``run_dir``.

    A run directory holds one run: one that holds a checkpoint is a
    ``ConfigError`` before anything starts or is written. Logs without a
    checkpoint are those of a run killed before its first barrier, and are
    run over.
    """
    run_dir = Path(run_dir)
    held = checkpoints_of(run_dir)
    if held:
        raise ConfigError(f"{run_dir} holds a run, checkpointed in {held[-1]}: resume it or use another directory")
    if backend is None:  # before the snapshot, so a bad transcript leaves no config behind
        backend = make_backend(config, run_dir)
    state = RunState([IslandState(i, config.max_population, config.master_seed) for i in range(config.num_islands)])
    return _run_from(config, run_dir, state, backend, stop_after_epoch, fresh=True)


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
    config: RunConfig, run_dir: Path, state: RunState, backend, stop_after_epoch, fresh: bool = False
) -> RunSummary:
    """Run ``state`` from its epoch: the one path behind ``run`` and ``resume``.

    The launchers start first, so an interpreter that cannot start one is a
    ``ConfigError`` before anything is written: a ``fresh`` run's directory
    and config snapshot, the logs. A run with no epoch left starts none. A
    directory or snapshot that cannot be written is a ``ConfigError`` too.
    """
    with start_launchers(config, running=state.epoch < config.epochs) as pool:
        if fresh:
            try:
                run_dir.mkdir(parents=True, exist_ok=True)
                _write_config_snapshot(config, run_dir)
            except OSError as exc:
                raise ConfigError(f"cannot create the run directory {run_dir}: {exc}") from None
        runner = _Run(config, run_dir, backend, state, pool)
        try:
            return runner.run_epochs(stop_after_epoch=stop_after_epoch)
        finally:
            runner.close()


def checkpoints_of(run_dir: Path) -> list[Path]:
    """The run's checkpoint files, oldest epoch first: by number, since the
    names sort as strings only up to epoch 99,999."""
    epochs = {p: p.stem.removeprefix("epoch_") for p in (run_dir / "checkpoints").glob("epoch_*.ckpt")}
    return sorted((p for p, epoch in epochs.items() if epoch.isdecimal()), key=lambda p: int(epochs[p]))


def load_latest_checkpoint(run_dir: Path) -> tuple[RunConfig, RunState]:
    """Load the newest checkpoint that passes its integrity check."""
    error = CheckpointError(f"no checkpoints in {run_dir}")
    for path in reversed(checkpoints_of(run_dir)):
        try:
            return load_checkpoint(path)
        except CheckpointError as exc:
            error = exc
    raise error


def _payload_digest(fh) -> bytes:
    """The SHA-256 hex digest, in ASCII, of a checkpoint's payload: the bytes
    of the open file ``fh`` past its digest line, read in chunks."""
    fh.seek(_DIGEST_LINE_BYTES)
    sha = hashlib.sha256()
    while chunk := fh.read(_CHUNK_BYTES):
        sha.update(chunk)
    return sha.hexdigest().encode("ascii")


def load_checkpoint(path: Path) -> tuple[RunConfig, RunState]:
    """The config and state of the checkpoint at ``path``. The whole payload
    passes its digest before any byte of it is unpickled."""
    with open(path, "rb") as fh:
        head = fh.read(_DIGEST_LINE_BYTES)
        if head.find(b"\n") != _DIGEST_LINE_BYTES - 1:
            raise CheckpointError(f"checkpoint {path} is malformed")
        if _payload_digest(fh) != head[:-1]:
            raise CheckpointError(f"checkpoint {path} failed its integrity check")
        fh.seek(_DIGEST_LINE_BYTES)
        try:
            doc = pickle.load(fh)
        except (AttributeError, EOFError, ImportError, pickle.UnpicklingError) as exc:
            raise CheckpointError(f"checkpoint {path} cannot be unpickled; another version wrote it: {exc}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("config"), RunConfig)
            and isinstance(doc.get("state"), RunState)):
        raise CheckpointError(f"checkpoint {path} holds no mapping of a config and a state")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint {path} predates version {CHECKPOINT_VERSION} and cannot be resumed")
    return doc["config"], doc["state"]


def _write_config_snapshot(config: RunConfig, run_dir: Path) -> None:
    """Write the complete config; ``load_config`` reads it back equal."""
    (run_dir / CONFIG_SNAPSHOT_NAME).write_text(
        yaml.safe_dump(asdict(config), sort_keys=True), encoding="utf-8"
    )

"""Orchestration: epoch loop, migration, checkpoint/resume, ablations."""

import hashlib
import json
import os
import pickle
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import fenced, standard_config, write_transcript
from llmevolve import engine
from llmevolve.engine import CheckpointError, load_latest_checkpoint
from llmevolve.llm import ReplayBackend


def read_events(run_dir: Path):
    with open(run_dir / "events.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def small_run(tmp_path, name="run", **overrides):
    run_dir = tmp_path / name
    cfg = standard_config(
        num_islands=2, epochs=6, migration_every=3, init_population=2, **overrides
    )
    write_transcript(run_dir, num_islands=cfg.num_islands, calls_per_island=40)
    summary = engine.run(cfg, run_dir)
    return run_dir, cfg, summary


class TestRun:
    def test_completes_and_reports_best(self, tmp_path):
        run_dir, cfg, summary = small_run(tmp_path)
        assert summary.finished
        assert summary.epochs_run == 6
        assert summary.best_fitness > 0
        assert (run_dir / "best" / "artifact.json").exists()
        assert (run_dir / "best" / "solution.py").exists()

    def test_best_fitness_monotone_per_island(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        best = {}
        for rec in read_events(run_dir):
            if rec["type"] not in ("init", "step"):
                continue
            i = rec["island"]
            prev = best.get(i, 0.0)
            best[i] = max(prev, rec["fitness"])
            assert best[i] >= prev

    def test_every_solution_is_finalized(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        for rec in read_events(run_dir):
            if rec["type"] in ("init", "step"):
                assert rec["status"] != "pending"
                assert rec["fitness"] >= 0

    def test_migration_events_on_schedule(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        epochs = [r["epoch"] for r in read_events(run_dir) if r["type"] == "migration"]
        assert sorted(set(epochs)) == [3, 6]

    @pytest.mark.parametrize(
        "preset, num_islands, stop, migrations",
        [("full", 3, None, 3), ("full", 3, 4, 3), ("no-evolution", 3, None, 0), ("full", 1, None, 0)],
        ids=["straight", "resumed", "no-evolution", "one-island"],
    )
    def test_summary_counts_the_logged_migrations(self, tmp_path, preset, num_islands, stop, migrations):
        from llmevolve.config import AblationToggles

        cfg = standard_config(
            num_islands=num_islands,
            epochs=7,
            migration_every=2,
            init_population=1,
            ablation=AblationToggles.from_name(preset),
        )
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=num_islands, calls_per_island=40)
        summary = engine.run(cfg, run_dir, stop_after_epoch=stop)
        if stop is not None:
            assert summary.migration_events == num_islands * 2  # at epochs 2 and 4
            summary = engine.resume(run_dir)
        logged = [r for r in read_events(run_dir) if r["type"] == "migration"]
        assert summary.migration_events == len(logged) == num_islands * migrations

    def test_population_capped_after_migration(self, tmp_path):
        run_dir, cfg, _ = small_run(tmp_path, max_population=4)
        ckpt_config, state = load_latest_checkpoint(run_dir)
        for island in state.islands:
            assert len(island.solutions) <= cfg.max_population

    def test_config_snapshot_written(self, tmp_path):
        run_dir, cfg, _ = small_run(tmp_path)
        import yaml

        doc = yaml.safe_load((run_dir / "config.yaml").read_text())
        assert doc["problem_id"] == cfg.problem_id
        assert doc["epochs"] == cfg.epochs

    def test_overflowing_artifact_fails_its_candidate_not_the_run(self, tmp_path):
        run_dir = tmp_path / "p1"
        run_dir.mkdir()
        program = (
            "import json, os\n"
            'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
            '    json.dump({"heights": [1e200, 1e200]}, fh)\n'
        )
        with open(run_dir / "transcripts.jsonl", "w", encoding="utf-8") as fh:
            for index in range(8):
                fh.write(json.dumps({"island": 0, "index": index, "response": fenced(program)}) + "\n")
        cfg = standard_config(problem_id="p1", num_islands=1, epochs=3, init_population=1)
        summary = engine.run(cfg, run_dir)
        assert summary.finished
        statuses = [r["status"] for r in read_events(run_dir) if r["type"] == "step"]
        assert statuses == ["invalid_artifact"] * 3

    @pytest.mark.parametrize(
        "reply",
        [
            "```python\n```\n",
            "<<<<<<< SEARCH\n{code}\n=======\n>>>>>>> REPLACE\n",
        ],
        ids=["empty_fence", "delete_everything"],
    )
    def test_a_reply_that_empties_the_program_fails_its_step_not_the_run(self, tmp_path, reply):
        from llmevolve.problems import get_problem

        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        # The one generated root repeats the trivial program byte for byte,
        # so whichever root is the parent, the second reply leaves nothing.
        trivial = get_problem("p3.a").trivial_code
        no_op = "<<<<<<< SEARCH\nimport json, os\n=======\nimport json, os\n>>>>>>> REPLACE\n"
        responses = [no_op, reply.format(code=trivial), fenced(trivial)]
        with open(run_dir / "transcripts.jsonl", "w", encoding="utf-8") as fh:
            for index, response in enumerate(responses):
                fh.write(json.dumps({"island": 0, "index": index, "response": response}) + "\n")
        cfg = standard_config(num_islands=1, epochs=2, init_population=1, p_explore=0.0)
        summary = engine.run(cfg, run_dir)
        assert summary.finished
        steps = [r for r in read_events(run_dir) if r["type"] == "step"]
        assert [r["status"] for r in steps] == ["generation_failed", "valid"]
        _, state = load_latest_checkpoint(run_dir)
        failed = state.islands[0].lookup(steps[0]["solution"])
        assert failed.feedback.startswith("generation failed: ")
        assert "empty program" in failed.feedback
        assert failed.code == trivial

    def test_config_snapshot_reloads_equal(self, tmp_path):
        from llmevolve.config import AblationToggles, load_config
        from llmevolve.llm import EnsembleConfig, EnsembleMember, MetaModel, RetryPolicy

        cfg = standard_config(
            num_islands=3,
            topology=[(0, 1), (1, 2)],
            epochs=1,
            init_population=1,
            max_ancestor_depth=2,
            ablation=AblationToggles.from_name("mp"),
            ensemble=EnsembleConfig(
                members=[EnsembleMember(name="solo", weight=1.0, max_output_tokens=512)],
                meta_model=MetaModel(name="meta", temperature=0.2),
                retry=RetryPolicy(max_attempts=2, backoff_seconds=(0.0, 0.25)),
            ),
            base_url="http://localhost:8000/v1",
            sandbox_workers=2,
        )
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=3, calls_per_island=4)
        engine.run(cfg, run_dir)
        assert load_config(run_dir / "config.yaml") == cfg


class TestMigration:
    def test_migrant_copies_are_roots_with_provenance(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        _, state = load_latest_checkpoint(run_dir)
        copies = [
            s
            for island in state.islands
            for s in island.all_solutions()
            if "migrated_from" in s.provenance
        ]
        assert copies
        for copy in copies:
            assert copy.parent_id is None
            assert copy.provenance["migrated_from"] != copy.island_id

    def test_originals_marked_migrated_once(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        events = [r for r in read_events(run_dir) if r["type"] == "migration"]
        per_source: dict[int, list[str]] = {}
        for rec in events:
            per_source.setdefault(rec["source"], []).extend(rec["migrants"])
        for source, ids in per_source.items():
            assert len(ids) == len(set(ids)), "a solution migrated twice from its origin"

    def test_best_migrant_copy_exports_original_artifact(self, tmp_path):
        # Island 1 writes the better programs, so after the migration at the
        # last epoch the best solution found first is island 0's copy.
        from conftest import fenced, packing_program
        from llmevolve.llm import ReplayBackend

        radius = {0: 5e-4, 1: 0.01}
        backend = ReplayBackend(
            {
                (i, n): fenced(packing_program(26, radius[i]))
                for i in (0, 1)
                for n in range(20)
            }
        )
        cfg = standard_config(num_islands=2, epochs=3, migration_every=3, init_population=2)
        run_dir = tmp_path / "run"
        summary = engine.run(cfg, run_dir, backend=backend)
        _, state = load_latest_checkpoint(run_dir)
        best = state.islands[0].lookup(summary.best_solution_id)
        original = best.provenance["original_id"]
        assert original.startswith("i1-")
        exported = (run_dir / "best" / "artifact.json").read_bytes()
        assert exported == (run_dir / "solutions" / f"{original}.artifact.json").read_bytes()

    def test_a_migrant_copy_keeps_every_field_it_does_not_reset(self, tmp_path):
        import dataclasses

        from llmevolve.core import STATUS_VALID, IslandState, Prompt, Solution
        from llmevolve.engine import RunState, _Run

        @dataclasses.dataclass
        class NotedSolution(Solution):  # a field that ``migrate`` does not name
            note: str = ""

        islands = [IslandState(i, capacity=40) for i in range(2)]
        islands[0].add_prompt(Prompt("i0-p00000", "explored", 0, parent_solution_id="i0-s00009"))
        original = NotedSolution(
            "i0-s00000", 0, "print(1)\n", parent_id="i0-s00009", parent_prompt_id="i0-p00000",
            epoch_created=2, metrics={"objective": 1.5}, fitness=1.5, status=STATUS_VALID,
            log_ref="solutions/i0-s00000", feedback="tail", note="kept",
        )
        islands[0].try_insert(original)
        runner = _Run(standard_config(num_islands=2), tmp_path, ReplayBackend({}), RunState(islands, []))
        try:
            runner.migrate(3)
        finally:
            runner.close()
        [copy] = islands[1].solutions.values()
        [prompt] = islands[1].prompts.values()
        assert original.has_migrated
        assert prompt == Prompt("i1-p00000", "explored", 1, epoch_created=3)
        assert copy == NotedSolution(
            "i1-s00000", 1, "print(1)\n", parent_prompt_id="i1-p00000", epoch_created=3,
            metrics={"objective": 1.5}, fitness=1.5, status=STATUS_VALID,
            log_ref="solutions/i0-s00000", feedback="tail", note="kept",
            provenance={"migrated_from": 0, "original_id": "i0-s00000"},
        )
        assert copy.metrics is not original.metrics

    def test_ring_neighbors(self):
        cfg = standard_config(num_islands=5)
        neighbors = cfg.neighbors()
        assert neighbors == {0: [1, 4], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [0, 3]}

    @pytest.mark.parametrize(
        "evolution, islands, every, counts",
        [
            (True, 5, 40, {1: 0, 39: 0, 40: 0, 41: 1, 80: 1, 81: 2, 100: 2}),
            (True, 1, 40, {1: 0, 40: 0, 41: 0, 81: 0}),
            (False, 5, 40, {1: 0, 40: 0, 41: 0, 81: 0}),
            (False, 1, 40, {41: 0}),
            (True, 5, 1, {1: 0, 2: 1, 3: 2}),
        ],
        ids=["evolution", "one_island", "no_evolution", "no_evolution_one_island", "every_epoch"],
    )
    def test_migrations_before(self, evolution, islands, every, counts):
        from llmevolve.config import AblationToggles

        cfg = standard_config(
            num_islands=islands, migration_every=every, ablation=AblationToggles(evolution=evolution)
        )
        assert {epoch: cfg.migrations_before(epoch) for epoch in counts} == counts


class TestResume:
    def test_interrupt_and_resume_executes_remaining_epochs(self, tmp_path):
        run_dir = tmp_path / "resumed"
        cfg = standard_config(num_islands=2, epochs=6, migration_every=3, init_population=2)
        write_transcript(run_dir, num_islands=2, calls_per_island=40)
        partial = engine.run(cfg, run_dir, stop_after_epoch=3)
        assert not partial.finished
        assert partial.epochs_run == 3
        summary = engine.resume(run_dir)
        assert summary.finished
        assert summary.epochs_run == 6
        step_epochs = [r["epoch"] for r in read_events(run_dir) if r["type"] == "step"]
        assert sorted(set(step_epochs)) == [1, 2, 3, 4, 5, 6]
        assert all(step_epochs.count(e) == cfg.num_islands for e in set(step_epochs))

    def test_resume_equals_straight_through(self, tmp_path):
        cfg = standard_config(num_islands=2, epochs=6, migration_every=3, init_population=2)
        dir_a = tmp_path / "straight"
        write_transcript(dir_a, num_islands=2, calls_per_island=40)
        engine.run(cfg, dir_a)
        dir_b = tmp_path / "interrupted"
        write_transcript(dir_b, num_islands=2, calls_per_island=40)
        engine.run(cfg, dir_b, stop_after_epoch=4)
        engine.resume(dir_b)
        assert (dir_a / "events.jsonl").read_bytes() == (dir_b / "events.jsonl").read_bytes()

    @pytest.mark.parametrize("epochs", [5, 6])
    def test_stop_at_the_last_epoch_finishes_the_run(self, tmp_path, epochs):
        cfg = standard_config(num_islands=2, epochs=epochs, migration_every=3, init_population=2)
        dir_a = tmp_path / "straight"
        write_transcript(dir_a, num_islands=2, calls_per_island=40)
        straight = engine.run(cfg, dir_a)
        dir_b = tmp_path / "stopped"
        write_transcript(dir_b, num_islands=2, calls_per_island=40)
        stopped = engine.run(cfg, dir_b, stop_after_epoch=cfg.epochs)
        assert stopped.finished
        assert stopped == straight
        for name in ("events.jsonl", "best/summary.json", "best/artifact.json"):
            assert (dir_b / name).read_bytes() == (dir_a / name).read_bytes()
        assert engine.resume(dir_b) == straight

    @pytest.mark.parametrize("stop", [None, 2])
    def test_one_checkpoint_write_per_barrier(self, tmp_path, monkeypatch, stop):
        cfg = standard_config(num_islands=2, epochs=4, migration_every=2, init_population=2)
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=40)
        written = []
        checkpoint = engine._Run.checkpoint

        def counting_checkpoint(self):
            path = checkpoint(self)
            written.append(path.name)
            return path

        monkeypatch.setattr(engine._Run, "checkpoint", counting_checkpoint)
        engine.run(cfg, run_dir, stop_after_epoch=stop)
        if stop is not None:
            engine.resume(run_dir)
        assert written == ["epoch_00002.ckpt", "epoch_00004.ckpt"]
        assert sorted(p.name for p in (run_dir / "checkpoints").iterdir()) == written

    @pytest.mark.parametrize("preset", ["full", "no-evolution"])
    def test_resumes_a_checkpoint_that_holds_removed_fields(self, tmp_path, preset):
        # Checkpoints once pickled ``RunState.trivial_code``, ``initial_prompt_ids``,
        # ``migration_events`` and ``backend_state`` (the replay backend's call
        # counters), and ``Solution.origin_island``, and no call counter per island.
        from llmevolve.config import AblationToggles
        from llmevolve.problems import get_problem

        cfg = standard_config(
            num_islands=2,
            epochs=6,
            migration_every=3,
            init_population=2,
            ablation=AblationToggles.from_name(preset),
        )
        dir_a = tmp_path / "straight"
        write_transcript(dir_a, num_islands=2, calls_per_island=40)
        straight = engine.run(cfg, dir_a)
        dir_b = tmp_path / "old"
        write_transcript(dir_b, num_islands=2, calls_per_island=40)
        engine.run(cfg, dir_b, stop_after_epoch=4)
        ckpt = dir_b / "checkpoints" / "epoch_00004.ckpt"
        config, state = engine.load_checkpoint(ckpt)
        state.trivial_code = get_problem(config.problem_id).trivial_code
        state.initial_prompt_ids = [f"i{i}-p00000" for i in range(cfg.num_islands)]
        state.migration_events = 2 if preset == "full" else 0
        state.backend_state = {island.id: island.next_call_index() for island in state.islands}
        for island in state.islands:
            del island._call_counter
            for sol in island.all_solutions():
                sol.origin_island = sol.island_id
        payload = pickle.dumps({"config": config, "state": state})
        ckpt.write_bytes(hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload)
        assert engine.resume(dir_b) == straight
        assert (dir_b / "events.jsonl").read_bytes() == (dir_a / "events.jsonl").read_bytes()
        # The final checkpoint, read without the rebuild on load, holds none of them.
        final = (dir_b / "checkpoints" / "epoch_00006.ckpt").read_bytes()
        resumed = pickle.loads(final[final.index(b"\n") + 1:])["state"]
        removed = {"trivial_code", "initial_prompt_ids", "migration_events", "backend_state"}
        assert not removed & vars(resumed).keys()
        for island in resumed.islands:
            assert "_call_counter" in vars(island)
            assert not any("origin_island" in vars(sol) for sol in island.all_solutions())

    def test_a_checkpoint_without_call_counters_starts_them_at_zero(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        ckpt = run_dir / "checkpoints" / "epoch_00006.ckpt"
        config, state = engine.load_checkpoint(ckpt)
        assert [island.next_call_index() for island in state.islands] != [0, 0]
        for island in state.islands:
            del island._call_counter
        payload = pickle.dumps({"config": config, "state": state})
        ckpt.write_bytes(hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload)
        _, state = engine.load_checkpoint(ckpt)
        assert [island.next_call_index() for island in state.islands] == [0, 0]

    def test_resume_finished_run_is_noop(self, tmp_path):
        run_dir, _, summary = small_run(tmp_path)
        before = (run_dir / "events.jsonl").read_bytes()
        again = engine.resume(run_dir)
        assert again.finished
        assert again.epochs_run == summary.epochs_run
        assert (run_dir / "events.jsonl").read_bytes() == before

    def test_corrupt_checkpoint_raises_integrity_error(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        ckpts = sorted((run_dir / "checkpoints").glob("*.ckpt"))
        assert len(ckpts) == 2
        for ckpt in ckpts:  # none is left intact to fall back to
            blob = bytearray(ckpt.read_bytes())
            blob[-1] ^= 0xFF
            ckpt.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="integrity"):
            engine.resume(run_dir)

    def test_resume_falls_back_past_a_truncated_checkpoint(self, tmp_path):
        straight, _, summary = small_run(tmp_path, "straight")
        run_dir, _, _ = small_run(tmp_path, "truncated")
        newest = sorted((run_dir / "checkpoints").glob("*.ckpt"))[-1]
        assert newest.name == "epoch_00006.ckpt"
        newest.write_bytes(newest.read_bytes()[:1000])
        _, state = load_latest_checkpoint(run_dir)
        assert state.epoch == 3
        assert engine.resume(run_dir) == summary
        for name in ("events.jsonl", "best/summary.json", "best/artifact.json"):
            assert (run_dir / name).read_bytes() == (straight / name).read_bytes()
        assert load_latest_checkpoint(run_dir)[1].epoch == 6

    def test_resume_exports_best_that_a_finished_run_lacks(self, tmp_path, monkeypatch):
        straight, _, summary = small_run(tmp_path, "straight")
        export_best = engine._Run.export_best
        calls = []

        def export_failing_once(self):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("crash during export")
            export_best(self)

        monkeypatch.setattr(engine._Run, "export_best", export_failing_once)
        with pytest.raises(OSError, match="crash during export"):
            small_run(tmp_path, "crashed")
        run_dir = tmp_path / "crashed"
        assert not (run_dir / "best").exists()
        assert engine.resume(run_dir) == summary
        assert sorted(p.name for p in (run_dir / "best").iterdir()) == sorted(
            p.name for p in (straight / "best").iterdir()
        )
        for path in (straight / "best").iterdir():
            assert (run_dir / "best" / path.name).read_bytes() == path.read_bytes()

    def test_failed_checkpoint_write_keeps_the_previous_one(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "ckpt"
        cfg = standard_config(num_islands=2, epochs=6, migration_every=3, init_population=2)
        write_transcript(run_dir, num_islands=2, calls_per_island=40)
        replace = os.replace
        renames = []

        def replace_failing_second(src, dst):
            renames.append(dst)
            if len(renames) == 2:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_failing_second)
        with pytest.raises(OSError, match="disk full"):
            engine.run(cfg, run_dir)
        assert [p.name for p in (run_dir / "checkpoints").iterdir()] == ["epoch_00003.ckpt"]
        _, state = load_latest_checkpoint(run_dir)
        assert state.epoch == 3

    def test_missing_checkpoint_raises(self, tmp_path):
        (tmp_path / "empty" / "checkpoints").mkdir(parents=True)
        with pytest.raises(CheckpointError):
            engine.resume(tmp_path / "empty")


class TestDeterminism:
    def test_identical_seeds_identical_event_logs(self, tmp_path):
        cfg = standard_config(num_islands=2, epochs=6, migration_every=3, init_population=2)
        logs = []
        for name in ("a", "b"):
            run_dir = tmp_path / name
            write_transcript(run_dir, num_islands=2, calls_per_island=40)
            engine.run(cfg, run_dir)
            logs.append((run_dir / "events.jsonl").read_bytes())
        assert logs[0] == logs[1]


class _FirstStepMeeting(ReplayBackend):
    """Replay whose islands each wait at a barrier on their first step call."""

    def __init__(self, responses, barrier: threading.Barrier, init_calls: int):
        super().__init__(responses)
        self.barrier = barrier
        self.init_calls = init_calls

    def complete(self, model, messages, island_id, **kwargs):
        if kwargs["index"] == self.init_calls:
            self.barrier.wait()
        return super().complete(model, messages, island_id, **kwargs)


class _SetUpMeeting(ReplayBackend):
    """Replay whose set-up calls on each island wait at that island's barrier."""

    def __init__(self, responses, barriers: list[threading.Barrier]):
        super().__init__(responses)
        self.barriers = barriers

    def complete(self, model, messages, island_id, **kwargs):
        barrier = self.barriers[island_id]
        if kwargs["index"] < barrier.parties:
            barrier.wait()
        return super().complete(model, messages, island_id, **kwargs)


class _JitterReplay(ReplayBackend):
    """Replay that sleeps a seeded random 0-5 ms before each call."""

    def __init__(self, responses, seed: int):
        super().__init__(responses)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def complete(self, *args, **kwargs):
        with self._lock:
            delay = self._rng.uniform(0.0, 0.005)
        time.sleep(delay)
        return super().complete(*args, **kwargs)


class _BrokenIsland(ReplayBackend):
    """Replay whose island 1 raises on its first step call; others call slowly."""

    def __init__(self, responses, init_calls: int):
        super().__init__(responses)
        self.init_calls = init_calls

    def complete(self, model, messages, island_id, **kwargs):
        if kwargs["index"] >= self.init_calls:
            if island_id == 1:
                raise RuntimeError("island 1 broke")
            time.sleep(0.05)
        return super().complete(model, messages, island_id, **kwargs)


class TestConcurrency:
    CONFIG = dict(num_islands=3, epochs=6, migration_every=2, init_population=2)

    def _run(self, run_dir, backend=None, segments=(), **overrides):
        cfg = standard_config(**{**self.CONFIG, **overrides})
        write_transcript(run_dir, num_islands=cfg.num_islands, calls_per_island=40)
        if backend is not None:
            backend = backend(ReplayBackend.from_file(run_dir / "transcripts.jsonl").responses)
        stops = list(segments) + [None]
        engine.run(cfg, run_dir, backend=backend, stop_after_epoch=stops[0])
        for stop in stops[1:]:
            engine.resume(run_dir, backend=backend, stop_after_epoch=stop)
        return (run_dir / "events.jsonl").read_bytes()

    def test_islands_call_the_model_concurrently(self, tmp_path):
        # Passes only if every island reaches its first step call while the
        # others wait; a lock-step loop breaks the barrier after its timeout.
        barrier = threading.Barrier(self.CONFIG["num_islands"], timeout=10)
        init_calls = self.CONFIG["init_population"]
        self._run(tmp_path / "meet", lambda r: _FirstStepMeeting(r, barrier, init_calls))
        assert not barrier.broken

    def test_an_island_sends_its_set_up_calls_at_once(self, tmp_path):
        # Passes only if all of an island's set-up calls wait at once; calls
        # sent one after another break the barrier after its timeout.
        barriers = [threading.Barrier(4, timeout=5) for _ in range(self.CONFIG["num_islands"])]
        self._run(tmp_path / "meet", lambda r: _SetUpMeeting(r, barriers), init_population=4, epochs=2)
        assert not any(barrier.broken for barrier in barriers)

    def test_jittered_set_up_gives_the_same_event_log(self, tmp_path):
        setup = dict(init_population=6, epochs=2)
        plain = self._run(tmp_path / "plain", **setup)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            jittered = self._run(tmp_path / "jitter", lambda r: _JitterReplay(r, seed=7), **setup)
        finally:
            sys.setswitchinterval(interval)
        assert jittered == plain

    def test_a_set_up_miss_fails_at_its_own_position(self, tmp_path):
        # The transcript lacks set-up call 1 of island 0: that call's solution
        # is a generation failure, and every other id keeps its place.
        def missing(responses):
            del responses[(0, 1)]
            return ReplayBackend(responses)

        run_dir = tmp_path / "miss"
        self._run(run_dir, missing, num_islands=1, init_population=3, epochs=1)
        init = [(r["solution"], r["status"], r["insert"]) for r in read_events(run_dir) if r["type"] == "init"]
        assert init == [
            ("i0-s00000", "valid", "inserted"),
            ("i0-s00001", "valid", "inserted"),
            ("i0-s00003", "valid", "inserted"),
            ("i0-s00002", "generation_failed", "not_attempted"),
        ]
        _, state = load_latest_checkpoint(run_dir)
        failed = state.islands[0].lookup("i0-s00002")
        assert failed.feedback == "initialization generation failed: replay transcript exhausted at island 0 call 1"

    def test_jittered_backend_gives_the_same_event_log(self, tmp_path):
        plain = self._run(tmp_path / "plain")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often to shake out races
        try:
            jittered = self._run(tmp_path / "jitter", lambda r: _JitterReplay(r, seed=5))
            segmented = self._run(
                tmp_path / "segments", lambda r: _JitterReplay(r, seed=6), segments=(1, 3, 5)
            )
        finally:
            sys.setswitchinterval(interval)
        assert jittered == plain
        assert segmented == plain

    def test_a_failing_island_stops_the_others(self, tmp_path):
        run_dir = tmp_path / "broken"
        cfg = standard_config(num_islands=2, epochs=20, migration_every=20, init_population=2)
        write_transcript(run_dir, num_islands=2, calls_per_island=60)
        backend = _BrokenIsland(ReplayBackend.from_file(run_dir / "transcripts.jsonl").responses, 2)
        with pytest.raises(RuntimeError, match="island 1 broke"):
            engine.run(cfg, run_dir, backend=backend)
        # Island 0 stopped well before the end of its 20-epoch segment.
        assert backend.counters[0] < 2 + 10

    def test_one_sandbox_worker_gives_the_same_event_log(self, tmp_path):
        plain = self._run(tmp_path / "plain")
        assert self._run(tmp_path / "serial", sandbox_workers=1) == plain


class TestAblations:
    def test_no_evolution_has_no_parents_and_no_migration(self, tmp_path):
        from llmevolve.config import AblationToggles

        run_dir = tmp_path / "no-evo"
        cfg = standard_config(
            num_islands=2,
            epochs=6,
            migration_every=3,
            init_population=2,
            max_population=4,
            ablation=AblationToggles.from_name("no-evolution"),
        )
        write_transcript(run_dir, num_islands=2, calls_per_island=40)
        engine.run(cfg, run_dir)
        events = read_events(run_dir)
        assert not [r for r in events if r["type"] == "migration"]
        for rec in events:
            if rec["type"] == "step":
                assert rec["operator"] == "no_evolution"
                assert rec["parent"] is None
        _, state = load_latest_checkpoint(run_dir)
        for island in state.islands:
            assert len(island.solutions) <= cfg.max_population
            for sol in island.all_solutions():
                assert sol.parent_id is None

    def test_inspirations_off_never_gates_on(self, tmp_path):
        from llmevolve.config import AblationToggles

        run_dir = tmp_path / "no-insp"
        cfg = standard_config(
            num_islands=2,
            epochs=6,
            migration_every=2,
            init_population=2,
            ablation=AblationToggles.from_name("mp"),
        )
        write_transcript(run_dir, num_islands=2, calls_per_island=40)
        engine.run(cfg, run_dir)
        for rec in read_events(run_dir):
            if rec["type"] == "step":
                assert rec["inspirations"] == 0


class TestEvaluateCandidate:
    @pytest.fixture(autouse=True)
    def _close_runners(self):
        self.runners = []
        yield
        for runner in self.runners:
            runner.close()

    def _runner(self, tmp_path, **overrides):
        cfg = standard_config(num_islands=1, **overrides)
        run_dir = tmp_path / "eval"
        run_dir.mkdir()
        from llmevolve.core import IslandState
        from llmevolve.llm import ReplayBackend
        from llmevolve.engine import _Run, RunState
        from llmevolve.operators import IslandRngs
        import random

        state = RunState(
            islands=[IslandState(0, capacity=cfg.max_population)],
            rngs=[IslandRngs(random.Random(0), random.Random(1), random.Random(2))],
        )
        runner = _Run(cfg, run_dir, ReplayBackend({}), state)
        self.runners.append(runner)
        return runner

    def _pending(self, code):
        from llmevolve.core import Solution, STATUS_PENDING

        return Solution(
            id="i0-s00000", island_id=0, code=code, status=STATUS_PENDING
        )

    def test_valid_packing_scores_passthrough(self, tmp_path):
        from conftest import packing_program

        runner = self._runner(tmp_path)
        sol = runner.evaluate(self._pending(packing_program(26, 0.01)))
        assert sol.status == "valid"
        assert sol.fitness == pytest.approx(26 * 0.01)
        assert sol.metrics["objective"] == pytest.approx(0.26)
        assert sol.log_ref is not None

    def test_timeout_yields_zero_fitness(self, tmp_path):
        from llmevolve.sandbox import ResourceLimits

        runner = self._runner(
            tmp_path, limits=ResourceLimits(wall_seconds=1.0, memory_bytes=1 << 30)
        )
        sol = runner.evaluate(self._pending("while True:\n    pass\n"))
        assert sol.status == "timeout"
        assert sol.fitness == 0.0

    def test_invalid_construction_records_violations(self, tmp_path):
        code = (
            "import json, os\n"
            'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
            '    json.dump({"circles": [[0.5, 0.5, 0.4], [0.6, 0.5, 0.4]] + [[0.01, 0.01, 0.0001]] * 24}, fh)\n'
        )
        runner = self._runner(tmp_path)
        sol = runner.evaluate(self._pending(code))
        assert sol.status == "invalid_artifact"
        assert sol.fitness == 0.0
        assert "overlap" in (sol.feedback or "")
        # The overlapping radii sum far above the true optimum; none of it is kept.
        assert sol.metrics == {}
        assert engine._solution_event("step", sol, "rejected")["objective"] is None

    def test_scorer_exception_is_an_invalid_artifact(self, tmp_path, monkeypatch):
        from conftest import packing_program

        def broken_scorer(artifact):
            raise ZeroDivisionError("division by zero")

        runner = self._runner(tmp_path)
        monkeypatch.setattr(runner.problem, "scorer", broken_scorer)
        sol = runner.evaluate(self._pending(packing_program(26, 0.01)))
        assert sol.status == "invalid_artifact"
        assert sol.fitness == 0.0
        assert "ZeroDivisionError: division by zero" in sol.feedback

    def test_an_artifact_over_the_problem_limit_is_invalid_before_parsing(self, tmp_path, monkeypatch):
        from conftest import packing_program

        def no_parse(raw):
            raise AssertionError("the parser was called")

        limit = 64 * 1024
        # Trailing whitespace keeps the artifact valid JSON at any size.
        code = packing_program(26, 0.01) + (
            'with open(os.environ["ARTIFACT_PATH"], "a") as fh:\n'
            f"    fh.write(' ' * {limit})\n"
        )
        circles = [[(i % 6) / 6 + 0.08, (i // 6) / 6 + 0.08, 0.01] for i in range(26)]
        size = len(json.dumps({"circles": circles})) + limit
        runner = self._runner(tmp_path)
        assert runner.problem.max_artifact_bytes == limit
        monkeypatch.setattr(runner.problem, "parser", no_parse)
        sol = runner.evaluate(self._pending(code))
        assert sol.status == "invalid_artifact"
        assert sol.feedback == f"invalid artifact: {size} bytes, more than the {limit} allowed"

    def test_a_clean_candidate_stores_only_its_code_and_artifact(self, tmp_path):
        from conftest import packing_program

        runner = self._runner(tmp_path)
        assert runner.evaluate(self._pending(packing_program(26, 0.01))).status == "valid"
        stored = sorted(p.name for p in (runner.run_dir / "solutions").iterdir())
        assert stored == ["i0-s00000.artifact.json", "i0-s00000.py"]

    def test_evaluating_again_leaves_no_file_of_the_first_evaluation(self, tmp_path):
        # As after a resume: the killed run stored logs and an artifact that
        # this evaluation of the same candidate does not produce.
        runner = self._runner(tmp_path)
        solutions = runner.run_dir / "solutions"
        for suffix in (".stdout", ".stderr", ".artifact.json"):
            (solutions / f"i0-s00000{suffix}").write_text("from the killed run")
        sol = runner.evaluate(self._pending("import sys\nsys.exit(0)\n"))
        assert sol.status == "invalid_artifact"
        assert sorted(p.name for p in solutions.iterdir()) == ["i0-s00000.py"]

    def test_runtime_error_captured(self, tmp_path):
        runner = self._runner(tmp_path)
        sol = runner.evaluate(self._pending("raise RuntimeError('nope')\n"))
        assert sol.status == "runtime_error"
        assert "nope" in sol.feedback
        solutions = runner.run_dir / "solutions"
        assert sorted(p.name for p in solutions.iterdir()) == ["i0-s00000.py", "i0-s00000.stderr"]
        assert "RuntimeError: nope" in (solutions / "i0-s00000.stderr").read_text()

    def test_close_reaps_every_launcher(self, tmp_path):
        from conftest import packing_program

        runner = self._runner(tmp_path, sandbox_workers=2)
        for _ in range(2):  # idle launchers are taken in turn, so both start
            assert runner.evaluate(self._pending(packing_program(26, 0.01))).status == "valid"
        runner.close()
        assert len(runner._launchers) == 2
        assert all(launcher.proc.returncode is not None for launcher in runner._launchers)


class TestSandboxFailures:
    def _transcript(self, run_dir, programs):
        run_dir.mkdir()
        with open(run_dir / "transcripts.jsonl", "w", encoding="utf-8") as fh:
            for index, program in enumerate(programs):
                fh.write(json.dumps({"island": 0, "index": index, "response": fenced(program)}) + "\n")

    def _config(self, **overrides):
        return standard_config(
            num_islands=1, epochs=3, init_population=1, p_explore=0.0, sandbox_workers=1, **overrides
        )

    def test_a_candidate_that_kills_its_launcher_fails_alone(self, tmp_path):
        from conftest import packing_program

        run_dir = tmp_path / "run"
        killer = "import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n"
        self._transcript(
            run_dir,
            [packing_program(26, 1e-3), killer, packing_program(26, 2e-3), packing_program(26, 3e-3)],
        )
        summary = engine.run(self._config(), run_dir)
        assert summary.finished
        steps = [r["status"] for r in read_events(run_dir) if r["type"] == "step"]
        assert steps == ["runtime_error", "valid", "valid"]

    def test_a_missing_interpreter_is_a_spawn_error_for_every_candidate(self, tmp_path):
        from conftest import packing_program

        run_dir = tmp_path / "run"
        self._transcript(run_dir, [packing_program(26, 1e-3)] * 4)
        summary = engine.run(self._config(interpreter=["/nonexistent/python"]), run_dir)
        assert summary.finished
        events = [r for r in read_events(run_dir) if r["type"] in ("init", "step")]
        assert [r["status"] for r in events] == ["runtime_error"] * 5
        for r in events:
            stderr = (run_dir / "solutions" / f"{r['solution']}.stderr").read_text()
            assert "/nonexistent/python" in stderr

    def test_resuming_a_finished_run_starts_no_launcher(self, tmp_path, monkeypatch):
        from llmevolve import sandbox

        run_dir, _, summary = small_run(tmp_path)

        def no_start(launcher, timeout):
            raise AssertionError("a launcher was started")

        monkeypatch.setattr(sandbox.Launcher, "_start", no_start)
        assert engine.resume(run_dir) == summary

"""Orchestration: epoch loop, migration, checkpoint/resume, ablations."""

import hashlib
import json
import os
import pickle
import random
import signal
import sys
import tempfile
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


def solution_records(run_dir: Path) -> dict:
    """The solutions log's records by solution id; no id has two."""
    with open(run_dir / "solutions.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    by_id = {r["solution"]: r for r in records}
    assert len(by_id) == len(records)
    return by_id


def record_at(run_dir: Path, offset: int) -> dict:
    """The solutions-log record that starts at byte ``offset``."""
    with open(run_dir / "solutions.jsonl", "rb") as fh:
        fh.seek(offset)
        return json.loads(fh.readline())


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

    def test_a_run_without_a_valid_candidate_writes_no_best(self, tmp_path, monkeypatch):
        from llmevolve.problems import ScoreReport, get_problem

        invalid = ScoreReport(objective=0.0, fitness=0.0, valid=False, violations={"every construction": 1.0})
        monkeypatch.setattr(get_problem("p3.a"), "scorer", lambda artifact: invalid)
        run_dir, _, summary = small_run(tmp_path)
        assert summary.finished and set(summary.step_counts) == {"invalid_artifact"}
        assert (summary.best_solution_id, summary.best_fitness) == (None, 0.0)
        assert summary.best_objective is None
        assert not (run_dir / "best").exists()

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
        from llmevolve.config import ABLATION_PRESETS

        cfg = standard_config(
            num_islands=num_islands,
            epochs=7,
            migration_every=2,
            init_population=1,
            **ABLATION_PRESETS[preset],
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

    @pytest.mark.parametrize("phase", ["set_up", "step"])
    def test_a_program_that_is_not_utf8_text_fails_its_generation_not_the_run(self, tmp_path, phase):
        from llmevolve.problems import get_problem

        run_dir = tmp_path / "surrogate"
        run_dir.mkdir()
        # JSON carries a lone surrogate, which no program file can hold.
        trivial = get_problem("p3.a").trivial_code
        if phase == "set_up":
            responses = [fenced("print('\ud800')\n"), fenced(trivial)]
            statuses = {"init": ["valid", "generation_failed"], "step": ["valid"]}
        else:
            edit = "<<<<<<< SEARCH\nimport json, os\n=======\nimport json, os\nprint('\ud800')\n>>>>>>> REPLACE\n"
            responses = [fenced(trivial), edit]
            statuses = {"init": ["valid", "valid"], "step": ["generation_failed"]}
        with open(run_dir / "transcripts.jsonl", "w", encoding="utf-8") as fh:
            for index, response in enumerate(responses):
                fh.write(json.dumps({"island": 0, "index": index, "response": response}) + "\n")
        cfg = standard_config(num_islands=1, epochs=1, init_population=1, p_explore=0.0)
        summary = engine.run(cfg, run_dir)
        assert summary.finished
        events = read_events(run_dir)
        for kind, expected in statuses.items():
            assert [r["status"] for r in events if r["type"] == kind] == expected
        [failed] = [r for r in events if r["status"] == "generation_failed"]
        assert (failed["insert"] == "not_attempted") == (phase == "set_up")  # a failed step enters below capacity
        record = solution_records(run_dir)[failed["solution"]]
        assert "leaves a program that is not UTF-8 text" in record["feedback"]
        assert (run_dir / "best" / "solution.py").read_text(encoding="utf-8") == trivial

    def test_a_reply_changed_after_loading_fails_its_step_not_the_run(self, tmp_path):
        run_dir = tmp_path / "changed"
        path = write_transcript(run_dir, num_islands=1, calls_per_island=3)
        backend = ReplayBackend.from_file(path)
        # Rewrites the first step's reply, on line 2, in place and to the same length.
        data = path.read_bytes()
        with open(path, "r+b") as fh:
            fh.seek(data.index(b"Here is", data.index(b"\n")))
            fh.write(b"here is")
        cfg = standard_config(num_islands=1, epochs=2, init_population=1, p_explore=0.0)
        summary = engine.run(cfg, run_dir, backend=backend)
        assert summary.finished
        steps = [r for r in read_events(run_dir) if r["type"] == "step"]
        assert [r["status"] for r in steps] == ["generation_failed", "valid"]
        feedback = solution_records(run_dir)[steps[0]["solution"]]["feedback"]
        assert feedback.endswith(f"{path} line 2: the record changed after the transcript was loaded")

    def test_a_run_logs_each_evaluated_candidate_once_and_makes_no_solutions_directory(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        assert not (run_dir / "solutions").exists()
        generated = {r["solution"] for r in read_events(run_dir) if r["type"] in ("init", "step")}
        records = solution_records(run_dir)
        assert set(records) == generated
        _, state = load_latest_checkpoint(run_dir)
        for island in state.islands:
            for sol in island.all_solutions():  # migrant copies share their original's record
                record = record_at(run_dir, sol.log_ref)
                assert record == records[record["solution"]] and record["code"] == sol.code

    def test_step_counts_are_the_statuses_of_the_init_and_step_events(self, reference_run):
        from collections import Counter

        run_dir, summary = reference_run
        events = [r for r in read_events(run_dir) if r["type"] in ("init", "step")]
        assert len(events) == 5 * (1 + 6 + 100)  # migrant copies are not counted
        assert summary.step_counts == Counter(r["status"] for r in events)

    def test_prompts_and_records_do_not_name_the_launchers_work_directory(self, tmp_path):
        # Every reply raises, so each candidate's traceback names its script,
        # and a step's prompt carries its parent's traceback as feedback.
        cfg = standard_config(num_islands=1, epochs=12, init_population=1, p_explore=0.0)
        responses = {(0, n): fenced(f"raise RuntimeError('reply {n}')\n") for n in range(13)}
        sent, records = [], []
        for name in ("a", "b"):
            backend = _Recording(responses)
            engine.run(cfg, tmp_path / name, backend=backend)
            sent.append(backend.sent)
            records.append(sorted(solution_records(tmp_path / name).items()))
        assert len(sent[0]) == 13
        assert sent[0] == sent[1]
        assert records[0] == records[1]
        assert 'File "./candidate.py", line 1' in records[0][1][1]["stderr"]
        assert any('File "./candidate.py"' in m["content"] for messages in sent[0].values() for m in messages)

    def test_best_artifact_is_the_bytes_the_candidate_wrote(self, tmp_path):
        circles = [[(i % 6) / 6 + 0.08, (i // 6) / 6 + 0.08, 0.01] for i in range(26)]
        raw = json.dumps({"note": "caf\u00e9 \u2713", "circles": circles}, indent=3, ensure_ascii=False)
        raw = raw.encode("utf-8") + b"\r\n\t"
        program = f"import os\nwith open(os.environ['ARTIFACT_PATH'], 'wb') as fh:\n    fh.write({raw!r})\n"
        backend = ReplayBackend({(i, n): fenced(program) for i in (0, 1) for n in range(20)})
        cfg = standard_config(num_islands=2, epochs=2, migration_every=2, init_population=2)
        run_dir = tmp_path / "run"
        summary = engine.run(cfg, run_dir, backend=backend)
        assert summary.best_fitness == pytest.approx(0.26)
        assert (run_dir / "best" / "artifact.json").read_bytes() == raw

    def test_config_snapshot_reloads_equal(self, tmp_path):
        from llmevolve.config import load_config
        from llmevolve.llm import EnsembleConfig, EnsembleMember, MetaModel, RetryPolicy

        cfg = standard_config(
            num_islands=3,
            topology=[(0, 1), (1, 2)],
            epochs=1,
            init_population=1,
            max_ancestor_depth=2,
            num_inspirations=0,
            evolution=False,
            ensemble=EnsembleConfig(
                members=[EnsembleMember(name="solo", weight=1.0, max_output_tokens=512)],
                meta_model=MetaModel(name="meta", temperature=0.2),
                retry=RetryPolicy(backoff_seconds=(0.0, 0.25)),
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

    @pytest.mark.parametrize("resumed", [False, True], ids=["straight", "resumed"])
    def test_the_best_is_an_original_not_its_migrant_copy(self, tmp_path, resumed):
        # Island 1 writes the better programs, so after the migration at the
        # last epoch island 0 holds a copy as fit as the best; the older
        # original ranks first.
        from conftest import fenced, packing_program
        from llmevolve.llm import ReplayBackend

        radius = {0: 5e-4, 1: 0.01}
        responses = {
            (i, n): fenced(packing_program(26, radius[i]))
            for i in (0, 1)
            for n in range(20)
        }
        cfg = standard_config(num_islands=2, epochs=3, migration_every=3, init_population=2)
        run_dir = tmp_path / "run"
        summary = engine.run(cfg, run_dir, backend=ReplayBackend(responses), stop_after_epoch=2 if resumed else None)
        if resumed:  # past its checkpoint, as a killed run leaves it: a torn record
            with open(run_dir / "solutions.jsonl", "ab") as fh:
                fh.write(b'{"solution": "i1-s00099", "code": "lost')
            summary = engine.resume(run_dir, backend=ReplayBackend(responses))
        _, state = load_latest_checkpoint(run_dir)
        best = state.islands[1].lookup(summary.best_solution_id)
        assert "original_id" not in best.provenance
        copies = [s for s in state.islands[0].live() if s.provenance.get("original_id") == best.id]
        assert [copy.fitness for copy in copies] == [best.fitness]
        assert best.id in {event.get("solution") for event in read_events(run_dir)}
        assert json.loads((run_dir / "best" / "summary.json").read_text())["solution"] == best.id
        exported = (run_dir / "best" / "artifact.json").read_bytes()
        assert exported == solution_records(run_dir)[best.id]["artifact"].encode("utf-8")

    def test_a_migrant_copy_keeps_every_field_it_does_not_reset(self, tmp_path):
        import dataclasses

        from llmevolve.core import STATUS_VALID, IslandState, Solution
        from llmevolve.engine import RunState, _Run

        @dataclasses.dataclass
        class NotedSolution(Solution):  # a field that ``migrate`` does not name
            note: str = ""

        islands = [IslandState(i, 40, master_seed=0) for i in range(2)]
        original = NotedSolution(
            "i0-s00000", 0, "print(1)\n", "explored", parent_id="i0-s00009",
            epoch_created=2, metrics={"objective": 1.5}, fitness=1.5, status=STATUS_VALID,
            log_ref=1234, feedback="tail", note="kept",
        )
        islands[0].try_insert(original)
        cfg = standard_config(num_islands=2)
        no_launchers = engine.start_launchers(cfg, running=False)
        runner = _Run(cfg, tmp_path, ReplayBackend({}), RunState(islands), no_launchers)
        try:
            runner.migrate(3)
        finally:
            runner.close()
        [copy] = islands[1].solutions.values()
        assert original.has_migrated
        assert copy == NotedSolution(
            "i1-s00000", 1, "print(1)\n", "explored", epoch_created=3,
            metrics={"objective": 1.5}, fitness=1.5, status=STATUS_VALID,
            log_ref=1234, feedback="tail", note="kept",
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
        cfg = standard_config(num_islands=islands, migration_every=every, evolution=evolution)
        assert {epoch: cfg.migrations_before(epoch) for epoch in counts} == counts


class TestImprovementThroughMigration:
    def test_the_best_changes_twice_and_the_final_best_descends_from_a_migrant_copy(self, climbing_run):
        run_dir, summary = climbing_run
        events = read_events(run_dir)
        made = {e["solution"]: e for e in events if e["type"] in ("init", "step")}
        best, changes = max(e["fitness"] for e in events if e["type"] == "init"), 0
        for e in events:
            if e["type"] == "step" and e["fitness"] > best:
                best, changes = e["fitness"], changes + 1
        assert changes >= 2
        assert summary.best_fitness == best
        # A migrant copy is no init or step event's solution; the lineage
        # ends at the first solution that is not made on its island.
        lineage = [summary.best_solution_id]
        while lineage[-1] in made:
            lineage.append(made[lineage[-1]].get("parent"))  # init events have none
        assert lineage[-1] is not None
        best_island = summary.best_solution_id.split("-")[0]  # "i<n>", the island that made or received it
        assert lineage[-1].startswith(f"{best_island}-")
        assert best_island != "i0"  # so it received island 0's program, the only one that improves


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

    def test_a_checkpoint_of_plain_random_streams_resumes_to_the_straight_run(self, tmp_path):
        # As an earlier release wrote it: each stream a ``random.Random``.
        cfg = standard_config(num_islands=2, epochs=6, migration_every=3, init_population=2)
        dir_a = tmp_path / "straight"
        write_transcript(dir_a, num_islands=2, calls_per_island=40)
        engine.run(cfg, dir_a)
        dir_b = tmp_path / "interrupted"
        write_transcript(dir_b, num_islands=2, calls_per_island=40)
        engine.run(cfg, dir_b, stop_after_epoch=4)
        for ckpt in (dir_b / "checkpoints").glob("epoch_*.ckpt"):
            config, state = engine.load_checkpoint(ckpt)
            for island in state.islands:
                for name in ("coin_rng", "select_rng", "model_rng"):
                    plain = random.Random()
                    plain.setstate(getattr(island, name).getstate())
                    setattr(island, name, plain)
            payload = pickle.dumps({"version": engine.CHECKPOINT_VERSION, "config": config, "state": state})
            assert b"RandomStream" not in payload and b"_unpack_stream" not in payload
            ckpt.write_bytes(hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload)
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

    def test_checkpoints_are_kept_and_loaded_by_epoch_number(self, tmp_path):
        from llmevolve.config import ConfigError
        from llmevolve.core import IslandState
        from llmevolve.engine import RunState, _Run

        cfg = standard_config(num_islands=1)
        state = RunState([IslandState(0, 40, master_seed=0)])
        runner = _Run(cfg, tmp_path, ReplayBackend({}), state, engine.start_launchers(cfg, running=False))
        try:
            for epoch in (99_960, 100_000, 100_040):
                state.epoch = epoch
                runner.checkpoint()
        finally:
            runner.close()
        kept = sorted(p.name for p in (tmp_path / "checkpoints").iterdir())
        assert kept == ["epoch_100000.ckpt", "epoch_100040.ckpt"]
        assert load_latest_checkpoint(tmp_path)[1].epoch == 100_040
        with pytest.raises(ConfigError, match="checkpointed in .*epoch_100040.ckpt"):
            engine.run(cfg, tmp_path)

    @pytest.mark.parametrize("version", [None, 2, 3, 4], ids=["no_version", "version_2", "version_3", "version_4"])
    def test_a_checkpoint_of_an_earlier_version_is_refused(self, tmp_path, version):
        from click.testing import CliRunner

        from llmevolve.cli import main

        run_dir, _, _ = small_run(tmp_path)
        for ckpt in (run_dir / "checkpoints").glob("epoch_*.ckpt"):
            config, state = engine.load_checkpoint(ckpt)
            doc = {"config": config, "state": state}
            if version is not None:
                doc["version"] = version
            payload = pickle.dumps(doc)
            ckpt.write_bytes(hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload)
        files = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        with pytest.raises(CheckpointError, match="predates version 5"):
            engine.resume(run_dir)
        result = CliRunner().invoke(main, ["resume", "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert "Error:" in result.output and "predates version 5" in result.output
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == files

    def test_a_checkpoint_naming_a_class_core_lacks_is_refused(self, tmp_path, monkeypatch):
        from click.testing import CliRunner

        from llmevolve import core
        from llmevolve.cli import main

        run_dir, _, _ = small_run(tmp_path)
        # A class of ``core`` that exists only while the checkpoints are
        # pickled, as one that another version of llmevolve kept there.
        stale = type("Prompt", (), {"__module__": core.__name__})
        monkeypatch.setattr(core, "Prompt", stale, raising=False)
        for ckpt in (run_dir / "checkpoints").glob("epoch_*.ckpt"):
            config, state = engine.load_checkpoint(ckpt)
            payload = pickle.dumps(
                {"version": engine.CHECKPOINT_VERSION, "config": config, "state": state, "pool": [stale()]}
            )
            ckpt.write_bytes(hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload)
        monkeypatch.delattr(core, "Prompt")
        files = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        with pytest.raises(CheckpointError, match="cannot be unpickled; another version wrote it"):
            engine.resume(run_dir)
        result = CliRunner().invoke(main, ["resume", "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert result.output.startswith("Error: checkpoint ")
        assert "epoch_00003.ckpt cannot be unpickled" in result.output
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == files

    def test_a_run_keeps_the_newest_two_checkpoints(self, tmp_path):
        cfg = standard_config(num_islands=2, epochs=8, migration_every=2, init_population=2)
        straight, run_dir = tmp_path / "straight", tmp_path / "corrupted"
        for path in (straight, run_dir):
            write_transcript(path, num_islands=2, calls_per_island=40)
        summary = engine.run(cfg, straight)
        engine.run(cfg, run_dir)
        kept = sorted(p.name for p in (run_dir / "checkpoints").iterdir())
        assert kept == ["epoch_00006.ckpt", "epoch_00008.ckpt"]
        newest = run_dir / "checkpoints" / "epoch_00008.ckpt"
        newest.write_bytes(newest.read_bytes()[:-1])
        assert load_latest_checkpoint(run_dir)[1].epoch == 6
        assert engine.resume(run_dir) == summary
        for name in ("events.jsonl", "best/solution.py", "best/summary.json", "best/artifact.json"):
            assert (run_dir / name).read_bytes() == (straight / name).read_bytes()

    def test_pruning_changes_no_output(self, tmp_path, monkeypatch):
        from collections import Counter

        from conftest import packing_program
        from llmevolve.core import IslandState

        cfg = standard_config(num_islands=2, epochs=12, migration_every=3, init_population=2, max_population=4)

        def outputs(name):
            # Every reply beats the trivial program and the ones before it, so
            # lineages grow through evicted ancestors. A set-up miss and a
            # transcript that runs out give generation failures at set-up and
            # in steps.
            responses = {
                (i, n): fenced(packing_program(26, 0.002 + (16 * i + n) * 1e-5)) for i in (0, 1) for n in range(16)
            }
            del responses[(0, 1)]
            run_dir = tmp_path / name
            summary = engine.run(cfg, run_dir, backend=ReplayBackend(responses))
            best = {p.name: p.read_bytes() for p in (run_dir / "best").iterdir()}
            records = sorted(solution_records(run_dir).items())
            return summary, (run_dir / "events.jsonl").read_bytes(), best, records

        pruned = outputs("pruned")
        assert pruned[0].step_counts["generation_failed"] > 1
        generated = [r["solution"] for r in read_events(tmp_path / "pruned") if r["type"] in ("init", "step")]
        assert [sid for sid, _ in pruned[3]] == sorted(generated)  # failures have records too
        _, state = load_latest_checkpoint(tmp_path / "pruned")
        held = sum(len(island.solutions) + len(island.archive) for island in state.islands)
        assert held < sum(pruned[0].step_counts.values())  # something was pruned
        assert any(island.archive for island in state.islands)  # and something kept
        monkeypatch.setattr(IslandState, "prune", lambda island: None)
        assert outputs("unpruned") == pruned
        statuses = Counter(r["status"] for r in read_events(tmp_path / "unpruned") if r["type"] in ("init", "step"))
        assert pruned[0].step_counts == statuses

    @pytest.mark.parametrize("log", ["events.jsonl", "solutions.jsonl"])
    @pytest.mark.parametrize("cut", ["deleted", "shortened"])
    def test_resume_refuses_a_log_shorter_than_its_checkpoint(self, tmp_path, log, cut):
        from click.testing import CliRunner

        from llmevolve.cli import main

        cfg = standard_config(num_islands=2, epochs=6, migration_every=3, init_population=2)
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=40)
        engine.run(cfg, run_dir, stop_after_epoch=2)
        path = run_dir / log
        if cut == "deleted":
            path.unlink()
        else:
            path.write_bytes(path.read_bytes()[:-1])
        files = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}
        with pytest.raises(CheckpointError, match=log):
            engine.resume(run_dir)
        result = CliRunner().invoke(main, ["resume", "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert "Error:" in result.output and log in result.output
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == files

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

    def test_a_checkpoint_is_a_digest_line_and_the_pickle_it_digests(self, tmp_path):
        run_dir, _, _ = small_run(tmp_path)
        for ckpt in (run_dir / "checkpoints").glob("epoch_*.ckpt"):
            blob = ckpt.read_bytes()
            digest, newline, payload = blob[:64], blob[64:65], blob[65:]
            assert newline == b"\n"
            assert hashlib.sha256(payload).hexdigest().encode("ascii") == digest
            doc = pickle.loads(payload)
            assert doc["version"] == engine.CHECKPOINT_VERSION
            # Written whole from the pickle's bytes, as earlier releases did, it loads the same.
            config, state = engine.load_checkpoint(ckpt)
            whole = pickle.dumps({"version": engine.CHECKPOINT_VERSION, "config": config, "state": state})
            ckpt.write_bytes(hashlib.sha256(whole).hexdigest().encode("ascii") + b"\n" + whole)
            reloaded = engine.load_checkpoint(ckpt)
            assert pickle.dumps(reloaded) == pickle.dumps((doc["config"], doc["state"]))

    @pytest.mark.parametrize("keep", [0, 1, 0.5, -1], ids=["empty", "one_byte", "half", "all_but_the_last_byte"])
    def test_a_pickle_cut_short_under_a_matching_digest_is_refused(self, tmp_path, keep):
        run_dir, _, _ = small_run(tmp_path)
        ckpts = list((run_dir / "checkpoints").glob("epoch_*.ckpt"))
        for ckpt in ckpts:
            payload = ckpt.read_bytes()[65:]
            payload = payload[: int(len(payload) * keep) if isinstance(keep, float) else keep]
            ckpt.write_bytes(hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload)
            with pytest.raises(CheckpointError, match=f"{ckpt.name} cannot be unpickled"):
                engine.load_checkpoint(ckpt)
        with pytest.raises(CheckpointError, match="cannot be unpickled"):
            engine.resume(run_dir)

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], {"version": 4}, {"version": 4, "config": None, "state": None}],
        ids=["list", "mapping_without_config_or_state", "config_and_state_of_other_types"],
    )
    def test_a_checkpoint_that_holds_no_config_and_state_is_refused(self, tmp_path, doc):
        straight, _, summary = small_run(tmp_path, "straight")
        run_dir, _, _ = small_run(tmp_path, "damaged")
        newest = engine.checkpoints_of(run_dir)[-1]
        payload = pickle.dumps(doc)
        newest.write_bytes(hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload)
        with pytest.raises(CheckpointError, match=f"checkpoint {newest} holds no mapping of a config and a state"):
            engine.load_checkpoint(newest)
        assert load_latest_checkpoint(run_dir)[1].epoch == 3
        assert engine.resume(run_dir) == summary
        for name in ("events.jsonl", "best/summary.json", "best/artifact.json"):
            assert (run_dir / name).read_bytes() == (straight / name).read_bytes()

    def test_a_checkpoint_is_written_and_loaded_without_a_copy_of_its_payload(self, tmp_path):
        import tracemalloc

        from llmevolve.core import STATUS_VALID, IslandState, Solution
        from llmevolve.engine import RunState, _Run

        cfg = standard_config(num_islands=1)
        island = IslandState(0, 48, master_seed=0)
        for n in range(48):  # 48 distinct programs of 102 KB each
            sid = island.next_solution_id()
            code = f"# {sid}\n" + "x = 1\n" * 17_000
            island.solutions[sid] = Solution(sid, 0, code, "brief", status=STATUS_VALID, fitness=n)
        state = RunState([island], epoch=3)
        runner = _Run(cfg, tmp_path, ReplayBackend({}), state, engine.start_launchers(cfg, running=False))
        mib = 1 << 20
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            path = runner.checkpoint()
            write_peak = tracemalloc.get_traced_memory()[1] - base
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, loaded = engine.load_checkpoint(path)
            held, load_peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
            runner.close()
        assert path.stat().st_size >= 4 * mib
        assert write_peak < mib
        assert held >= 4 * mib and load_peak < held + mib
        assert [s.code for s in loaded.islands[0].live()] == [s.code for s in island.live()]

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

    @pytest.mark.parametrize("failing", ["replace", "payload"])
    def test_failed_checkpoint_write_keeps_the_previous_one(self, tmp_path, monkeypatch, failing):
        run_dir = tmp_path / "ckpt"
        cfg = standard_config(num_islands=2, epochs=6, migration_every=3, init_population=2)
        write_transcript(run_dir, num_islands=2, calls_per_island=40)
        replace, dump = os.replace, pickle.dump
        calls = []

        def replace_failing_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise OSError("disk full")
            replace(src, dst)

        def dump_failing_second(obj, fh, *args, **kwargs):
            calls.append(fh)
            if len(calls) == 2:  # the disk fills after part of the payload reached the file
                fh.write(pickle.dumps(obj)[:1000])
                fh.flush()
                raise OSError("disk full")
            dump(obj, fh, *args, **kwargs)

        if failing == "replace":
            monkeypatch.setattr(os, "replace", replace_failing_second)
        else:
            monkeypatch.setattr(pickle, "dump", dump_failing_second)
        with pytest.raises(OSError, match="disk full"):
            engine.run(cfg, run_dir)
        assert [p.name for p in (run_dir / "checkpoints").iterdir()] == ["epoch_00003.ckpt"]
        _, state = load_latest_checkpoint(run_dir)
        assert state.epoch == 3

    @pytest.mark.parametrize("islands", [(2, 2), (1, 3)], ids=["same_islands", "more_islands"])
    def test_a_fresh_run_into_a_directory_that_holds_a_run_is_refused(self, tmp_path, monkeypatch, islands):
        # Left to run, the second run would leave its epoch 3 checkpoint
        # beside the first run's epoch 4 one, which a resume would then load.
        from llmevolve import sandbox
        from llmevolve.config import ConfigError

        first, second = islands
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=max(islands), calls_per_island=40)
        done = engine.run(standard_config(num_islands=first, epochs=4, migration_every=2, init_population=2), run_dir)
        files = {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}

        def no_start(*args):
            raise AssertionError("a launcher started")

        monkeypatch.setattr(sandbox, "LauncherPool", no_start)
        again = standard_config(num_islands=second, epochs=9, migration_every=3, init_population=2)
        with pytest.raises(ConfigError, match="holds a run, checkpointed in .*epoch_00004.ckpt"):
            engine.run(again, run_dir, stop_after_epoch=3)
        assert {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()} == files
        monkeypatch.undo()
        assert engine.resume(run_dir) == done

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

    @staticmethod
    def _hashing_program(radius: float) -> str:
        """A packing whose radius grows with a name's position in a set of 20
        strings, an order that follows the string-hash seed."""
        return (
            "import json, os\n"
            "position = list(set(f'name-{i}' for i in range(20))).index('name-0')\n"
            f"r = {radius!r} + position * 1e-5\n"
            "circles = [[(i % 6) / 6 + 0.08, (i // 6) / 6 + 0.08, r] for i in range(26)]\n"
            'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
            '    json.dump({"circles": circles}, fh)\n'
        )

    def test_candidates_that_hash_strings_give_the_same_event_log(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PYTHONHASHSEED", "random")  # the run's seed is set over it
        cfg = standard_config(num_islands=2, epochs=6, migration_every=3, init_population=2, sandbox_workers=2)
        logs = []
        for name, stop in (("a", None), ("b", None), ("resumed", 3)):
            run_dir = tmp_path / name
            run_dir.mkdir()
            with open(run_dir / "transcripts.jsonl", "w", encoding="utf-8") as fh:
                for island in range(2):
                    for index in range(40):
                        program = self._hashing_program(5e-4 + (island * 40 + index) * 1e-7)
                        fh.write(json.dumps({"island": island, "index": index, "response": fenced(program)}) + "\n")
            engine.run(cfg, run_dir, stop_after_epoch=stop)
            if stop is not None:
                engine.resume(run_dir)
            logs.append((run_dir / "events.jsonl").read_bytes())
        assert {r["status"] for r in read_events(tmp_path / "a") if "status" in r} == {"valid"}
        assert logs[0] == logs[1] == logs[2]


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


class _Recording(ReplayBackend):
    """Replay that keeps the messages of each call by its key."""

    def __init__(self, responses):
        super().__init__(responses)
        self.sent = {}

    def complete(self, model, messages, island_id, **kwargs):
        self.sent[island_id, kwargs["index"]] = messages
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

    @pytest.mark.parametrize("calls", [1, 4])
    def test_each_set_up_sends_on_a_pool_the_engine_starts(self, tmp_path, monkeypatch, calls):
        # One pool for the island jobs, then one per island's set-up, given
        # every set-up call but the first: a set-up of one call starts no thread.
        pools = []

        class CountingPool(engine.ThreadPoolExecutor):
            def __init__(self, max_workers):
                self.counts = [max_workers, 0]  # and the calls submitted
                pools.append(self.counts)
                super().__init__(max_workers)

            def submit(self, *args, **kwargs):
                self.counts[1] += 1
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", CountingPool)
        self._run(tmp_path / "run", init_population=calls, epochs=2)
        islands = self.CONFIG["num_islands"]
        assert pools == [[islands, islands]] + [[calls, calls - 1]] * islands

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
        from llmevolve.problems import get_problem

        # The transcript lacks set-up call 1 of island 0: that call's solution
        # is a generation failure, and every other id keeps its place.
        def missing(responses):
            responses = dict(responses)
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
        trivial = get_problem("p3.a").trivial_code
        assert solution_records(run_dir)["i0-s00002"] == {
            "solution": "i0-s00002",
            "code": trivial,
            "feedback": "initialization generation failed: replay transcript exhausted at island 0 call 1",
        }

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


class TestLauncherCount:
    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="pins the test's thread to one CPU with sched_setaffinity"
    )
    def test_concurrent_candidates_on_one_cpu_keep_their_wall_time(self):
        from concurrent.futures import ThreadPoolExecutor

        from llmevolve.config import RunConfig
        from llmevolve.sandbox import STATUS_OK, ResourceLimits

        # Each candidate needs 0.5 s of CPU under a 1 s wall limit. A launcher
        # per island would run all three at a third of the one CPU, and each
        # would time out; one launcher per CPU runs them in turn.
        busy = "import time\nstart = time.process_time()\nwhile time.process_time() - start < 0.5:\n    pass\n"
        limits = ResourceLimits(wall_seconds=1.0, memory_bytes=1 << 30)
        cfg = RunConfig(problem_id="p3.a", num_islands=3, interpreter=[sys.executable, "-S"], limits=limits)
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})  # this thread's, which the launchers inherit
        try:
            with engine.start_launchers(cfg, running=True) as pool, ThreadPoolExecutor(3) as threads:
                outcomes = list(threads.map(pool.run, [busy] * 3))
        finally:
            os.sched_setaffinity(0, cpus)
        assert [(out.status, out.stderr, out.artifact) for out in outcomes] == [(STATUS_OK, "", None)] * 3

    @pytest.mark.parametrize(
        "islands, cpus, workers, started", [(5, 2, None, 2), (3, 8, None, 3), (5, 2, 4, 4), (5, 2, 9, 5)]
    )
    def test_a_run_starts_a_launcher_per_usable_cpu_unless_told(self, monkeypatch, islands, cpus, workers, started):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = standard_config(num_islands=islands, sandbox_workers=workers)
        with engine.start_launchers(cfg, running=True) as pool:
            assert len(pool.launchers) == started
        with engine.start_launchers(cfg, running=False) as pool:  # a finished run
            assert pool.launchers == []

    @pytest.mark.parametrize("count, started", [(2, 2), (None, 1)])
    def test_without_an_affinity_a_run_counts_the_cpus(self, monkeypatch, count, started):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        with engine.start_launchers(standard_config(num_islands=5), running=True) as pool:
            assert len(pool.launchers) == started


class TestAblations:
    def test_no_evolution_has_no_parents_and_no_migration(self, tmp_path):
        run_dir = tmp_path / "no-evo"
        cfg = standard_config(
            num_islands=2,
            epochs=6,
            migration_every=3,
            init_population=2,
            max_population=4,
            evolution=False,
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
        run_dir = tmp_path / "no-insp"
        cfg = standard_config(
            num_islands=2,
            epochs=6,
            migration_every=2,
            init_population=2,
            num_inspirations=0,
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
            runner.pool.close()

    def _runner(self, tmp_path, solutions_log_pos=0, **overrides):
        cfg = standard_config(**{"num_islands": 1, **overrides})
        run_dir = tmp_path / "eval"
        run_dir.mkdir(exist_ok=True)
        from llmevolve.core import IslandState
        from llmevolve.llm import ReplayBackend
        from llmevolve.engine import _Run, RunState

        state = RunState(
            islands=[IslandState(i, cfg.max_population, cfg.master_seed) for i in range(cfg.num_islands)],
            solutions_log_pos=solutions_log_pos,
        )
        runner = _Run(cfg, run_dir, ReplayBackend({}), state, engine.start_launchers(cfg, running=True))
        self.runners.append(runner)
        return runner

    def _pending(self, code):
        from llmevolve.core import Solution, STATUS_PENDING

        return Solution(
            id="i0-s00000", island_id=0, code=code, prompt="initial prompt", status=STATUS_PENDING
        )

    def test_valid_packing_scores_passthrough(self, tmp_path):
        from conftest import packing_program

        runner = self._runner(tmp_path)
        sol = runner.evaluate(self._pending(packing_program(26, 0.01)))
        assert sol.status == "valid"
        assert sol.fitness == pytest.approx(26 * 0.01)
        assert sol.metrics["objective"] == pytest.approx(0.26)
        assert sol.log_ref == 0

    def test_timeout_yields_zero_fitness(self, tmp_path):
        from llmevolve.sandbox import ResourceLimits

        runner = self._runner(
            tmp_path, limits=ResourceLimits(wall_seconds=1.0, memory_bytes=1 << 30)
        )
        sol = runner.evaluate(self._pending("while True:\n    pass\n"))
        assert sol.status == "timeout"
        assert sol.feedback == "execution timeout"  # the engine's own kill is not named
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
        [stored] = solution_records(runner.run_dir).values()
        assert sorted(stored) == ["artifact", "code", "solution"]

    def test_evaluating_again_leaves_no_file_of_the_first_evaluation(self, tmp_path):
        # As after a resume: past the checkpointed position, the killed run
        # logged this candidate with logs and an artifact that this
        # evaluation of it does not produce.
        kept = {"solution": "i0-s00009", "code": "print(9)\n", "stdout": "9\n"}
        killed = {"solution": "i0-s00000", "code": "print(0)\n", "stdout": "from the killed run",
                  "stderr": "from the killed run", "artifact": "from the killed run"}
        checkpointed = (json.dumps(kept) + "\n").encode()
        (tmp_path / "eval").mkdir()
        (tmp_path / "eval" / "solutions.jsonl").write_bytes(checkpointed + (json.dumps(killed) + "\n").encode())
        runner = self._runner(tmp_path, solutions_log_pos=len(checkpointed))
        sol = runner.evaluate(self._pending("import sys\nsys.exit(0)\n"))
        assert sol.status == "invalid_artifact"
        assert sol.log_ref == len(checkpointed)
        assert runner._record(sol.log_ref)["code"] == "import sys\nsys.exit(0)\n"
        assert solution_records(runner.run_dir) == {
            "i0-s00009": kept,
            "i0-s00000": {
                "solution": "i0-s00000",
                "code": "import sys\nsys.exit(0)\n",
                "feedback": sol.feedback,
            },
        }

    def test_a_valid_artifact_that_is_not_utf8_is_logged_byte_for_byte(self, tmp_path, monkeypatch):
        from conftest import packing_program

        runner = self._runner(tmp_path)
        parser = runner.problem.parser
        monkeypatch.setattr(runner.problem, "parser", lambda raw: parser(raw.rstrip(b"\xff")))
        code = packing_program(26, 0.01) + (
            'with open(os.environ["ARTIFACT_PATH"], "ab") as fh:\n    fh.write(b"\\xff")\n'
        )
        sol = runner.evaluate(self._pending(code))
        assert sol.status == "valid"
        [stored] = solution_records(runner.run_dir).values()
        raw = stored["artifact"].encode("utf-8", "surrogateescape")
        assert raw.endswith(b"}\xff")
        assert json.loads(raw[:-1])["circles"][0] == [0.08, 0.08, 0.01]
        runner.state.islands[0].try_insert(sol)
        runner.export_best()
        assert (runner.run_dir / "best" / "artifact.json").read_bytes() == raw

    _CIRCLES = [[(i % 6) / 6 + 0.08, (i // 6) / 6 + 0.08, 0.01] for i in range(26)]

    @pytest.mark.parametrize(
        "artifact, scorer_raises, feedback",
        [
            (None, False, "no artifact file was written"),
            (" " * (64 * 1024 + 1), False, "invalid artifact: 65537 bytes, more than the 65536 allowed"),
            ("[1]", False, "invalid artifact: artifact root must be a JSON object"),
            (json.dumps({"circles": _CIRCLES}), True,
             "invalid artifact: scorer raised ZeroDivisionError: division by zero"),
            (json.dumps({"circles": [[0.08, 0.08, 0.09]] + _CIRCLES[1:]}), False,
             "constraint violations: bottom_bound_0=0.01, left_bound_0=0.01"),
        ],
        ids=["no_file", "over_the_cap", "unparsable", "scorer_raised", "violations"],
    )
    def test_an_invalid_artifact_names_its_one_fault(self, tmp_path, monkeypatch, artifact, scorer_raises, feedback):
        def broken_scorer(artifact):
            raise ZeroDivisionError("division by zero")

        runner = self._runner(tmp_path)
        if scorer_raises:
            monkeypatch.setattr(runner.problem, "scorer", broken_scorer)
        code = "import os\n"
        if artifact is not None:
            code += f"with open(os.environ['ARTIFACT_PATH'], 'w') as fh:\n    fh.write({artifact!r})\n"
        sol = runner.evaluate(self._pending(code))
        assert (sol.status, sol.feedback, sol.fitness, sol.metrics) == ("invalid_artifact", feedback, 0.0, {})
        [stored] = solution_records(runner.run_dir).values()
        assert stored["feedback"] == feedback and "artifact" not in stored

    # What a candidate leaves as its artifact, and what the same file (the
    # target of the symlink) gives through ``llmevolve score``: its exit code
    # and JSON line (None for a usage error). A run follows no symlink; the
    # command follows the path it is given, and click refuses a directory.
    @pytest.mark.parametrize(
        "left, feedback, exit_code, line",
        [
            ("fifo", "invalid artifact: not a regular file", 1, {"valid": False, "error": "not a regular file"}),
            ("symlink", "no artifact file was written", 0, {"valid": True}),
            ("directory", "no artifact file was written", 2, None),
            ("over_the_cap", "invalid artifact: 65537 bytes, more than the 65536 allowed", 1,
             {"valid": False, "error": "65537 bytes, more than the 65536 allowed"}),
            ("at_the_cap", None, 0, {"valid": True}),
        ],
    )
    def test_a_run_and_the_score_command_give_one_verdict_and_read_no_special_file(
        self, tmp_path, left, feedback, exit_code, line
    ):
        from click.testing import CliRunner

        from llmevolve.cli import main

        doc = json.dumps({"circles": self._CIRCLES}).encode()
        (tmp_path / "at_the_cap").write_bytes(doc.ljust(64 * 1024))
        (tmp_path / "over_the_cap").write_bytes(doc.ljust(64 * 1024 + 1))
        (tmp_path / "symlink").symlink_to(tmp_path / "at_the_cap")
        (tmp_path / "directory").mkdir()
        os.mkfifo(tmp_path / "fifo")
        # Holds the FIFO open with bytes in it, which a read would take.
        held = os.open(tmp_path / "fifo", os.O_RDWR | os.O_NONBLOCK)
        try:
            os.write(held, b"unread")
            source = str(tmp_path / left)
            make = {
                "fifo": f"os.link({source!r}, path)",
                "symlink": f"os.symlink({str(tmp_path / 'at_the_cap')!r}, path)",
                "directory": "os.mkdir(path)",
            }.get(left, f"shutil.copyfile({source!r}, path)")
            sol = self._runner(tmp_path).evaluate(
                self._pending(f"import os, shutil\npath = os.environ['ARTIFACT_PATH']\n{make}\n")
            )
            result = CliRunner().invoke(main, ["score", "p3.a", source])
            assert os.read(held, 64) == b"unread"
        finally:
            os.close(held)
        assert sol.feedback == feedback
        assert sol.status == ("valid" if feedback is None else "invalid_artifact")
        assert result.exit_code == exit_code, result.output
        if line is None:
            assert "is a directory" in result.output
        else:
            assert line.items() <= json.loads(result.output).items()

    @pytest.mark.parametrize(
        "code, feedback",
        [
            ("import sys\nsys.exit(0)\n", "no artifact file was written"),
            ("print('hi')\n", "hi\n\nno artifact file was written"),
        ],
    )
    def test_a_clean_exit_without_an_artifact_says_so(self, tmp_path, code, feedback):
        sol = self._runner(tmp_path).evaluate(self._pending(code))
        assert sol.status == "invalid_artifact"
        assert sol.feedback == feedback

    def test_runtime_error_captured(self, tmp_path):
        runner = self._runner(tmp_path)
        sol = runner.evaluate(self._pending("raise RuntimeError('nope')\n"))
        assert sol.status == "runtime_error"
        assert "nope" in sol.feedback
        [stored] = solution_records(runner.run_dir).values()
        assert sorted(stored) == ["code", "feedback", "solution", "stderr"]
        assert "RuntimeError: nope" in stored["stderr"]
        assert stored["feedback"] == sol.feedback

    @pytest.mark.parametrize(
        "sent, name",
        [
            ("signal.SIGSEGV", "SIGSEGV"),
            ("signal.SIGTERM", "SIGTERM"),
            ("signal.SIGRTMIN + 1", f"signal {signal.SIGRTMIN + 1}"),  # a real-time signal has no name of its own
        ],
        ids=["SIGSEGV", "SIGTERM", "SIGRTMIN+1"],
    )
    def test_a_candidate_ended_by_a_signal_names_it(self, tmp_path, sent, name):
        code = (
            "import os, resource, signal\n"
            "resource.setrlimit(resource.RLIMIT_CORE, (0, 0))\n"  # no core file
            f"os.kill(os.getpid(), {sent})\n"
        )
        sol = self._runner(tmp_path).evaluate(self._pending(code))
        assert sol.status == "runtime_error"
        # Any stderr (a fault handler's traceback) follows the first line.
        assert sol.feedback.partition(":\n")[0] == f"execution nonzero_exit: killed by {name}"

    def test_a_generation_failure_is_recorded_without_running(self, tmp_path, monkeypatch):
        from llmevolve import sandbox
        from llmevolve.core import STATUS_GENERATION_FAILED

        monkeypatch.setattr(sandbox, "run_candidate", lambda *args: pytest.fail("a generation failure ran"))
        runner = self._runner(tmp_path)
        sol = self._pending("print(1)\n")
        sol.status, sol.feedback = STATUS_GENERATION_FAILED, "generation failed: timed out"
        assert runner.evaluate(sol) is sol and sol.status == STATUS_GENERATION_FAILED
        assert solution_records(runner.run_dir) == {
            sol.id: {"solution": sol.id, "code": "print(1)\n", "feedback": "generation failed: timed out"}
        }
        assert sol.log_ref == 0

    def test_close_reaps_every_launcher(self, tmp_path):
        from conftest import packing_program

        runner = self._runner(tmp_path, sandbox_workers=2, num_islands=2)
        for _ in range(2):  # idle launchers are taken in turn, so both run one
            assert runner.evaluate(self._pending(packing_program(26, 0.01))).status == "valid"
        workdirs = [launcher.workdir for launcher in runner.pool.launchers]
        assert len(workdirs) == 2 and all(os.path.isdir(workdir) for workdir in workdirs)
        runner.pool.close()
        assert [launcher.proc.returncode for launcher in runner.pool.launchers] == [0, 0]
        assert not any(os.path.exists(workdir) for workdir in workdirs)

    def test_no_more_launchers_than_islands(self, tmp_path):
        runner = self._runner(tmp_path, sandbox_workers=4)
        assert len(runner.pool.launchers) == 1

    def test_evaluate_runs_the_candidate_on_the_calling_thread(self, tmp_path, monkeypatch):
        from conftest import packing_program
        from llmevolve import sandbox

        threads = []
        run_candidate = sandbox.run_candidate

        def recording(*args):
            threads.append(threading.get_ident())
            return run_candidate(*args)

        monkeypatch.setattr(sandbox, "run_candidate", recording)
        runner = self._runner(tmp_path)
        assert runner.evaluate(self._pending(packing_program(26, 0.01))).status == "valid"
        assert threads == [threading.get_ident()]


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

    def test_a_root_that_builds_a_deep_tree_leaves_no_directory_behind(self, tmp_path, monkeypatch):
        from conftest import packing_program

        temp = tmp_path / "temp"
        temp.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(temp))
        # Deeper than the recursion limit, and longer than PATH_MAX.
        deep = packing_program(26, 1e-3) + "for _ in range(3000):\n    os.mkdir('d')\n    os.chdir('d')\n"
        run_dir = tmp_path / "run"
        self._transcript(run_dir, [deep] + [packing_program(26, 1e-3)] * 3)
        assert engine.run(self._config(), run_dir).finished
        _, deep_root = [r for r in read_events(run_dir) if r["type"] == "init"]
        assert deep_root["status"] == "valid"
        assert not list(temp.glob("candidate-*"))

    @staticmethod
    def _files(run_dir):
        """Every path under ``run_dir``, with its bytes if it is a file."""
        return {path: path.read_bytes() if path.is_file() else None for path in run_dir.rglob("*")}

    @pytest.mark.parametrize(
        "interpreter, error",
        [
            (["/nonexistent/python"], "No such file or directory"),
            ([sys.executable, "-S", "-c", "import sys; sys.exit('no launcher here')"], "no launcher here"),
            # Each ignores PYTHONHASHSEED, so its candidates would hash strings unseeded.
            ([sys.executable, "-I"], "PYTHONHASHSEED"),
            ([sys.executable, "-E"], "PYTHONHASHSEED"),
            ([sys.executable, "-SE"], "PYTHONHASHSEED"),
        ],
        ids=["missing", "exits_before_ready", "isolated", "ignores_environment", "combined_flags"],
    )
    def test_a_run_whose_launcher_cannot_start_writes_nothing_and_calls_no_model(
        self, tmp_path, interpreter, error
    ):
        from conftest import packing_program
        from llmevolve.config import ConfigError

        run_dir = tmp_path / "run"
        self._transcript(run_dir, [packing_program(26, 1e-3)] * 4)
        before = self._files(run_dir)
        backend = _Recording(ReplayBackend.from_file(run_dir / "transcripts.jsonl").responses)
        with pytest.raises(ConfigError) as raised:
            engine.run(self._config(interpreter=interpreter), run_dir, backend=backend)
        assert interpreter[0] in str(raised.value) and error in str(raised.value)
        assert self._files(run_dir) == before
        assert backend.sent == {}

    def test_a_wall_limit_below_the_pid_handshake_times_out_every_candidate_on_the_same_launchers(
        self, tmp_path, monkeypatch
    ):
        from llmevolve.sandbox import ResourceLimits

        started = []
        start_launchers = engine.start_launchers

        def recording(config, running):
            pool = start_launchers(config, running)
            started.extend((launcher, launcher.proc) for launcher in pool.launchers)
            return pool

        monkeypatch.setattr(engine, "start_launchers", recording)
        run_dir, _, summary = small_run(tmp_path, limits=ResourceLimits(wall_seconds=1e-6, memory_bytes=1 << 30))
        assert summary.finished and set(summary.step_counts) == {"timeout"}
        assert {r["status"] for r in read_events(run_dir) if r["type"] in ("init", "step")} == {"timeout"}
        assert started and all(launcher.proc is proc for launcher, proc in started)

    @pytest.mark.parametrize("broken", ["removed", "exits_before_ready"])
    def test_a_resume_whose_launcher_cannot_start_writes_nothing_and_calls_no_model(self, tmp_path, broken):
        from conftest import packing_program
        from llmevolve.config import ConfigError

        wrapper = tmp_path / "python"
        wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" -S "$@"\n')
        wrapper.chmod(0o755)
        run_dir = tmp_path / "run"
        self._transcript(run_dir, [packing_program(26, 1e-3)] * 4)
        engine.run(self._config(interpreter=[str(wrapper)]), run_dir, stop_after_epoch=1)
        with open(run_dir / "solutions.jsonl", "a") as fh:  # as a killed run leaves past its checkpoint
            fh.write(json.dumps({"solution": "i0-s00009", "code": "print(9)\n"}) + "\n")
        if broken == "removed":
            wrapper.unlink()
        else:
            wrapper.write_text("#!/bin/sh\necho 'no launcher here' >&2\nexit 3\n")
        before = self._files(run_dir)
        backend = _Recording(ReplayBackend.from_file(run_dir / "transcripts.jsonl").responses)
        with pytest.raises(ConfigError) as raised:
            engine.resume(run_dir, backend=backend)
        assert str(wrapper) in str(raised.value)
        assert broken == "removed" or "code 3 before it was ready: no launcher here" in str(raised.value)
        assert self._files(run_dir) == before
        assert backend.sent == {}

    def test_resuming_a_finished_run_starts_no_launcher(self, tmp_path, monkeypatch):
        from llmevolve import sandbox

        run_dir, _, summary = small_run(tmp_path)

        def no_start(launcher):
            raise AssertionError("a launcher was started")

        monkeypatch.setattr(sandbox.Launcher, "spawn", no_start)
        assert engine.resume(run_dir) == summary

    def test_candidates_do_not_see_the_api_key(self, tmp_path, monkeypatch):
        from conftest import packing_program

        secret = "sk-not-for-candidates"
        monkeypatch.setenv("LLMEVOLVE_API_KEY", secret)
        printer = packing_program(26, 1e-2) + "print(os.environ)\nprint('key:', os.environ.get('LLMEVOLVE_API_KEY'))\n"
        run_dir = tmp_path / "run"
        self._transcript(run_dir, [printer] + [packing_program(26, 1e-3)] * 3)
        backend = _Recording(ReplayBackend.from_file(run_dir / "transcripts.jsonl").responses)
        engine.run(self._config(), run_dir, backend=backend)
        [record] = [r for r in solution_records(run_dir).values() if "print(os.environ)" in r["code"]]
        assert record["stdout"].endswith("key: None\n")
        assert "LLMEVOLVE_API_KEY" not in record["stdout"] and secret not in record["stdout"]
        prompts = [json.dumps(messages) for messages in backend.sent.values()]
        assert any("key: None" in prompt for prompt in prompts)  # the printer was a parent
        assert not any(secret in prompt for prompt in prompts)

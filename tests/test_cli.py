"""Command line behavior: run, resume, score, report."""

import json
import sys

import pytest
import yaml
from click.testing import CliRunner

from conftest import write_transcript
from llmevolve.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **overrides):
    doc = {
        "problem_id": "p3.a",
        "num_islands": 2,
        "epochs": 4,
        "migration_every": 2,
        "init_population": 2,
        "master_seed": 7,
        "backend": "replay",
        "interpreter": [sys.executable, "-S"],
        "limits": {"wall_seconds": 20.0, "memory_bytes": 1 << 30},
    }
    doc.update(overrides)
    path.write_text(yaml.safe_dump(doc))
    return path


class TestCmdRun:
    def test_replay_run_exits_zero_with_summary(self, runner, tmp_path):
        cfg = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=30)
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--run-dir", str(run_dir)]
        )
        assert result.exit_code == 0, result.output
        assert "best fitness" in result.output
        assert "reference objectives" in result.output

    @pytest.mark.parametrize(
        "doc",
        [
            {"epochs": 5},
            {"problem_id": "p3.a", "ensemble": {"members": [{"name": "a", "weight": 0.5}]}},
            {"problem_id": "p3.a", "limits": {"wall_seconds": -1, "memory_bytes": 1 << 30}},
            {
                "problem_id": "p3.a",
                "ensemble": {"members": [{"name": "a", "weight": 1.0}], "retry": {"max_attempts": 0}},
            },
            {"problem_id": "p3.a", "ensemble": "flash"},
            {"problem_id": "p3.a", "limits": [20, 1 << 30]},
            {"problem_id": "p3.a", "ablation": 3},
            {"problem_id": "p3.a", "epochs": 2.5},
            {"problem_id": "p3.a", "sandbox_workers": -2},
            {"problem_id": "p3.a", "sandbox_workers": 0},
            {"problem_id": "p3.a", "interpreter": "python3"},
            {"problem_id": "p3.a", "interpreter": []},
            {
                "problem_id": "p3.a",
                "ensemble": {
                    "members": [{"name": "a", "weight": 1.0}],
                    "meta_model": {"name": "m", "temperature": -3, "top_p": 7},
                },
            },
            {
                "problem_id": "p3.a",
                "ensemble": {"members": [{"name": "a", "weight": -0.5}, {"name": "b", "weight": 1.5}]},
            },
            {
                "problem_id": "p3.a",
                "ensemble": {"members": [{"name": "a", "weight": 1.0, "max_output_tokens": -5}]},
            },
        ],
        ids=[
            "missing_problem_id", "ensemble_weights", "negative_wall_seconds", "no_attempts",
            "ensemble_name", "limits_list", "ablation_number", "fractional_epochs",
            "negative_sandbox_workers", "zero_sandbox_workers", "interpreter_string",
            "no_interpreter", "meta_sampling", "negative_weight", "negative_max_output_tokens",
        ],
    )
    def test_invalid_config_is_config_error(self, runner, tmp_path, doc):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(
            main, ["run", "--config", str(path), "--run-dir", str(tmp_path / "r")]
        )
        assert result.exit_code != 0
        assert "invalid config" in result.output

    @pytest.mark.parametrize(
        "transcript", [None, '{"index": 0}\n'], ids=["missing", "record_without_response"]
    )
    def test_a_bad_transcript_is_an_error_message(self, runner, tmp_path, transcript):
        cfg = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        if transcript is not None:
            (run_dir / "transcripts.jsonl").write_text(transcript)
        result = runner.invoke(main, ["run", "--config", str(cfg), "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith("Error: cannot load the replay transcript")
        assert "transcripts.jsonl" in result.output
        assert not (run_dir / "config.yaml").exists()

    def test_epochs_override(self, runner, tmp_path):
        cfg = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=30)
        result = runner.invoke(
            main,
            ["run", "--config", str(cfg), "--run-dir", str(run_dir), "--epochs", "2"],
        )
        assert result.exit_code == 0, result.output
        assert "epochs run: 2" in result.output

    def test_resume_completes_run(self, runner, tmp_path):
        from llmevolve import engine
        from llmevolve.config import load_config

        cfg_path = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=30)
        engine.run(load_config(cfg_path), run_dir, stop_after_epoch=2)
        result = runner.invoke(main, ["resume", "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
        assert "epochs run: 4" in result.output

    def test_resume_with_a_bad_transcript_is_an_error_message(self, runner, tmp_path):
        from llmevolve import engine
        from llmevolve.config import load_config

        cfg_path = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=30)
        engine.run(load_config(cfg_path), run_dir, stop_after_epoch=2)
        with open(run_dir / "transcripts.jsonl", "a") as fh:
            fh.write('{"island": 0, "index": 99}\n')
        result = runner.invoke(main, ["resume", "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "line 61: the response is missing or not text" in result.output


class TestCmdScore:
    def test_a_directory_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["score", "p3.a", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "is a directory" in result.output

    def test_valid_circle_file(self, runner, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"circles": [[0.5, 0.5, 0.5]]}))
        result = runner.invoke(main, ["score", "p3.a", str(path)])
        # Wrong count for the 26-circle instance: valid geometry, invalid instance.
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["valid"] is False

    def test_p1_single_height(self, runner, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"heights": [1.0]}))
        result = runner.invoke(main, ["score", "p1", str(path)])
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["objective"] == pytest.approx(2 / 3, abs=1e-12)

    def test_overlapping_circles_nonzero_exit(self, runner, tmp_path):
        path = tmp_path / "artifact.json"
        circles = [[0.3, 0.5, 0.25], [0.6, 0.5, 0.25]] + [[0.02, 0.02, 0.001]] * 24
        path.write_text(json.dumps({"circles": circles}))
        result = runner.invoke(main, ["score", "p3.a", str(path)])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert any(k.startswith("overlap") for k in doc["violations"])

    def test_malformed_file(self, runner, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["score", "p1", str(path)])
        assert result.exit_code == 1

    def test_integer_beyond_float_range_is_invalid(self, runner, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text('{"heights": [1' + "0" * 400 + "]}")
        result = runner.invoke(main, ["score", "p1", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output)["valid"] is False

    def test_score_reproduces_run_objective(self, runner, tmp_path):
        """Scoring the exported best artifact matches the recorded objective."""
        from llmevolve import engine
        from llmevolve.config import load_config

        cfg_path = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=30)
        summary = engine.run(load_config(cfg_path), run_dir)
        result = runner.invoke(
            main, ["score", "p3.a", str(run_dir / "best" / "artifact.json")]
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["objective"] == summary.best_objective


class TestCmdReport:
    def _completed_run(self, tmp_path):
        from llmevolve import engine
        from llmevolve.config import load_config

        cfg_path = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=30)
        engine.run(load_config(cfg_path), run_dir)
        return run_dir

    def test_one_row_per_epoch(self, runner, tmp_path):
        run_dir = self._completed_run(tmp_path)
        result = runner.invoke(main, ["report", "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("epoch\t")
        assert len(lines) == 1 + 4  # header + one row per epoch

    def test_epsilon_zero_at_ceiling_marked_undefined(self, runner, tmp_path):
        run_dir = self._completed_run(tmp_path)
        result = runner.invoke(
            main, ["report", "--run-dir", str(run_dir), "--epsilon", "0"]
        )
        assert result.exit_code == 0
        assert "undefined" in result.output

    def test_finite_series_with_positive_epsilon(self, runner, tmp_path):
        run_dir = self._completed_run(tmp_path)
        result = runner.invoke(
            main, ["report", "--run-dir", str(run_dir), "--epsilon", "1e-4"]
        )
        assert result.exit_code == 0
        assert "undefined" not in result.output

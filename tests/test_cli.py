"""Command line behavior: run, resume, score, report."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import llmevolve
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
                "ensemble": {"members": [{"name": "a", "weight": 1.0}], "retry": {"max_attempts": 3}},
            },
            {"problem_id": "p3.a", "ensemble": "flash"},
            {"problem_id": "p3.a", "limits": [20, 1 << 30]},
            {"problem_id": "p3.a", "ablation": "mp"},
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
            {"problem_id": "p3.a", "limits": {"wall_seconds": 20.0, "memory_bytes": 1.5e9}},
            {"problem_id": "p3.a", "limits": {"wall_seconds": float("inf"), "memory_bytes": 1 << 30}},
            {"problem_id": "p3.a", "limits": {"wall_seconds": True, "memory_bytes": 1 << 30}},
            {"problem_id": "p3.a", "limits": {"wall_seconds": 20.0, "memory_bytes": True}},
            {"problem_id": "p3.a", "limits": {"wall_seconds": 1e300, "memory_bytes": 1 << 30}},
            {"problem_id": "p3.a", "limits": {"wall_seconds": 20.0, "memory_bytes": 1 << 70}},
            {"problem_id": "p3.a", "p_explore": True},
            {"problem_id": "p3.a", "migration_rate": True},
            {"problem_id": "p3.a", "evolution": "false"},
            {"problem_id": "p3.a", "evolution": 0},
            {
                "problem_id": "p3.a",
                "ensemble": {
                    "members": [{"name": "a", "weight": 1.0}],
                    "meta_model": {"name": "m", "max_output_tokens": 64},
                },
            },
            {"problem_id": "p3.a", "num_islands": 2, "topology": [[0.0, 1.0]]},
            {"problem_id": "p3.a", "num_islands": 2, "topology": [[0, 1.5]]},
            {"problem_id": "p3.a", "ensemble": {"members": [{"name": "a", "weight": 1.0, "temperature": True}]}},
            {
                "problem_id": "p3.a",
                "ensemble": {"members": [{"name": "a", "weight": 1.0}], "meta_model": {"name": "m", "top_p": True}},
            },
            {"problem_id": "p3.a", "ensemble": {"members": [{"name": "a", "weight": True}]}},
            {
                "problem_id": "p3.a",
                "ensemble": {"members": [{"name": "a", "weight": 1.0}], "retry": {"backoff_seconds": [True]}},
            },
            *(
                {
                    "problem_id": "p3.a",
                    "ensemble": {"members": [{"name": "a", "weight": 1.0}], "retry": {"backoff_seconds": backoff}},
                }
                for backoff in ("", "12", {0.5: 1}, [10**400], [1e300], [121])
            ),
            {"problem_id": "p3.a", "ensemble": {"members": [{"name": 2024, "weight": 1.0}]}},
            {"problem_id": "p3.a", "ensemble": {"members": [{"name": "", "weight": 1.0}]}},
            {
                "problem_id": "p3.a",
                "ensemble": {"members": [{"name": "a", "weight": 1.0}], "meta_model": {"name": 2024}},
            },
            {
                "problem_id": "p3.a",
                "ensemble": {
                    "members": [{"name": "a", "weight": 1.0}],
                    "metamodel": {"name": "big"},
                    "retyr": {"backoff_seconds": [0.0]},
                },
            },
            {"problem_id": "zz"},
            {"problem_id": "p3.a", "ensemble": {"members": [{"name": "a", "weight": 10**400}]}},
            {
                "problem_id": "p3.a",
                "ensemble": {"members": [{"name": "a", "weight": 1.0, "temperature": float("inf")}]},
            },
            {
                "problem_id": "p3.a",
                "ensemble": {
                    "members": [{"name": "a", "weight": 1.0}],
                    "meta_model": {"name": "m", "temperature": float("inf")},
                },
            },
            {"problem_id": "p3.a", "num_islands": 65},
            {"problem_id": "p3.a", "init_population": 65},
            {"problem_id": "p3.a", "base_url": 8000},
        ],
        ids=[
            "missing_problem_id", "ensemble_weights", "negative_wall_seconds", "retry_max_attempts",
            "ensemble_name", "limits_list", "ablation_key", "fractional_epochs",
            "negative_sandbox_workers", "zero_sandbox_workers", "interpreter_string",
            "no_interpreter", "meta_sampling", "negative_weight", "negative_max_output_tokens",
            "fractional_memory_bytes", "infinite_wall_seconds", "boolean_wall_seconds",
            "boolean_memory_bytes", "huge_wall_seconds", "huge_memory_bytes", "boolean_p_explore",
            "boolean_migration_rate", "string_evolution", "integer_evolution",
            "meta_max_output_tokens", "float_topology_edge", "fractional_topology_edge",
            "boolean_temperature", "boolean_top_p", "boolean_weight", "boolean_back_off",
            "empty_string_back_off", "string_back_off", "mapping_back_off",
            "huge_integer_back_off", "huge_back_off", "back_off_over_the_http_timeout",
            "integer_model_name", "empty_model_name", "integer_meta_model_name", "unknown_ensemble_keys",
            "unknown_problem_id", "huge_weight", "infinite_temperature",
            "infinite_meta_temperature", "too_many_islands", "too_large_init_population", "integer_base_url",
        ],
    )
    def test_invalid_config_is_config_error(self, runner, tmp_path, doc):
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(
            main, ["run", "--config", str(path), "--run-dir", str(tmp_path / "r")]
        )
        assert result.exit_code == 1
        assert result.output.startswith("Error: invalid config: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "text",
        [
            b"problem_id: [p3.a\n",
            b"problem_id: !!python/object/apply:os.getcwd []\n",
            b"problem_id: p3.a\nbase_url: caf\xe9\n",
            b"problem_id: p3.a\nmaster_seed: " + b"7" * 4301 + b"\n",
            b"- problem_id: p3.a\n",
            b"p3.a\n",
        ],
        ids=["yaml_syntax_error", "python_tag", "not_utf8", "integer_of_4301_digits", "list_root", "string_root"],
    )
    def test_an_unreadable_config_file_is_a_config_error_naming_it(self, runner, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        result = runner.invoke(main, ["run", "--config", str(path), "--run-dir", str(tmp_path / "r")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith(f"Error: invalid config: {path}: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("backend: {}\n", "unknown backend: <an integer too long to write in decimal>"),
            ("num_islands: 2\ntopology: [[0, {}]]\n", "topology edge <a tuple holding an integer too long to write"),
            ("topology: {}\n", "unknown topology: <an integer too long to write in decimal>"),
            ("ensemble:\n  members: [{{name: {}, weight: 1.0}}]\n", "model name <an integer too long to write"),
        ],
        ids=["backend", "topology_edge", "topology", "member_name"],
    )
    def test_a_refused_integer_too_long_to_write_is_described_in_a_message_naming_its_field(
        self, runner, tmp_path, text, message
    ):
        path = tmp_path / "bad.yaml"
        path.write_text("problem_id: p3.a\n" + text.format("0x" + "f" * 4000))
        result = runner.invoke(main, ["run", "--config", str(path), "--run-dir", str(tmp_path / "r")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith(f"Error: invalid config: {message}")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("doc", [{"problem_id": ["p1"]}, {"problem_id": 3}, {}], ids=["list", "integer", "missing"])
    def test_a_problem_id_that_is_not_a_string_is_a_config_error_naming_the_known_ones(self, doc):
        from llmevolve.config import ConfigError, config_from_dict

        known = "known: p1, p2.a, p2.b, p3.a, p3.b, p4"
        with pytest.raises(ConfigError, match=re.escape(f"problem_id must be a string naming a known problem; {known}")):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "edge", [[0.0, 1.0], [0, 1.5], [True, 0], [0, 1, 1]], ids=["float", "fractional", "boolean", "three_ends"]
    )
    def test_a_topology_edge_joins_two_integer_island_indices(self, edge):
        from llmevolve.config import ConfigError, config_from_dict

        doc = {"problem_id": "p3.a", "num_islands": 2, "topology": [edge]}
        with pytest.raises(ConfigError, match=re.escape(f"topology edge {tuple(edge)}")):
            config_from_dict(doc)

    def test_an_ensemble_that_omits_members_and_meta_model_keeps_their_defaults(self, tmp_path):
        from llmevolve.config import load_config
        from llmevolve.llm import EnsembleConfig, RetryPolicy

        path = tmp_path / "config.yaml"
        path.write_text("problem_id: p3.a\nensemble: {retry: {backoff_seconds: [0.1]}}\n")
        ensemble = load_config(path).ensemble
        default = EnsembleConfig.default()
        assert (ensemble.members, ensemble.meta_model) == (default.members, default.meta_model)
        assert ensemble.retry == RetryPolicy(backoff_seconds=[0.1])

    def test_an_unknown_problem_id_is_a_config_error_naming_the_known_ones(self):
        from llmevolve.config import ConfigError, config_from_dict

        with pytest.raises(ConfigError, match=re.escape("unknown problem_id 'zz'; known: p1, p2.a, p2.b, p3.a, p3.b, p4")):
            config_from_dict({"problem_id": "zz"})

    @pytest.mark.parametrize(
        "base_url, valid",
        [("", False), ("localhost:8000/v1", False), ("http://localhost:8000/v1", True)],
    )
    def test_the_http_backend_needs_a_base_url_with_a_scheme_and_a_host(self, base_url, valid):
        from llmevolve.config import ConfigError, config_from_dict

        doc = {"problem_id": "p3.a", "backend": "http", "base_url": base_url}
        if valid:
            assert config_from_dict(doc).base_url == base_url
        else:
            with pytest.raises(ConfigError, match="base_url"):
                config_from_dict(doc)

    def test_the_http_backend_override_without_a_base_url_is_refused(self, runner, tmp_path):
        cfg = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--run-dir", str(run_dir), "--backend", "http"]
        )
        assert result.exit_code == 1
        assert result.output.startswith("Error: invalid config")
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "preset, key, value", [("insp", "p_explore", 0.0), ("no-evolution", "evolution", False)]
    )
    def test_an_ablation_preset_snapshots_its_field_values(self, runner, tmp_path, preset, key, value):
        cfg = write_config(tmp_path / "config.yaml", p_explore=0.5)
        run_dirs = tmp_path / "preset", tmp_path / "snapshot"
        for run_dir in run_dirs:
            write_transcript(run_dir, num_islands=2, calls_per_island=30)
        result = runner.invoke(
            main, ["run", "--config", str(cfg), "--run-dir", str(run_dirs[0]), "--ablation", preset]
        )
        assert result.exit_code == 0, result.output
        snapshot = run_dirs[0] / "config.yaml"
        assert yaml.safe_load(snapshot.read_text())[key] == value
        # The snapshot alone, without the flag, runs the same.
        result = runner.invoke(main, ["run", "--config", str(snapshot), "--run-dir", str(run_dirs[1])])
        assert result.exit_code == 0, result.output
        assert (run_dirs[1] / "events.jsonl").read_bytes() == (run_dirs[0] / "events.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "transcript",
        [None, b'{"index": 0}\n', b'{"index": 0, "response": "a"}\n{"index": 1, "response": "\xff"}\n'],
        ids=["missing", "record_without_response", "not_utf8"],
    )
    def test_a_bad_transcript_is_an_error_message(self, runner, tmp_path, transcript):
        cfg = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        if transcript is not None:
            (run_dir / "transcripts.jsonl").write_bytes(transcript)
        result = runner.invoke(main, ["run", "--config", str(cfg), "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith("Error: cannot load the replay transcript")
        assert "transcripts.jsonl" in result.output
        assert not (run_dir / "config.yaml").exists()

    def test_an_interpreter_that_cannot_start_is_an_error_message(self, runner, tmp_path):
        cfg = write_config(
            tmp_path / "config.yaml", interpreter=["/nonexistent/python"], backend="http", base_url="http://127.0.0.1:9"
        )
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith("Error: cannot start a launcher on the interpreter /nonexistent/python")
        assert not run_dir.exists()

    @pytest.mark.parametrize("flags", ["-I", "-E", "-SE"])
    def test_an_interpreter_that_ignores_the_environment_is_an_error_message(self, runner, tmp_path, flags):
        cfg = write_config(
            tmp_path / "config.yaml", interpreter=[sys.executable, flags], backend="http", base_url="http://127.0.0.1:9"
        )
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith(f"Error: cannot start a launcher on the interpreter {sys.executable} {flags}")
        assert "(-E or -I)" in result.output and "PYTHONHASHSEED" in result.output
        assert not run_dir.exists()

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="the launcher reads its size from /proc")
    def test_a_memory_limit_within_the_launchers_own_size_is_an_error_message(self, runner, tmp_path):
        cfg = write_config(
            tmp_path / "config.yaml",
            limits={"wall_seconds": 20.0, "memory_bytes": 4096},
            backend="http",
            base_url="http://127.0.0.1:9",
        )
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith(f"Error: cannot start a launcher on the interpreter {sys.executable} -S")
        assert re.search(r"memory_bytes 4096 is not above the launcher's address space of \d+ bytes", result.output)
        assert not run_dir.exists()

    def test_an_interpreter_with_a_nul_byte_is_an_error_message(self, runner, tmp_path):
        cfg = write_config(
            tmp_path / "config.yaml", interpreter=[sys.executable + "\0"], backend="http", base_url="http://127.0.0.1:9"
        )
        run_dir = tmp_path / "run"
        result = runner.invoke(main, ["run", "--config", str(cfg), "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        interpreter = f"'{sys.executable}\\x00'"  # the NUL byte escaped
        assert result.output == f"Error: cannot start a launcher on the interpreter {interpreter}: embedded null byte\n"
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "under, error", [(False, "File exists"), (True, "Not a directory")], ids=["a_file", "a_path_under_a_file"]
    )
    def test_a_run_directory_that_cannot_be_created_is_an_error_message(self, runner, tmp_path, under, error):
        cfg = write_config(tmp_path / "config.yaml", backend="http", base_url="http://127.0.0.1:9")
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        run_dir = taken / "run" if under else taken
        result = runner.invoke(main, ["run", "--config", str(cfg), "--run-dir", str(run_dir)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith(f"Error: cannot create the run directory {run_dir}: ")
        assert error in result.output
        assert taken.read_text() == "a file\n"

    def test_a_refused_key_is_an_error_message(self, runner, tmp_path, monkeypatch):
        from test_llm import ChatStub

        monkeypatch.setenv("LLMEVOLVE_API_KEY", "bad-key")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        stub = ChatStub()
        try:
            stub.replies += [(403, {"error": "forbidden"})] * 4  # the set-up's calls go out at once
            cfg = write_config(tmp_path / "config.yaml", backend="http", base_url=stub.url)
            result = runner.invoke(main, ["run", "--config", str(cfg), "--run-dir", str(tmp_path / "run")])
        finally:
            stub.close()
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("Error: 403 Forbidden for ")
        assert "LLMEVOLVE_API_KEY" in result.output

    def test_a_run_into_a_directory_that_holds_a_run_is_an_error_message(self, runner, tmp_path):
        cfg = write_config(tmp_path / "config.yaml")
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=2, calls_per_island=30)
        args = ["run", "--config", str(cfg), "--run-dir", str(run_dir)]
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, args + ["--epochs", "9"])
        assert result.exit_code == 1
        assert result.output.startswith(f"Error: {run_dir} holds a run, checkpointed in ")
        assert "epoch_00004.ckpt" in result.output

    def test_a_replay_run_loads_neither_ssl_nor_urllib_request(self, tmp_path):
        # ``HttpBackend.complete`` imports them when it is called: they add
        # about 3 MB to a replay run's peak RSS. Only the p1 and p2 scorers
        # import numpy, which adds about 12 MB.
        cfg = write_config(tmp_path / "config.yaml", num_islands=1)
        run_dir = tmp_path / "run"
        write_transcript(run_dir, num_islands=1, calls_per_island=30)
        script = (
            "import sys\n"
            "from llmevolve.cli import main\n"
            f"main(['run', '--config', {str(cfg)!r}, '--run-dir', {str(run_dir)!r}], standalone_mode=False)\n"
            "print([name for name in ('ssl', 'urllib.request', 'numpy') if name in sys.modules])\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(llmevolve.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "[]"
        assert "epochs run: 4" in out.stdout

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


# Any value a YAML or JSON config can hold: integers far past the float
# range and past the 4,300 digits that ``str`` writes (YAML reads a hex
# integer of any length), the float specials, text, booleans, null, lists
# and mappings.
_ANY = st.recursive(
    st.one_of(
        st.integers(-2**16000, 2**16000), st.floats(), st.sampled_from([math.inf, -math.inf, math.nan]),
        st.text(max_size=6), st.booleans(), st.none(),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# Numbers on and past the edges of the ranges.
_EDGE = st.sampled_from([
    0, -1, 0.0, 1.5, 64, 65, 120, 121, 2_592_000, 2_592_001, 2**63 - 1, 2**63, -2**63, -2**63 - 1,
    10**400, -10**400, 2**16000, -2**16000,
    1e308, math.inf, -math.inf, math.nan, True, False,
])
_ODD = _EDGE | _ANY
_COUNT = st.integers(1, 6)
_FRACTION = st.floats(0.01, 1.0)


def _mostly(plausible, odd=_ODD):
    """A value like the schema's, and now and then an edge or any value at all."""
    return st.integers(0, 9).flatmap(lambda n: odd if n == 5 else plausible)


def _model(required):
    sampling = {"temperature": _mostly(_FRACTION), "top_p": _mostly(_FRACTION), "max_output_tokens": _mostly(_COUNT)}
    return st.fixed_dictionaries({"name": _mostly(st.sampled_from(["a", "b"])), **required}, optional=sampling)


_ENSEMBLE = st.fixed_dictionaries({
    "members": _mostly(st.lists(_model({"weight": _mostly(st.just(1.0))}), min_size=1, max_size=1)),
}, optional={
    "meta_model": _mostly(_model({})),
    "retry": _mostly(st.fixed_dictionaries({}, optional={
        "backoff_seconds": _mostly(st.lists(_mostly(_FRACTION), max_size=3)),
    })),
})
_LIMITS = st.fixed_dictionaries({"wall_seconds": _mostly(_FRACTION), "memory_bytes": _mostly(st.just(1 << 30))})
_INTEGER_KEYS = ("num_islands", "migration_every", "max_population", "init_population", "num_inspirations",
           "max_ancestor_depth", "epochs", "master_seed", "sandbox_workers")
_PROBLEM_ID = _mostly(st.sampled_from(["p1", "p3.a"]), st.just("zz") | _ANY)
_CONFIGS = st.fixed_dictionaries({"problem_id": _PROBLEM_ID}, optional={
    **{key: _mostly(_COUNT) for key in _INTEGER_KEYS},
    "migration_rate": _mostly(_FRACTION),
    "p_explore": _mostly(_FRACTION),
    "topology": _mostly(st.sampled_from(["ring", "complete"]) | st.lists(st.lists(_COUNT, min_size=2, max_size=2))),
    "evolution": _mostly(st.booleans()),
    "backend": _mostly(st.sampled_from(["replay", "http"])),
    "base_url": _mostly(st.sampled_from(["http://localhost:8000/v1", "localhost:8000", ""])),
    "interpreter": _mostly(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=2)),
    "ensemble": _mostly(_ENSEMBLE),
    "limits": _mostly(_LIMITS),
})


def _floats(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in _floats(item)]
    return [value] if isinstance(value, float) else []


class TestConfigContract:
    def test_the_generated_mappings_cover_every_config_key(self):
        from llmevolve.config import RunConfig

        keys = {"problem_id", *_INTEGER_KEYS, "migration_rate", "p_explore", "topology", "evolution", "backend",
                "base_url", "interpreter", "ensemble", "limits"}
        assert keys == {f.name for f in fields(RunConfig)}

    # No run, launcher or thread starts here: a config is only loaded,
    # checked and written back.
    @settings(max_examples=300, deadline=None)
    @given(doc=_CONFIGS)
    # Integers that YAML reads from 0x followed by 4,000 f's and that ``str`` cannot write.
    @example(doc={"problem_id": "p1", "master_seed": -2**16000})
    @example(doc={"problem_id": "p1", "epochs": 2**16000, "max_ancestor_depth": 2**16000})
    @example(doc={"problem_id": "p1", "num_islands": 2**16000})
    @example(doc={"problem_id": "p1", "migration_every": -2**16000})
    @example(doc={"problem_id": "p1", "max_population": 2**16000})
    @example(doc={"problem_id": "p1", "init_population": -2**16000})
    @example(doc={"problem_id": "p1", "num_inspirations": 2**16000})
    @example(doc={"problem_id": "p1", "sandbox_workers": -2**16000})
    @example(doc={"problem_id": "p1", "ensemble": {"members": [{"name": "a", "weight": 1, "max_output_tokens": 2**16000}]}})
    @example(doc={"problem_id": "p1", "backend": 2**16000})
    @example(doc={"problem_id": "p1", "topology": [[0, 2**16000]]})
    @example(doc={"problem_id": "p1", "topology": 2**16000})
    @example(doc={"problem_id": "p1", "ensemble": {"members": [{"name": 2**16000, "weight": 1}]}})
    def test_a_config_mapping_loads_as_a_config_that_can_run_or_is_a_config_error(self, doc):
        from llmevolve import engine
        from llmevolve.config import MAX_INIT_POPULATION, MAX_ISLANDS, ConfigError, config_from_dict, load_config
        from llmevolve.llm import HTTP_TIMEOUT_SECONDS
        from llmevolve.sandbox import MAX_MEMORY_BYTES, MAX_WALL_SECONDS

        try:
            cfg = config_from_dict(doc)
        except ConfigError as exc:
            assert not str(exc).startswith("Exceeds the limit")  # the message names its field
            return
        assert 1 <= cfg.num_islands <= MAX_ISLANDS and 1 <= cfg.init_population <= MAX_INIT_POPULATION
        assert cfg.sandbox_workers is None or cfg.sandbox_workers >= 1
        assert 0 < cfg.limits.wall_seconds <= MAX_WALL_SECONDS and 0 < cfg.limits.memory_bytes <= MAX_MEMORY_BYTES
        assert all(0 <= seconds <= HTTP_TIMEOUT_SECONDS for seconds in cfg.ensemble.retry.backoff_seconds)
        assert all(math.isfinite(x) for x in _floats(asdict(cfg)))
        for model in (*cfg.ensemble.members, cfg.ensemble.meta_model):
            request = {"model": model.name, "temperature": model.temperature, "top_p": model.top_p}
            json.dumps({**request, "max_tokens": model.max_output_tokens}, allow_nan=False)
        with tempfile.TemporaryDirectory() as run_dir:
            engine._write_config_snapshot(cfg, Path(run_dir))
            assert load_config(Path(run_dir) / engine.CONFIG_SNAPSHOT_NAME) == cfg

    def test_the_readme_table_states_what_each_checked_field_must_be(self):
        from llmevolve.config import MAX_INIT_POPULATION, MAX_ISLANDS, RunConfig
        from llmevolve.llm import EnsembleMember, MetaModel, RetryPolicy
        from llmevolve.sandbox import ResourceLimits

        def must_be(build):
            with pytest.raises(ValueError) as info:
                build()
            return str(info.value).split(" must be ", 1)[1]

        bad = object()  # of no kind, so the error states the field's kind and range
        expected = {
            "ensemble.retry.backoff_seconds": must_be(lambda: RetryPolicy(bad)),
            "ensemble.retry.backoff_seconds[]": must_be(lambda: RetryPolicy([bad])),
        }
        for prefix, cls, valid in [
            ("", RunConfig, {"problem_id": "p1"}),
            ("limits.", ResourceLimits, {"wall_seconds": 1, "memory_bytes": 1}),
            ("ensemble.members[].", EnsembleMember, {"name": "a", "weight": 1}),
            ("ensemble.meta_model.", MetaModel, {"name": "m"}),
        ]:
            for name, *_ in cls.RANGES:
                expected[prefix + name] = must_be(lambda: cls(**{**valid, name: bad}))
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| Config field | Must be |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        assert dict(re.findall(r"^\| `(\S+)` \| (.+) \|$", table, re.M)) == expected
        caps = f"{MAX_ISLANDS} launchers, {MAX_ISLANDS} island threads and {MAX_ISLANDS} × {MAX_INIT_POPULATION - 1}"
        assert caps in " ".join(readme.split())


class TestCmdScore:
    def test_a_directory_is_a_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["score", "p3.a", str(tmp_path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "is a directory" in result.output

    def test_an_unknown_problem_is_a_usage_error_naming_the_known_ones(self, runner, tmp_path):
        from llmevolve.problems import REGISTRY

        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"heights": [1.0]}))
        result = runner.invoke(main, ["score", "p9", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "'p9' is not one of" in result.output
        assert len(REGISTRY) == 6
        assert all(repr(problem_id) in result.output for problem_id in REGISTRY)

    def test_a_fifo_is_refused_without_waiting_for_a_writer(self, tmp_path):
        import os
        import subprocess
        from pathlib import Path

        import llmevolve

        fifo = tmp_path / "artifact.json"
        os.mkfifo(fifo)
        env = {**os.environ, "PYTHONPATH": str(Path(llmevolve.__file__).parents[1])}
        out = subprocess.run(
            [sys.executable, "-m", "llmevolve.cli", "score", "p3.a", str(fifo)],
            capture_output=True, text=True, timeout=10, env=env,
        )
        assert out.returncode == 1, out.stderr
        assert json.loads(out.stdout) == {"valid": False, "error": "not a regular file"}

    def test_a_socket_is_refused_with_the_error_that_opening_it_gives(self, runner, tmp_path):
        import socket

        path = tmp_path / "s"
        with socket.socket(socket.AF_UNIX) as bound:
            bound.bind(str(path))
            with pytest.raises(OSError) as refused:  # ENXIO on Linux
                os.open(path, os.O_RDONLY | os.O_NONBLOCK)
            result = runner.invoke(main, ["score", "p3.a", str(path)])
        assert result.exit_code == 1
        assert result.output.count("\n") == 1
        assert json.loads(result.output) == {"valid": False, "error": refused.value.strerror}

    @pytest.mark.skipif(os.geteuid() == 0, reason="root may read a file whatever its mode")
    def test_an_unreadable_file_is_refused_with_the_error_that_opening_it_gives(self, runner, tmp_path):
        import errno

        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"circles": []}))
        path.chmod(0)
        result = runner.invoke(main, ["score", "p3.a", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output) == {"valid": False, "error": os.strerror(errno.EACCES)}

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

    def test_a_string_of_digits_is_not_an_array_of_heights(self, runner, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"heights": "1111"}))
        result = runner.invoke(main, ["score", "p1", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output) == {"valid": False, "error": "heights must be a JSON array"}

    def test_overlapping_circles_nonzero_exit(self, runner, tmp_path):
        path = tmp_path / "artifact.json"
        circles = [[0.3, 0.5, 0.25], [0.6, 0.5, 0.25]] + [[0.02, 0.02, 0.001]] * 24
        path.write_text(json.dumps({"circles": circles}))
        result = runner.invoke(main, ["score", "p3.a", str(path)])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert any(k.startswith("overlap") for k in doc["violations"])

    def test_a_file_over_the_problem_limit_is_invalid_unread(self, runner, tmp_path, monkeypatch):
        from llmevolve.problems import get_problem

        def no_parse(raw):
            raise AssertionError("the parser was called")

        monkeypatch.setattr(get_problem("p3.a"), "parser", no_parse)
        path = tmp_path / "artifact.json"
        path.write_bytes(b" " * 65_537)
        result = runner.invoke(main, ["score", "p3.a", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output) == {"valid": False, "error": "65537 bytes, more than the 65536 allowed"}

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

    def test_the_best_of_a_run_that_improves_through_migration_rescores_to_its_objective(self, runner, climbing_run):
        run_dir, _ = climbing_run
        result = runner.invoke(main, ["score", "p3.a", str(run_dir / "best" / "artifact.json")])
        assert result.exit_code == 0, result.output
        summary = json.loads((run_dir / "best" / "summary.json").read_text())
        assert json.loads(result.output)["objective"] == summary["objective"] > 0.026  # the trivial program's


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

    @pytest.mark.parametrize(
        "events",
        [
            None, b"not json\n", b"{}\n", b"[1]\n", b'{"type": "step", "island": 0}\n', b'{"type": "\xff"}\n',
            *(
                json.dumps({"type": "step", "island": 0, "status": "valid", "fitness": 0.5, "epoch": 1, **odd}).encode()
                for odd in [
                    {"fitness": "x"}, {"fitness": True}, {"island": [0]}, {"island": True}, {"island": 0.0},
                    {"epoch": "a"}, {"epoch": True}, {"status": 1},
                ]
            ),
        ],
        ids=[
            "missing", "malformed", "no_type", "not_an_object", "step_without_keys", "undecodable",
            "string_fitness", "boolean_fitness", "list_island", "boolean_island", "float_island",
            "string_epoch", "boolean_epoch", "integer_status",
        ],
    )
    def test_a_run_dir_without_a_readable_event_log_is_an_error_message(
        self, runner, tmp_path, events
    ):
        if events is not None:
            (tmp_path / "events.jsonl").write_bytes(events)
        result = runner.invoke(main, ["report", "--run-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output.startswith("Error: cannot read the event log")
        assert events is None or "events.jsonl line 1: " in result.output

    @pytest.mark.parametrize(
        "events", [b"", b'{"type": "init", "island": 0, "status": "valid", "fitness": 0.5}\n'], ids=["empty", "init_only"]
    )
    def test_an_event_log_without_a_step_is_an_error_message(self, runner, tmp_path, events):
        (tmp_path / "events.jsonl").write_bytes(events)
        result = runner.invoke(main, ["report", "--run-dir", str(tmp_path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.output == "Error: event log contains no epochs\n"

    def test_an_island_without_a_record_yet_reads_zero(self, runner, tmp_path):
        records = [
            {"type": "init", "island": 0, "status": "valid", "fitness": 0.5},
            {"type": "step", "island": 0, "status": "valid", "fitness": 0.6, "epoch": 1},
            {"type": "step", "island": 0, "status": "valid", "fitness": 0.7, "epoch": 2},
            {"type": "step", "island": 1, "status": "valid", "fitness": 0.9, "epoch": 2},
        ]
        (tmp_path / "events.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        result = runner.invoke(main, ["report", "--run-dir", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert result.output == (
            "epoch\tisland_0\tisland_1\tglobal\ttransformed\n"
            "1\t0.6\t0\t0.6\t1.20363952654\n"
            "2\t0.7\t0.9\t0.9\t9.21034037198\n"
        )

    def test_the_series_of_a_run_that_improves_through_migration_rises(self, runner, climbing_run):
        run_dir, summary = climbing_run
        result = runner.invoke(main, ["report", "--run-dir", str(run_dir)])
        assert result.exit_code == 0, result.output
        header, *rows = (line.split("\t") for line in result.output.splitlines())
        series = [float(row[header.index("global")]) for row in rows]
        assert sum(b > a for a, b in zip(series, series[1:])) >= 2
        assert series[-1] == pytest.approx(summary.best_fitness, rel=1e-11)  # printed to 12 digits

    def test_finite_series_with_positive_epsilon(self, runner, tmp_path):
        run_dir = self._completed_run(tmp_path)
        result = runner.invoke(
            main, ["report", "--run-dir", str(run_dir), "--epsilon", "1e-4"]
        )
        assert result.exit_code == 0
        assert "undefined" not in result.output

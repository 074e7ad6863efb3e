"""Candidate execution under wall-clock and memory limits."""

import ast
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import tempfile
import time
from pathlib import Path

import pytest

from conftest import FAST_INTERPRETER
from llmevolve._launcher import FILE_SIZE_LIMIT
from llmevolve.sandbox import (
    STATUS_MEMORY_EXCEEDED,
    STATUS_NONZERO_EXIT,
    STATUS_OK,
    STATUS_SPAWN_ERROR,
    STATUS_TIMEOUT,
    ExecutionOutcome,
    Launcher,
    ResourceLimits,
    run_candidate,
)

LIMITS = ResourceLimits(wall_seconds=10.0, memory_bytes=1 << 30)


@pytest.fixture
def launcher():
    launcher = Launcher(FAST_INTERPRETER)
    yield launcher
    launcher.close()


@pytest.fixture
def run(launcher):
    def run(code, limits=LIMITS):
        return run_candidate(code, limits, launcher)

    return run


def test_valid_artifact_collected(run):
    code = (
        "import json, os\n"
        'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
        '    json.dump({"circles": [[0.5, 0.5, 0.1]]}, fh)\n'
    )
    outcome = run(code)
    assert outcome.status == STATUS_OK
    assert json.loads(outcome.artifact) == {"circles": [[0.5, 0.5, 0.1]]}


def test_timeout_kills_within_grace(run):
    start = time.monotonic()
    outcome = run("while True:\n    pass\n", ResourceLimits(1.0, 1 << 30))
    assert outcome.status == STATUS_TIMEOUT
    assert time.monotonic() - start < 5.0


def test_timeout_kills_whole_process_tree(launcher):
    code = (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(child.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    start = time.monotonic()
    outcome = run_candidate(code, ResourceLimits(1.0, 1 << 30), launcher)
    assert outcome.status == STATUS_TIMEOUT
    assert time.monotonic() - start < 10.0
    # The group kill also ended the grandchild.
    assert not _alive_soon(int(outcome.stdout))


def test_nonzero_exit_captured_with_logs(run):
    outcome = run("import sys\nprint('out')\nsys.stderr.write('boom')\nsys.exit(3)\n")
    assert outcome.status == STATUS_NONZERO_EXIT
    assert "out" in outcome.stdout
    assert "boom" in outcome.stderr


def test_memory_limit_flagged(run):
    outcome = run("x = bytearray(1 << 31)\n", ResourceLimits(10.0, 256 << 20))
    assert outcome.status == STATUS_MEMORY_EXCEEDED


def test_no_artifact_means_none(run):
    outcome = run("print('no artifact written')\n")
    assert outcome.status == STATUS_OK
    assert outcome.artifact is None


@pytest.mark.parametrize(
    "make",
    [
        "os.mkdir(path)",
        "os.mkfifo(path)",
        "os.symlink({outside!r}, path)",
    ],
    ids=["directory", "fifo", "symlink_outside"],
)
def test_only_a_regular_artifact_file_is_read(run, make, tmp_path):
    outside = tmp_path / "outside.json"
    outside.write_text('{"circles": [[0.5, 0.5, 0.1]]}')
    code = f"import os\npath = os.environ['ARTIFACT_PATH']\n{make.format(outside=str(outside))}\n"

    def hung(signum, frame):
        raise TimeoutError("reading the artifact blocked")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        outcome = run(code)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert outcome.status == STATUS_OK
    assert outcome.artifact is None


@pytest.mark.parametrize("target", ['open(os.environ["ARTIFACT_PATH"], "wb")', "sys.stdout.buffer"])
def test_writing_past_the_file_size_limit_fails_only_that_candidate(run, target):
    # SIGXFSZ ends the candidate even though it ignores the failed write.
    code = (
        f"import os, sys\nout = {target}\nout.write(b'x' * {FILE_SIZE_LIMIT})\n"
        "try:\n    out.write(b'x')\n    out.flush()\nexcept OSError:\n    pass\n"
    )
    outcome = run(code)
    assert outcome.status == STATUS_NONZERO_EXIT
    assert outcome.artifact is None
    assert run("print('next')\n").status == STATUS_OK


def test_fresh_directory_per_candidate(run):
    code = (
        "import os, json\n"
        "names = sorted(os.listdir('.'))\n"
        'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
        "    json.dump(names, fh)\n"
    )
    a = run(code)
    b = run(code)
    # Each run sees only its own script in a clean directory.
    assert json.loads(a.artifact) == ["candidate.py"]
    assert json.loads(b.artifact) == ["candidate.py"]


def test_writes_confined_to_workdir(run, tmp_path):
    probe_target = tmp_path / "should_not_exist.txt"
    code = (
        "import os\n"
        "open('local_file.txt', 'w').write('fine')\n"
        f"assert not os.path.exists({str(probe_target)!r})\n"
    )
    outcome = run(code)
    assert outcome.status == STATUS_OK
    assert not probe_target.exists()


def test_log_truncation_marked(run):
    outcome = run("import sys\nsys.stdout.write('x' * (2 << 20))\n")
    assert outcome.status == STATUS_OK
    assert outcome.stdout.endswith("...[truncated]")
    assert len(outcome.stdout) < (2 << 20)


def test_empty_code_rejected(run):
    with pytest.raises(ValueError):
        run("")


def _alive_soon(pid, within=5.0):
    """Whether ``pid`` is still running (not gone, not a zombie) after ``within`` seconds."""
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return False
        if state in ("Z", "X"):
            return False
        time.sleep(0.05)
    return True


def test_leftover_processes_end_with_the_candidate(run):
    # The child runs outside the candidate's directory, which is removed
    # when the run returns, so only a kill can end it early.
    code = (
        "import subprocess, sys\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'], cwd='/')\n"
        "print(child.pid)\n"
    )
    outcome = run(code)
    assert outcome.status == STATUS_OK
    assert not _alive_soon(int(outcome.stdout))


def test_stdin_is_devnull(run):
    start = time.monotonic()
    outcome = run("input()\n")
    assert outcome.status == STATUS_NONZERO_EXIT
    assert "EOFError" in outcome.stderr
    assert time.monotonic() - start < LIMITS.wall_seconds / 2


def test_each_candidate_seeds_its_own_random_state(run):
    code = "import random\nprint(random.getrandbits(64))\n"
    assert run(code).stdout != run(code).stdout


def test_preloaded_modules_are_the_ones_the_readme_lists(run):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"Candidates of one launcher see (.*?) already imported", readme, re.S)
    listed = re.findall(r"`([\w.]+)`", sentence.group(1))
    seen = ast.literal_eval(run("import sys\nprint(sorted(sys.modules))\n").stdout)
    assert not {"random", "threading", "numpy"} & set(seen)
    imports = f"import sys, {', '.join(listed)}\nprint(sorted(sys.modules))\n"
    fresh = subprocess.run(FAST_INTERPRETER + ["-c", imports], capture_output=True, check=True)
    assert seen == ast.literal_eval(fresh.stdout.decode())


def test_killing_the_launcher_fails_only_its_candidate(run, launcher):
    start = time.monotonic()
    outcome = run("import os, signal, time\nos.kill(os.getppid(), signal.SIGKILL)\ntime.sleep(60)\n")
    assert outcome.status == STATUS_NONZERO_EXIT
    assert time.monotonic() - start < LIMITS.wall_seconds / 2
    first = launcher.proc
    assert first.returncode == -signal.SIGKILL
    assert run("print('next')\n").stdout == "next\n"
    assert launcher.proc is not first


def test_a_launcher_that_exits_at_start_is_a_spawn_error():
    launcher = Launcher(FAST_INTERPRETER + ["-c", "import sys; sys.exit('no launcher here')"])
    start = time.monotonic()
    outcome = run_candidate("print(1)\n", LIMITS, launcher)
    assert outcome.status == STATUS_SPAWN_ERROR
    assert outcome.stderr == "launcher exited with code 1 before it was ready: no launcher here"
    assert time.monotonic() - start < LIMITS.wall_seconds / 2
    launcher.close()


def test_close_reaps_the_launcher(run, launcher):
    run("print(1)\n")
    launcher.close()
    assert launcher.proc.returncode == 0


# -- fidelity: a forked candidate behaves as ``python candidate.py`` --

_FIDELITY = {
    "artifact": (
        "import json, os\n"
        'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
        '    json.dump({"heights": [1.0, 2.0]}, fh)\n',
        STATUS_OK,
    ),
    "print": ("print('no artifact written')\n", STATUS_OK),
    "exit_code": ("import sys\nsys.stderr.write('boom')\nsys.exit(3)\n", STATUS_NONZERO_EXIT),
    "raise": ("raise RuntimeError('nope')\n", STATUS_NONZERO_EXIT),
    "nested_zero_division": (
        "def ratio(a, b):\n    return a / b\n\ndef outer():\n    return ratio(1, 0) + 1\n\nouter()\n",
        STATUS_NONZERO_EXIT,
    ),
    "memory_error": ("x = bytearray(1 << 31)\n", STATUS_MEMORY_EXCEEDED),
    "system_exit_message": ("raise SystemExit('msg')\n", STATUS_NONZERO_EXIT),
    "syntax_error": ("x = (\n", STATUS_NONZERO_EXIT),
    "atexit": ("import atexit\natexit.register(print, 'at exit')\nprint('main')\n", STATUS_OK),
    "late_thread": (
        "import threading, time\n"
        "def late():\n"
        "    time.sleep(0.2)\n"
        "    print('after main', flush=True)\n"
        "threading.Thread(target=late).start()\n"
        "print('main done', flush=True)\n",
        STATUS_OK,
    ),
    "names": (
        "import sys\nprint(__name__, sys.argv, __file__, sys.path[0])\nprint(sorted(globals()))\n",
        STATUS_OK,
    ),
    # The exit sequence: what teardown would have flushed, finalised or joined.
    "unclosed_artifact": (
        "import json, os\n"
        'fh = open(os.environ["ARTIFACT_PATH"], "w")\n'
        'json.dump({"heights": [1.0, 2.0]}, fh)\n',
        STATUS_OK,
    ),
    "del_order": (
        "class Noisy:\n"
        "    def __init__(self, name):\n"
        "        self.name = name\n"
        "    def __del__(self):\n"
        "        print('del', self.name)\n"
        "b = Noisy('b')\n"
        "_a = Noisy('_a')\n"
        "c = Noisy('c')\n",
        STATUS_OK,
    ),
    "del_in_cycle": (
        "class Node:\n"
        "    def __del__(self):\n"
        "        print('del node')\n"
        "node = Node()\n"
        "node.me = node\n"
        "print('main done')\n",
        STATUS_OK,
    ),
    "atexit_raises": (
        "import atexit\n"
        "def boom():\n"
        "    raise ValueError('in atexit')\n"
        "atexit.register(print, 'registered first, runs last')\n"
        "atexit.register(boom)\n"
        "print('main')\n",
        STATUS_OK,
    ),
    "exit_none": ("import sys\nprint('bye')\nsys.exit()\n", STATUS_OK),
    "exit_message": (
        "import atexit, sys\natexit.register(print, 'at exit', file=sys.stderr)\nsys.exit('bye')\n",
        STATUS_NONZERO_EXIT,
    ),
    "exit_300": ("import sys\nprint('out')\nsys.exit(300)\n", STATUS_NONZERO_EXIT),
    "stdout_swapped": (
        "import os, sys\n"
        'sys.stdout = open(os.environ["ARTIFACT_PATH"], "w")\n'
        "print('{\"heights\": [1.0, 2.0]}')\n"
        "sys.__stdout__.write('no newline')\n",
        STATUS_OK,
    ),
    "failing_flush": (
        "import sys\n"
        "class Unflushable:\n"
        "    def write(self, text):\n"
        "        return len(text)\n"
        "    def flush(self):\n"
        "        raise OSError('cannot flush')\n"
        "sys.stdout = Unflushable()\n",
        STATUS_NONZERO_EXIT,
    ),
    "daemon_thread": (
        "import threading, time\n"
        "threading.Thread(target=time.sleep, args=(60,), daemon=True).start()\n"
        "print('main done')\n",
        STATUS_OK,
    ),
}
_FIDELITY_LIMITS = ResourceLimits(wall_seconds=10.0, memory_bytes=256 << 20)


def _oracle(code, limits):
    """``python candidate.py`` in a fresh directory: the behaviour launchers must keep."""
    workdir = Path(tempfile.mkdtemp(prefix="candidate-"))
    try:
        script = workdir / "candidate.py"
        script.write_text(code, encoding="utf-8")
        artifact = workdir / "artifact.json"

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limits.memory_bytes, limits.memory_bytes))

        proc = subprocess.run(
            FAST_INTERPRETER + [str(script)],
            cwd=workdir,
            env={**os.environ, "ARTIFACT_PATH": str(artifact)},
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=limits.wall_seconds,
            preexec_fn=limit_memory,  # unsafe with threads; this test starts none
        )
        stderr = proc.stderr.decode()
        if proc.returncode == 0:
            status = STATUS_OK
        elif "MemoryError" in stderr or proc.returncode == -signal.SIGKILL:
            status = STATUS_MEMORY_EXCEEDED
        else:
            status = STATUS_NONZERO_EXIT
        found = artifact.read_bytes() if status == STATUS_OK and artifact.exists() else None
        return status, proc.stdout.decode(), stderr, found
    finally:
        shutil.rmtree(workdir)


def _same_dir(text):
    """``text`` with the temporary directory's name and object addresses normalised."""
    return re.sub(r"0x[0-9a-f]+", "0xX", re.sub(r"candidate-[a-z0-9_]+", "candidate-X", text))


@pytest.mark.parametrize("name", sorted(_FIDELITY))
def test_launcher_matches_a_fresh_interpreter(name, run):
    code, expected = _FIDELITY[name]
    outcome = run(code, _FIDELITY_LIMITS)
    status, stdout, stderr, artifact = _oracle(code, _FIDELITY_LIMITS)
    assert (outcome.status, status) == (expected, expected)
    assert _same_dir(outcome.stdout) == _same_dir(stdout)
    assert _same_dir(outcome.stderr) == _same_dir(stderr)
    assert outcome.artifact == artifact


@pytest.mark.parametrize(
    "code",
    [
        "sys.exit()",
        "sys.exit('bye')",
        "sys.exit(300)",
        "sys.exit(2**40 + 3)",
        "sys.exit(-1)",
        "sys.exit(True)",
        "sys.stdout = None",
        "sys.stdout = type('Unflushable', (), {'write': len, 'flush': lambda self: 1 / 0})()",
    ],
)
def test_exit_status_matches_a_fresh_interpreter(code, launcher, tmp_path):
    script = tmp_path / "candidate.py"
    script.write_text(f"import sys\n{code}\n", encoding="utf-8")
    request = {"script": str(script), "env": {}, "memory_bytes": LIMITS.memory_bytes}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        returncode, timed_out = launcher.run(request, out, err, LIMITS.wall_seconds)
    fresh = subprocess.run(FAST_INTERPRETER + [str(script)], capture_output=True, timeout=LIMITS.wall_seconds)
    assert (returncode, timed_out) == (fresh.returncode, False)

"""Candidate execution under wall-clock and memory limits."""

import ast
import contextlib
import functools
import importlib.util
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import FAST_INTERPRETER
from llmevolve import sandbox
from llmevolve._launcher import FILE_SIZE_LIMIT
from llmevolve.problems import ArtifactError, get_problem
from llmevolve.sandbox import (
    STATUS_MEMORY_EXCEEDED,
    STATUS_NONZERO_EXIT,
    STATUS_OK,
    STATUS_SPAWN_ERROR,
    STATUS_TIMEOUT,
    ExecutionOutcome,
    Launcher,
    ResourceLimits,
)

LIMITS = ResourceLimits(wall_seconds=10.0, memory_bytes=1 << 30)
# Prints 20 names in the order of a set, which follows the string-hash seed.
_SET_ORDER = "print(list(set(f'name-{i}' for i in range(20))))\n"


def run_candidate(code, launcher):
    """``sandbox.run_candidate``, with the artifact file it hands over read whole and closed."""
    outcome = sandbox.run_candidate(code, launcher)
    if outcome.artifact is not None:
        with outcome.artifact as fh:
            outcome.artifact = fh.read()
    return outcome


@pytest.fixture
def interpreter(request):
    """``FAST_INTERPRETER``, or the ``python3.X`` that a test names indirectly."""
    name = getattr(request, "param", None)
    return FAST_INTERPRETER if name is None else _other_python(name)


@pytest.fixture
def make_launcher(interpreter):
    """Builds launchers on ``interpreter``, by default with ``LIMITS`` and
    hash seed 0, and closes them after the test."""
    made = []

    def make(limits=LIMITS, hash_seed=0):
        made.append(Launcher(interpreter, limits, hash_seed))
        return made[-1]

    yield make
    for launcher in made:
        launcher.close()


@pytest.fixture
def launcher(make_launcher):
    return make_launcher()


@pytest.fixture
def run(launcher, request, monkeypatch):
    """Runs code on ``launcher``; with the indirect parameter ``"without_memfd"``,
    logs take the path of a POSIX system that has no ``os.memfd_create``."""
    if getattr(request, "param", None) == "without_memfd":
        monkeypatch.delattr(os, "memfd_create", raising=False)

    def run(code):
        return run_candidate(code, launcher)

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


def test_timeout_kills_within_grace(make_launcher):
    launcher = make_launcher(ResourceLimits(1.0, 1 << 30))
    start = time.monotonic()
    outcome = run_candidate("while True:\n    pass\n", launcher)
    assert outcome.status == STATUS_TIMEOUT
    assert time.monotonic() - start < 5.0


def test_timeout_kills_whole_process_tree(make_launcher):
    launcher = make_launcher(ResourceLimits(1.0, 1 << 30))
    code = (
        "import subprocess, sys, time\n"
        "child = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "print(child.pid, flush=True)\n"
        "time.sleep(60)\n"
    )
    start = time.monotonic()
    outcome = run_candidate(code, launcher)
    assert outcome.status == STATUS_TIMEOUT
    assert time.monotonic() - start < 10.0
    # The group kill also ended the grandchild.
    assert not _alive_soon(int(outcome.stdout))


def test_nonzero_exit_captured_with_logs(run):
    outcome = run("import sys\nprint('out')\nsys.stderr.write('boom')\nsys.exit(3)\n")
    assert outcome.status == STATUS_NONZERO_EXIT
    assert "out" in outcome.stdout
    assert "boom" in outcome.stderr


def test_memory_limit_flagged(make_launcher):
    outcome = run_candidate("x = bytearray(1 << 31)\n", make_launcher(ResourceLimits(10.0, 256 << 20)))
    assert outcome.status == STATUS_MEMORY_EXCEEDED


def test_no_artifact_means_none(run):
    outcome = run("print('no artifact written')\n")
    assert outcome.status == STATUS_OK
    assert outcome.artifact is None


@pytest.mark.parametrize(
    "make, handed_over",
    [
        ("os.mkdir(path)", False),
        ("os.mkfifo(path)", True),
        ("os.symlink({outside!r}, path)", False),
    ],
    ids=["directory", "fifo", "symlink_outside"],
)
def test_only_a_regular_artifact_file_is_read(launcher, make, handed_over, tmp_path):
    # The sandbox opens a FIFO without waiting on it, and the problem reads none of it.
    outside = tmp_path / "outside.json"
    outside.write_text('{"circles": [[0.5, 0.5, 0.1]]}')
    code = f"import os\npath = os.environ['ARTIFACT_PATH']\n{make.format(outside=str(outside))}\n"

    def hung(signum, frame):
        raise TimeoutError("reading the artifact blocked")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        outcome = sandbox.run_candidate(code, launcher)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert outcome.status == STATUS_OK
    assert (outcome.artifact is not None) == handed_over
    if handed_over:
        with outcome.artifact as fh, pytest.raises(ArtifactError, match="^not a regular file$"):
            get_problem("p3.a").read_artifact(fh)


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


def test_the_logs_read_dot_for_the_work_directory(run, launcher):
    outcome = run("import os, sys\nprint(os.getcwd())\nprint(os.getcwd(), file=sys.stderr)\n")
    assert (outcome.stdout, outcome.stderr) == (".\n", ".\n")
    assert os.path.isdir(launcher.workdir)


def test_log_truncation_marked(run):
    outcome = run("import sys\nsys.stdout.write('x' * (2 << 20))\nprint('the last line')\n")
    assert outcome.status == STATUS_OK
    assert outcome.stdout.startswith("...[truncated]\n")
    assert len(outcome.stdout) <= sandbox.LOG_CAP_BYTES + len("...[truncated]\n")
    assert outcome.stdout.endswith("x" * 100 + "the last line\n")


def test_a_long_log_keeps_its_traceback(run):
    code = (
        "import sys\n"
        "for i in range(40000):\n"
        "    print(f'warning {i}: something looks odd', file=sys.stderr)\n"
        "raise ValueError('the real failure')\n"
    )
    outcome = run(code)
    assert outcome.status == STATUS_NONZERO_EXIT
    assert outcome.stderr.startswith("...[truncated]\n")
    tail = outcome.stderr[-2000:]  # what the model sees as feedback
    assert "Traceback (most recent call last)" in tail
    assert tail.endswith("ValueError: the real failure\n")


def test_reading_a_short_log_allocates_only_what_it_holds():
    # A buffered ``read(n)`` allocates all ``n`` bytes before it shrinks its result.
    with sandbox._log_file("stdout") as fh:
        fh.write(b"1\n")
        tracemalloc.start()
        try:
            text = sandbox._read_log(fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert text == "1\n"
    assert peak < 64 << 10


@pytest.mark.skipif(
    sys.platform != "linux" or not hasattr(os, "memfd_create"), reason="needs os.memfd_create and /proc"
)
@pytest.mark.parametrize(
    "run, in_memory",
    [pytest.param(None, True, id="memfd"), pytest.param("without_memfd", False, id="without_memfd")],
    indirect=["run"],
)
def test_the_logs_are_memfds_where_os_has_them(run, in_memory):
    outcome = run("import os\nprint(os.readlink('/proc/self/fd/1'))\nprint(os.readlink('/proc/self/fd/2'))\n")
    assert outcome.status == STATUS_OK
    targets = outcome.stdout.splitlines()
    assert len(targets) == 2
    assert [t.startswith("/memfd:") for t in targets] == [in_memory, in_memory]


@pytest.mark.parametrize("run", ["without_memfd"], indirect=True)
@pytest.mark.parametrize(
    "check",
    [
        test_nonzero_exit_captured_with_logs,
        test_log_truncation_marked,
        functools.partial(
            test_writing_past_the_file_size_limit_fails_only_that_candidate, target="sys.stdout.buffer"
        ),
        lambda run: test_a_launcher_that_exits_at_start_is_a_spawn_error(),
    ],
    ids=["logs", "truncation", "file_size_limit", "launcher_start_error"],
)
def test_logs_without_memfd(run, check):
    check(run)


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


def test_launchers_with_one_hash_seed_order_a_set_alike(make_launcher, monkeypatch):
    monkeypatch.setenv("PYTHONHASHSEED", "random")  # the launcher's seed is set over it
    orders = [run_candidate(_SET_ORDER, make_launcher(hash_seed=seed)).stdout for seed in (1, 1, 2)]
    assert orders[0] == orders[1] != orders[2]


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


@pytest.mark.parametrize("killed", ["while_idle", "by_its_candidate"])
def test_a_restarted_launcher_keeps_its_limits(make_launcher, killed):
    launcher = make_launcher(ResourceLimits(1.0, 256 << 20))
    assert run_candidate("print('warm')\n", launcher).status == STATUS_OK
    first = launcher.proc
    if killed == "while_idle":
        first.kill()
        first.wait()
    else:
        killer = "import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n"
        assert run_candidate(killer, launcher).status == STATUS_NONZERO_EXIT
    start = time.monotonic()
    assert run_candidate("while True:\n    pass\n", launcher).status == STATUS_TIMEOUT
    assert time.monotonic() - start < 5.0
    assert launcher.proc is not first
    assert run_candidate("x = bytearray(1 << 30)\n", launcher).status == STATUS_MEMORY_EXCEEDED


def test_a_launcher_that_exits_at_start_is_a_spawn_error():
    exits = FAST_INTERPRETER + ["-c", "import sys; sys.exit('no launcher here')"]
    launcher = Launcher(exits, LIMITS, 0)
    start = time.monotonic()
    outcome = run_candidate("print(1)\n", launcher)
    assert outcome.status == STATUS_SPAWN_ERROR
    assert outcome.stderr == "launcher exited with code 1 before it was ready: no launcher here"
    assert time.monotonic() - start < LIMITS.wall_seconds / 2
    launcher.close()


def test_close_reaps_the_launcher(run, launcher):
    run("print(1)\n")
    launcher.close()
    assert launcher.proc.returncode == 0


def test_a_launcher_removes_what_its_directory_holds_when_the_engine_hangs_up(launcher, tmp_path):
    # Run through ``Launcher.run``, which leaves the directory as the
    # candidate left it; the launcher empties and removes it on its way out.
    launcher.prepare(b"import os\nos.makedirs('sub/deeper')\nopen('sub/deeper/f', 'w').close()\n")
    workdir = launcher.workdir
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        assert launcher.run(out, err)[:2] == (0, False)
    assert sorted(os.listdir(workdir)) == ["candidate.py", "sub"]
    launcher.hang_up()
    assert launcher.proc.wait(5) == 0
    assert not os.path.exists(workdir)


class TestLauncherPool:
    def test_a_launcher_that_cannot_start_closes_them_all(self, monkeypatch):
        interpreters, started = iter([FAST_INTERPRETER, ["/nonexistent/python"]]), []

        def second_cannot_start(interpreter, *args):
            started.append(Launcher(next(interpreters), *args))
            return started[-1]

        monkeypatch.setattr(sandbox, "Launcher", second_cannot_start)
        with pytest.raises(sandbox.LauncherError, match="/nonexistent/python"):
            sandbox.LauncherPool(FAST_INTERPRETER, 2, LIMITS, 0)
        good, bad = started
        assert good.proc.returncode == 0
        assert (good.workdir, bad.workdir, bad.proc) == (None, None, None)

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="lists the open descriptors in /proc/self/fd, which only Linux has"
    )
    def test_an_interpreter_with_a_nul_byte_is_a_launcher_error_that_leaks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where the work directories are made
        before = set(os.listdir("/proc/self/fd"))
        with pytest.raises(sandbox.LauncherError, match="embedded null byte"):
            sandbox.LauncherPool([sys.executable + "\0"], 2, LIMITS, 0)
        assert set(os.listdir("/proc/self/fd")) ^ before == set()
        assert list(tmp_path.iterdir()) == []

    def test_closing_hangs_up_on_every_launcher_before_reaping_any(self, monkeypatch):
        pool = sandbox.LauncherPool(FAST_INTERPRETER, 2, LIMITS, 0)
        events = []
        for i, launcher in enumerate(pool.launchers):
            hang_up, close = launcher.hang_up, launcher.close
            monkeypatch.setattr(launcher, "hang_up", lambda i=i, f=hang_up: (events.append(("hang_up", i)), f()))
            monkeypatch.setattr(launcher, "close", lambda i=i, f=close: (events.append(("close", i)), f()))
        workdirs = [launcher.workdir for launcher in pool.launchers]
        with pool:
            pass
        assert events[:2] == [("hang_up", 0), ("hang_up", 1)]
        assert [launcher.proc.returncode for launcher in pool.launchers] == [0, 0]
        assert not any(os.path.exists(workdir) for workdir in workdirs)

    def test_the_logs_read_dot_for_the_work_directory(self):
        with sandbox.LauncherPool(FAST_INTERPRETER, 1, LIMITS, 0) as pool:
            outcome = pool.run("import os\nprint(os.getcwd())\nraise RuntimeError('nope')\n")
            workdir = pool.launchers[0].workdir
        assert outcome.stdout == ".\n"
        assert 'File "./candidate.py", line 3' in outcome.stderr
        assert workdir not in outcome.stderr

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="lists the open descriptors in /proc/self/fd, which only Linux has"
    )
    def test_serving_and_closing_leaks_no_descriptor(self, tmp_path):
        # Each kind of candidate and the status it reaches; the last two
        # restart their launcher. The caller reads and closes each artifact
        # file as the engine does.
        problem = get_problem("p3.a")
        kinds = {
            "clean": ("print('clean')\n", STATUS_OK),
            "crashing": ("raise RuntimeError('crash')\n", STATUS_NONZERO_EXIT),
            "artifact": ("import os\nopen(os.environ['ARTIFACT_PATH'], 'w').write('[]')\n", STATUS_OK),
            "over_the_cap": (
                f"import os\nopen(os.environ['ARTIFACT_PATH'], 'w').write('x' * {problem.max_artifact_bytes + 1})\n",
                STATUS_OK,
            ),
            "fifo": ("import os\nos.mkfifo(os.environ['ARTIFACT_PATH'])\n", STATUS_OK),
            "directory": ("import os\nos.mkdir(os.environ['ARTIFACT_PATH'])\n", STATUS_OK),
            "directory_swapped_for_symlink": (
                f"import os\nhere = os.getcwd()\nos.unlink('candidate.py')\nos.rmdir(here)\nos.symlink({str(tmp_path)!r}, here)\n",
                STATUS_OK,
            ),
            "kills_its_launcher": ("import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n", STATUS_NONZERO_EXIT),
        }
        names = sorted(kinds) * 8 + ["timed_out"] * 2
        kinds["timed_out"] = ("import time\ntime.sleep(30)\n", STATUS_TIMEOUT)
        random.Random(0).shuffle(names)

        def status(name):
            outcome = pool.run(kinds[name][0])
            if outcome.artifact is not None:
                with outcome.artifact as fh, contextlib.suppress(ArtifactError):
                    problem.read_artifact(fh)
            return outcome.status

        before = set(os.listdir("/proc/self/fd"))
        pool = sandbox.LauncherPool(FAST_INTERPRETER, 2, ResourceLimits(0.5, 1 << 30), 0)
        try:
            with ThreadPoolExecutor(max_workers=3) as callers:
                statuses = list(callers.map(status, names))
        finally:
            pool.close()
        assert statuses == [kinds[name][1] for name in names]
        assert set(os.listdir("/proc/self/fd")) ^ before == set()

    def _hold_the_launcher(self, monkeypatch, first_raises=False):
        """Make ``run_candidate`` a fake that keeps candidate ``first`` running until
        the returned gate is set; returns the gate and the codes in the order they ran."""
        gate, running, ran = threading.Event(), threading.Event(), []

        def fake(code, launcher):
            ran.append(code)
            if code == "first":
                running.set()
                assert gate.wait(10)
                if first_raises:
                    raise RuntimeError("the sandbox broke")
            return ExecutionOutcome(STATUS_OK, "", "", 0.0)

        monkeypatch.setattr(sandbox, "run_candidate", fake)
        return gate, running, ran

    def _queue(self, pool, code, results):
        """Call ``pool.run(code)`` on a new thread and wait until it is queued for a launcher."""
        queued = len(pool._waiting) + 1

        def call():
            try:
                results[code] = pool.run(code).status
            except Exception as exc:
                results[code] = exc

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10
        while len(pool._waiting) < queued:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        return thread

    def test_a_launcher_is_lent_in_the_order_the_callers_asked(self, monkeypatch):
        gate, running, ran = self._hold_the_launcher(monkeypatch)
        results = {}
        with sandbox.LauncherPool(FAST_INTERPRETER, 1, LIMITS, 0) as pool:

            def hold():  # gives the launcher back, then asks again at once
                for code in ("first", "last"):
                    results[code] = pool.run(code).status

            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            assert running.wait(10)
            waiters = [self._queue(pool, code, results) for code in ("second", "third", "fourth")]
            gate.set()
            for thread in [holder, *waiters]:
                thread.join(10)
            assert not any(thread.is_alive() for thread in [holder, *waiters])
            assert ran == ["first", "second", "third", "fourth", "last"]
            assert results == dict.fromkeys(ran, "ok")
            assert list(pool._idle) == pool.launchers and not pool._waiting

    def test_a_failed_run_still_passes_the_launcher_on(self, monkeypatch):
        gate, running, ran = self._hold_the_launcher(monkeypatch, first_raises=True)
        errors, results = [], {}
        with sandbox.LauncherPool(FAST_INTERPRETER, 1, LIMITS, 0) as pool:

            def hold():
                try:
                    pool.run("first")
                except RuntimeError as exc:
                    errors.append(str(exc))

            holder = threading.Thread(target=hold, daemon=True)
            holder.start()
            assert running.wait(10)
            waiter = self._queue(pool, "second", results)
            gate.set()
            holder.join(10)
            waiter.join(10)
            assert errors == ["the sandbox broke"]
            assert ran == ["first", "second"] and results == {"second": "ok"}
            assert list(pool._idle) == pool.launchers and not pool._waiting

    def test_many_callers_share_few_launchers_one_candidate_each(self, monkeypatch):
        lock, in_use, peak, ran = threading.Lock(), set(), [0], []

        def fake(code, launcher):
            with lock:
                if launcher in in_use:
                    raise AssertionError("a launcher lent to two callers at once")
                in_use.add(launcher)
                peak[0] = max(peak[0], len(in_use))
            time.sleep(0)
            with lock:
                in_use.discard(launcher)
                ran.append(code)
            return ExecutionOutcome(STATUS_OK, "", "", 0.0)

        monkeypatch.setattr(sandbox, "run_candidate", fake)
        errors = []
        with sandbox.LauncherPool(FAST_INTERPRETER, 2, LIMITS, 0) as pool:

            def caller(i):
                try:
                    for j in range(50):
                        pool.run(f"{i}-{j}")
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(30)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads) and errors == []
            assert len(ran) == 400 and peak[0] <= 2
            assert sorted(map(id, pool._idle)) == sorted(map(id, pool.launchers))
            assert not pool._waiting


def _bounded(call, seconds):
    """``call()``'s result, or a failed test if it has not returned within ``seconds``."""
    result = {}
    worker = threading.Thread(target=lambda: result.update(value=call()), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"still blocked after {seconds} s"
    return result["value"]


def test_a_candidate_that_stops_its_launcher_times_out():
    limits = ResourceLimits(wall_seconds=1.0, memory_bytes=1 << 30)
    launcher = Launcher(FAST_INTERPRETER, limits, 0)
    code = "import os, signal\nos.kill(os.getppid(), signal.SIGSTOP)\n"
    bound = limits.wall_seconds + sandbox.KILL_GRACE_SECONDS + 3.0
    try:
        outcome = _bounded(lambda: run_candidate(code, launcher), bound)
        assert outcome.status == STATUS_TIMEOUT
        assert run_candidate("print('next')\n", launcher).status == STATUS_OK
    finally:
        launcher.proc.kill()  # SIGKILL ends even a stopped launcher
        launcher.close()


def test_a_candidate_that_stops_its_launcher_first_never_outlives_its_limit(tmp_path):
    # The candidate's first statement stops its launcher; its pid has
    # already reached the engine, so the group kill always ends it.
    limits = ResourceLimits(wall_seconds=0.2, memory_bytes=1 << 30)
    launcher = Launcher(FAST_INTERPRETER, limits, 0)
    bound = limits.wall_seconds + sandbox.KILL_GRACE_SECONDS + 3.0
    markers = [tmp_path / f"marker-{i}" for i in range(6)]
    try:
        for marker in markers:
            code = (
                "import os, signal, time\nos.kill(os.getppid(), signal.SIGSTOP)\n"
                f"time.sleep(1.0)\nopen({str(marker)!r}, 'w').close()\n"
            )
            outcome = _bounded(lambda: run_candidate(code, launcher), bound)
            assert outcome.status == STATUS_TIMEOUT
    finally:
        if launcher.proc is not None:
            launcher.proc.kill()
        launcher.close()
    time.sleep(1.2)
    assert not any(marker.exists() for marker in markers)


def test_a_child_whose_limits_cannot_be_set_fails_at_once(monkeypatch):
    # Its exit code must not be taken for its pid, which would be killed.
    kills = []
    monkeypatch.setattr(sandbox, "kill_group", kills.append)
    limits = ResourceLimits(1.0, 1 << 30)
    limits.memory_bytes = 1 << 70  # past what ResourceLimits accepts, so the child's setrlimit fails
    launcher = Launcher(FAST_INTERPRETER, limits, 0)
    try:
        outcome = run_candidate("print('never')\n", launcher)
    finally:
        launcher.close()
    assert (outcome.status, kills) == (STATUS_NONZERO_EXIT, [])
    assert "OverflowError" in outcome.stderr


def test_a_slow_launcher_start_does_not_count_against_the_wall_limit():
    sleepy = "import os, sys, time; time.sleep(1.0); os.execv(sys.executable, [sys.executable, '-S'] + sys.argv[1:])"
    launcher = Launcher([sys.executable, "-S", "-c", sleepy], ResourceLimits(0.5, 1 << 30), 0)
    try:
        outcome = run_candidate("print('started')\n", launcher)
    finally:
        launcher.close()
    assert (outcome.status, outcome.stdout) == (STATUS_OK, "started\n")


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="lists the open descriptors in /proc/self/fd, which only Linux has"
)
def test_a_launcher_that_never_says_ready_is_killed_and_a_spawn_error(monkeypatch):
    monkeypatch.setattr(sandbox, "START_TIMEOUT_SECONDS", 0.5)
    launcher = Launcher([sys.executable, "-S", "-c", "import time; time.sleep(30)"], LIMITS, 0)
    before = set(os.listdir("/proc/self/fd"))
    start = time.monotonic()
    try:
        outcome = run_candidate("print('never')\n", launcher)
    finally:
        launcher.close()
    assert time.monotonic() - start < 5.0
    assert (outcome.status, outcome.stderr) == (STATUS_SPAWN_ERROR, "launcher exited with code -9 before it was ready")
    assert launcher.proc.returncode == -signal.SIGKILL
    assert (launcher.workdir, launcher.dir_fd) == (None, None)
    assert set(os.listdir("/proc/self/fd")) ^ before == set()


def test_a_script_that_cannot_be_written_is_a_spawn_error_that_closes_the_launcher(launcher, monkeypatch):
    def cannot_write(dir_fd, name, data):
        raise OSError("no space left")

    assert run_candidate("print(1)\n", launcher).status == STATUS_OK
    first, workdir = launcher.proc, launcher.workdir
    monkeypatch.setattr(sandbox, "_overwrite", cannot_write)
    outcome = run_candidate("print(2)\n", launcher)
    assert outcome.status == STATUS_SPAWN_ERROR
    assert outcome.stderr == "cannot write the candidate's script: no space left"
    assert launcher.proc is first  # no fresh launcher is started to try again
    assert first.returncode == 0  # hung up on and reaped
    assert (launcher.workdir, launcher.dir_fd) == (None, None)
    assert not os.path.exists(workdir)


def test_one_work_directory_per_launcher_start(launcher, monkeypatch):
    made = []
    mkdtemp = tempfile.mkdtemp

    def counted(*args, **kwargs):
        made.append(mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", counted)
    code = "import os\nprint(os.getcwd(), os.environ['ARTIFACT_PATH'])\n"
    seen = {run_candidate(code, launcher).stdout for _ in range(3)}
    assert len(made) == 1 and launcher.workdir == made[0]
    assert seen == {". ./artifact.json\n"}  # the launcher's work directory reads ``.``
    launcher.proc.kill()  # the launcher dies while idle: the next candidate starts a new one
    launcher.proc.wait()
    assert run_candidate(code, launcher).status == STATUS_OK
    assert run_candidate(code, launcher).status == STATUS_OK
    assert len(made) == 2
    assert not os.path.exists(made[0])
    launcher.close()
    assert not os.path.exists(made[1])


def test_a_launcher_removes_its_directory_when_the_engine_dies(tmp_path):
    engine = (
        "import os, signal, sys\n"
        "from llmevolve.sandbox import Launcher, ResourceLimits, run_candidate\n"
        f"launcher = Launcher([sys.executable, '-S'], ResourceLimits(10.0, 1 << 30), 0)\n"
        "code = 'import os\\nprint(os.getcwd())\\nos.rename(os.getcwd(), os.getcwd() + \"-moved\")\\n'\n"
        "moved = run_candidate(code, launcher).stdout.strip() + '-moved'\n"
        "run_candidate('print(1)\\n', launcher)\n"
        "print(moved, launcher.workdir, flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    src = str(Path(sandbox.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", engine], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30
    )
    assert out.returncode == -signal.SIGKILL, out.stderr
    moved, workdir = out.stdout.split()
    deadline = time.monotonic() + 5.0
    while (os.path.exists(moved) or os.path.exists(workdir)) and time.monotonic() < deadline:
        time.sleep(0.05)
    # The renamed directory went with the launcher that it cost; the second
    # launcher's went when the engine died.
    assert not os.path.exists(moved)
    assert not os.path.exists(workdir)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
@pytest.mark.parametrize("loop", ["pass", "time.sleep(1)"], ids=["spinning", "sleeping"])
def test_a_candidate_does_not_outlive_a_dead_engine(tmp_path, loop):
    # The engine dies while the candidate runs, so nothing keeps its wall
    # deadline; the launcher's backstop ends it.
    limits = ResourceLimits(wall_seconds=1.0, memory_bytes=1 << 30)
    pid_file = tmp_path / "pid"
    candidate = f"import os, time\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\nwhile True:\n    {loop}\n"
    engine = (
        "import os, signal, sys, threading, time\n"
        "from llmevolve.sandbox import Launcher, ResourceLimits, run_candidate\n"
        f"limits = ResourceLimits({limits.wall_seconds!r}, {limits.memory_bytes!r})\n"
        f"launcher = Launcher([sys.executable, '-S'], limits, 0)\n"
        f"runner = threading.Thread(target=run_candidate, args=({candidate!r}, launcher))\n"
        "runner.start()\n"
        f"while not os.path.exists({str(pid_file)!r}) or not open({str(pid_file)!r}).read():\n"
        "    time.sleep(0.01)\n"
        "print('early' if runner.is_alive() else 'late', flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    src = str(Path(sandbox.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", engine], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=30
    )
    assert out.returncode == -signal.SIGKILL, out.stderr
    pid = int(pid_file.read_text())
    try:
        assert out.stdout == "early\n"  # the engine died before the wall deadline
        deadline = time.monotonic() + limits.wall_seconds + 2 * sandbox.KILL_GRACE_SECONDS + 5.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _running(pid)
    finally:
        if _running(pid):
            os.kill(pid, signal.SIGKILL)


_LISTING = (
    "import json, os\n"
    "names = sorted(os.listdir('.'))\n"
    'with open(os.environ["ARTIFACT_PATH"], "w") as fh:\n'
    "    json.dump(names, fh)\n"
)


# Each mess, and whether it costs its launcher: only a directory that is
# gone from its path does; a script that is no longer the launcher's own is
# dropped by the tidy.
@pytest.mark.parametrize(
    "mess, restarts",
    [
        ("open('left.txt', 'w').write('x')\nos.makedirs('sub/deeper')\nopen('sub/deeper/f', 'w').write('y')\n"
         "os.symlink('sub', 'link')\nopen(os.environ['ARTIFACT_PATH'], 'w').write('{}')\n", False),
        ("os.unlink('candidate.py')\nos.rmdir(os.getcwd())\n", True),
        ("os.unlink('candidate.py')\nos.symlink(os.path.join(OUTSIDE, 'outside.py'), 'candidate.py')\n", False),
        ("here = os.getcwd()\nos.unlink('candidate.py')\nos.rmdir(here)\nos.symlink(OUTSIDE, here)\n", True),
        ("os.link('candidate.py', os.path.join(OUTSIDE, str(os.getpid())))\n", False),
        ("os.chmod('candidate.py', 0o444)\n", False),
        # Deeper than the recursion limit, and longer than PATH_MAX.
        ("for _ in range(3000):\n    os.mkdir('d')\n    os.chdir('d')\n", False),
        ("os.unlink('candidate.py')\nos.makedirs('candidate.py/inner')\nopen('candidate.py/f', 'w').write('x')\n", False),
    ],
    ids=[
        "files_and_subdirectory",
        "removes_its_directory",
        "script_swapped_for_symlink",
        "directory_swapped_for_symlink",
        "script_linked_outside",
        "script_made_read_only",
        "deep_chain",
        "script_swapped_for_directory",
    ],
)
def test_a_candidate_that_messes_up_its_directory_leaves_the_next_a_clean_one(launcher, mess, restarts, tmp_path):
    (tmp_path / "outside").mkdir()
    outside = tmp_path / "outside" / "outside.py"
    outside.write_text("print('outside')\n")
    code = "import os\n" + mess.replace("OUTSIDE", repr(str(outside.parent)))
    fresh = Launcher(FAST_INTERPRETER, LIMITS, 0)
    try:
        on_fresh = run_candidate(code, fresh).status
    finally:
        fresh.close()
    assert on_fresh == STATUS_OK
    assert run_candidate(code, launcher).status == on_fresh
    first = launcher.proc
    probe = run_candidate(_LISTING, launcher)
    assert probe.status == STATUS_OK
    assert json.loads(probe.artifact) == ["candidate.py"]
    assert (launcher.proc is not first) == restarts
    assert outside.read_text() == "print('outside')\n"
    for linked in set(outside.parent.iterdir()) - {outside}:
        assert linked.read_text() == code


def test_close_kills_a_launcher_that_does_not_exit():
    launcher = Launcher(FAST_INTERPRETER, LIMITS, 0)
    try:
        run_candidate("print(1)\n", launcher)
        os.kill(launcher.proc.pid, signal.SIGSTOP)
        _bounded(launcher.close, sandbox.KILL_GRACE_SECONDS + 3.0)
        assert launcher.proc.returncode == -signal.SIGKILL
    finally:
        launcher.proc.kill()


# -- fidelity: a forked candidate behaves as ``python candidate.py`` --

# The BLAS and OpenMP thread counts that every candidate sees as 1.
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

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
    # The order follows the string-hash seed.
    "set_order": (_SET_ORDER + "print(hash('alpha'))\n", STATUS_OK),
    # The engine sets each to 2 here; a candidate sees 1.
    "one_blas_thread": (f"import os\nprint([os.environ[name] for name in {_ONE_THREAD!r}])\n", STATUS_OK),
    # The launcher's backstop leaves a candidate no CPU-time limit and no alarm handler.
    "cpu_limit_and_alarm": (
        "import resource, signal\nprint(resource.getrlimit(resource.RLIMIT_CPU), signal.getsignal(signal.SIGALRM))\n",
        STATUS_OK,
    ),
}
_FIDELITY_LIMITS = ResourceLimits(wall_seconds=10.0, memory_bytes=256 << 20)
_FIDELITY_HASH_SEED = 12345


_PYTHONS = [f"python3.{minor}" for minor in range(10, 14)]  # every supported version


@functools.cache
def _executable(name):
    """The real executable behind ``name`` on PATH, or None if it is absent or does not run."""
    try:
        probe = subprocess.run(
            [name, "-S", "-c", "import sys; print(sys.executable)"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return os.path.realpath(probe.stdout.strip()) if probe.returncode == 0 else None


def _other_python(name):
    """``[executable, "-S"]`` for ``name``; skips the test if that is absent or runs the tests."""
    exe = _executable(name)
    if exe is None:
        pytest.skip(f"{name} is absent or does not run")
    if exe == os.path.realpath(sys.executable):
        pytest.skip(f"{name} runs the tests; the cases without a prefix cover it")
    return [exe, "-S"]


def _on_each_interpreter(cases):
    """``(interpreter, case)`` params: each case under its own id on the tests' interpreter,
    then prefixed with each supported ``python3.X``, which the interpreter fixture looks up."""
    return [pytest.param(None, case, id=case) for case in cases] + [
        pytest.param(name, case, id=f"{name}-{case}") for name in _PYTHONS for case in cases
    ]


def _oracle(code, limits, interpreter, hash_seed):
    """``python candidate.py`` in a fresh directory, with ``PYTHONHASHSEED`` set
    to ``hash_seed`` and one BLAS and OpenMP thread: the behaviour launchers
    must keep. As in ``run_candidate``, the directory reads ``.`` in the logs."""
    workdir = Path(tempfile.mkdtemp(prefix="candidate-"))
    try:
        script = workdir / "candidate.py"
        script.write_text(code, encoding="utf-8")
        artifact = workdir / "artifact.json"

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limits.memory_bytes, limits.memory_bytes))

        proc = subprocess.run(
            interpreter + [str(script)],
            cwd=workdir,
            env={**os.environ, "ARTIFACT_PATH": str(artifact), "PYTHONHASHSEED": str(hash_seed),
                 **dict.fromkeys(_ONE_THREAD, "1")},
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
        return status, proc.stdout.decode().replace(str(workdir), "."), stderr.replace(str(workdir), "."), found
    finally:
        shutil.rmtree(workdir)


def _same_dir(text):
    """``text`` with the temporary directory's name and object addresses normalised."""
    return re.sub(r"0x[0-9a-f]+", "0xX", re.sub(r"candidate-[a-z0-9_]+", "candidate-X", text))


@pytest.mark.parametrize("interpreter, name", _on_each_interpreter(sorted(_FIDELITY)), indirect=["interpreter"])
def test_launcher_matches_a_fresh_interpreter(name, interpreter, make_launcher, monkeypatch):
    code, expected = _FIDELITY[name]
    for thread_count in _ONE_THREAD:
        monkeypatch.setenv(thread_count, "2")
    outcome = run_candidate(code, make_launcher(_FIDELITY_LIMITS, hash_seed=_FIDELITY_HASH_SEED))
    status, stdout, stderr, artifact = _oracle(code, _FIDELITY_LIMITS, interpreter, _FIDELITY_HASH_SEED)
    assert (outcome.status, status) == (expected, expected)
    assert _same_dir(outcome.stdout) == _same_dir(stdout)
    assert _same_dir(outcome.stderr) == _same_dir(stderr)
    assert outcome.artifact == artifact


# One SLSQP start on 8 circles: OpenBLAS 0.3.31 (numpy 2.4.6's wheel) rounds it
# differently with one thread and with two. It costs about 1.5 s on 2 vCPUs,
# mostly for importing scipy.
_SLSQP = """import json, os
import numpy as np
from scipy.optimize import minimize

n = 8
iu = np.triu_indices(n, 1)

def apart(z):
    x, y, r = z[:n], z[n:2 * n], z[2 * n:]
    gaps = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :]) - (r[:, None] + r[None, :])
    return np.concatenate([gaps[iu], x - r, 1 - x - r, y - r, 1 - y - r])

start = np.concatenate([np.random.default_rng(0).uniform(0.1, 0.9, 2 * n), np.full(n, 0.02)])
result = minimize(lambda z: -z[2 * n:].sum(), start, method="SLSQP", constraints=[{"type": "ineq", "fun": apart}],
                  bounds=[(0, 1)] * (2 * n) + [(0, 0.5)] * n, options={"maxiter": 200})
with open(os.environ["ARTIFACT_PATH"], "w") as fh:
    json.dump(result.x.tolist(), fh)
"""


@pytest.mark.skipif(
    not all(importlib.util.find_spec(name) for name in ("numpy", "scipy")),
    reason="the candidate imports numpy and scipy, which the tests' interpreter lacks",
)
@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1) < 2,
    reason="with one CPU, OpenBLAS runs one thread whatever the engine asks for",
)
def test_a_numpy_candidate_writes_the_same_artifact_whatever_the_engines_blas_thread_count(monkeypatch):
    artifacts = []
    for thread_count in ("1", "2"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", thread_count)
        launcher = Launcher([sys.executable], LIMITS, 0)  # with site-packages, where numpy is
        try:
            outcome = run_candidate(_SLSQP, launcher)
        finally:
            launcher.close()
        assert outcome.status == STATUS_OK, outcome.stderr
        artifacts.append(outcome.artifact)
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize(
    "interpreter, code",
    _on_each_interpreter(
        [
            "sys.exit()",
            "sys.exit('bye')",
            "sys.exit(300)",
            "sys.exit(2**40 + 3)",
            "sys.exit(-1)",
            "sys.exit(True)",
            "sys.stdout = None",
            "sys.stdout = type('Unflushable', (), {'write': len, 'flush': lambda self: 1 / 0})()",
        ]
    ),
    indirect=["interpreter"],
)
def test_exit_status_matches_a_fresh_interpreter(code, launcher, tmp_path):
    script = tmp_path / "candidate.py"
    script.write_text(f"import sys\n{code}\n", encoding="utf-8")
    launcher.prepare(script.read_bytes())
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        returncode, timed_out, _ = launcher.run(out, err)
    fresh = subprocess.run(launcher.interpreter + [str(script)], capture_output=True, timeout=LIMITS.wall_seconds)
    assert (returncode, timed_out) == (fresh.returncode, False)


def test_a_candidate_that_rebinds_its_names_leaves_the_next_fresh_ones(run):
    # The launcher sets these up once for all its children.
    rebind = (
        "import sys\n"
        "sys.argv.append('x')\n"
        "sys.argv = ['x']\n"
        "__loader__.name = 'x'\n"
        "sys.path[0] = 'x'\n"
    )
    show = "import sys\nprint(sys.argv, __loader__.name, __file__, sys.path[0])\n"
    assert run(rebind).status == STATUS_OK
    assert run(show).stdout == _oracle(show, LIMITS, FAST_INTERPRETER, 0)[1]

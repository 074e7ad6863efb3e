"""Resource-limited execution of candidate programs.

A run has one warm launcher per sandbox worker: a long-lived interpreter,
started from ``interpreter`` with the run's limits, that forks a child per
candidate (see ``_launcher.py``) and serves one caller at a time; a run's
``LauncherPool`` starts them together, lends them in arrival order to
callers that each run a candidate on their own thread, and stops them
together. Each launcher start makes one temporary work directory, the
working directory of the launcher and of every child it forks; the
artifact output path in it is in the launcher's environment, which is this
process's without the API key (``llm.API_KEY_ENV``) and with one thread
for each of ``ONE_THREAD_ENV``, so the children inherit both and never the
key. The engine holds one descriptor of the directory from the start to
``close`` and goes through it, never its path, to write the script, open
the artifact and empty the directory: before a candidate runs, its code
overwrites the directory's ``candidate.py`` in place; after it, the
directory is emptied but for that script while it is a file of its own
(``empty_dir``), so every candidate of a launcher sees the same path and
only its own script there, and the evaluation itself creates no file. A
path that no longer names the held directory, or a directory that cannot
be emptied or prepared (the candidate removed or renamed it, or swapped it
for a symlink), closes the launcher, which starts afresh in a new directory
on next use, as does a launcher that died. A launcher removes its
directory, wherever it now is, when it is closed or dies, and
``Launcher.close`` removes what is left at its path. All three removals go
through ``_launcher.empty_dir``, which follows no symlink and never
recurses, so a tree of any depth that a candidate builds goes without
exhausting the engine's stack.

The child runs the candidate as ``python candidate.py`` would, in its own
session, with stdin on ``/dev/null``, a best-effort memory ceiling
(address-space rlimit) and a ceiling on the size of each file it writes
(``_launcher.FILE_SIZE_LIMIT``, set on the launcher and inherited, which
bounds the artifact and both logs). It inherits a compiler that the
launcher warmed with an empty compile, which spares each child about 110
page faults and 2 ms of CPU. It exits without interpreter teardown, after
the steps of CPython's shutdown that a candidate can observe; objects that
a module other than ``__main__`` still holds are not finalised. Its stdout
and stderr are memfds where ``os`` has ``memfd_create`` and unnamed
temporary files elsewhere, so on Linux its logs create no file on disk; a
running candidate's logs hold at most 2 × ``FILE_SIZE_LIMIT`` bytes of
memory, freed when ``run_candidate`` returns, and the engine reads only the
bytes each holds, at most the last ``LOG_CAP_BYTES``. The artifact file is
handed over unread, for the caller to read through
``ProblemSpec.read_artifact`` and to close. The child reports its pid
before any candidate code runs, and the engine keeps one wall-clock
deadline per candidate, counted from its request, and kills the candidate's
whole process group when it passes. The memory ceiling counts the address
space a child inherits from its launcher, which refuses a ``memory_bytes``
at or below its own size where ``/proc`` shows it. Should the engine die,
or stall for 2 × ``KILL_GRACE_SECONDS``, the launcher's backstop kills the
group that long past ``wall_seconds`` from the fork, busy or asleep; a
stalled engine reads that SIGKILL as ``memory_exceeded``. Candidates see
the launcher's preloaded modules (``atexit``, ``gc``, ``json``, ``os``,
``resource``, ``signal``, ``socket``) and its string-hash seed,
``hash_seed``, one per run. This is a resource sandbox, not a security
sandbox: network access is not blocked. POSIX only; the interpreter must be
Python 3.10 or later and must not ignore the environment (``-E``, ``-I``),
where a launcher refuses to start, since its candidates would not hash
strings by ``hash_seed``.
"""

from __future__ import annotations

import os
import signal
import socket
import stat
import subprocess
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Optional

from ._launcher import empty_dir, kill_group, remove_workdir
from .llm import API_KEY_ENV, check_field

ARTIFACT_PATH_ENV = "ARTIFACT_PATH"  # names, in a candidate's environment, its artifact file
LOG_CAP_BYTES = 1 << 20  # per stream; the tail is kept and truncation marked in front
TRUNCATION_MARK = "...[truncated]\n"
# How long a launcher may take to report a killed candidate's exit, and to
# exit when closed, before it is killed: a stopped launcher does neither. A
# child gets as long to report its pid, whatever the candidate's wall limit.
KILL_GRACE_SECONDS = 1.0
# How long a launcher may take to start, whatever the candidate's wall limit:
# a start slowed by a loaded host does not fail the candidate that waits on it.
START_TIMEOUT_SECONDS = 10.0
SCRIPT_NAME = "candidate.py"
ARTIFACT_NAME = "artifact.json"
# Each is 1 for a candidate, over the engine's value: OpenBLAS's result depends on its thread count.
ONE_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")

STATUS_OK = "ok"
STATUS_NONZERO_EXIT = "nonzero_exit"
STATUS_TIMEOUT = "timeout"
STATUS_MEMORY_EXCEEDED = "memory_exceeded"
STATUS_SPAWN_ERROR = "spawn_error"

# Ceilings within what a launcher can apply: a socket timeout and
# ``setitimer`` refuse about 1e10 s, Python 3.11's ``setrlimit`` 2**63 bytes.
MAX_WALL_SECONDS = 30 * 24 * 3600
MAX_MEMORY_BYTES = (1 << 63) - 1

LAUNCHER_SCRIPT = str(Path(__file__).with_name("_launcher.py"))


@dataclass
class ResourceLimits:
    wall_seconds: float
    memory_bytes: int

    RANGES = (("wall_seconds", "positive number", 0, MAX_WALL_SECONDS), ("memory_bytes", "integer", 1, MAX_MEMORY_BYTES))

    def __post_init__(self) -> None:
        for name, *rule in self.RANGES:
            check_field(f"limits {name}", getattr(self, name), *rule)


@dataclass
class ExecutionOutcome:
    status: str
    stdout: str
    stderr: str
    wall_time: float
    artifact: Optional[BinaryIO] = None  # after a clean exit, open and unread; the caller closes it
    exit_code: Optional[int] = None  # the launcher's report, negative for a signal; None if it was lost


class LauncherError(Exception):
    """The launcher process could not be started."""


class Launcher:
    """One warm launcher process and its work directory; serves one candidate at a time.

    It is bound to a run's ``limits`` and ``hash_seed``. ``spawn``
    starts it and ``wait_ready`` waits for it. ``prepare`` starts one that is
    not running: after it dies (under a candidate or while idle), after it is
    discarded for not reporting a killed candidate's exit in time, or after
    it is closed because its work directory could not be prepared or emptied.
    Each start makes a fresh work directory, which the launcher and its
    children use as their working directory and which holds the script and
    the artifact; ``dir_fd`` holds it open until ``close``.
    ``close`` ends the launcher, reaps it, which adds its children's CPU time
    to this process's ``RUSAGE_CHILDREN``, and removes its work directory.
    """

    def __init__(self, interpreter: list[str], limits: ResourceLimits, hash_seed: int):
        self.interpreter = list(interpreter)
        self.limits = limits
        self.hash_seed = hash_seed
        self.proc: Optional[subprocess.Popen] = None
        self.workdir: Optional[str] = None
        self.dir_fd: Optional[int] = None  # the work directory, held from its start to ``close``
        self._sock: Optional[socket.socket] = None
        self._errors = None  # the launcher's stderr, until it is ready

    def spawn(self) -> None:
        """Start the launcher process in a fresh work directory, without waiting for it.

        Its arguments are the script path, the memory limit and the backstop; its
        environment is this process's without the API key, plus the artifact
        path, ``PYTHONHASHSEED`` and ``ONE_THREAD_ENV`` (over any inherited
        values). ``wait_ready`` waits for its ``ready``. An interpreter that
        cannot be started, or whose arguments hold a NUL byte, is a
        ``LauncherError``, with everything this opened closed.
        """
        self.workdir = tempfile.mkdtemp(prefix="candidate-")
        self.dir_fd = os.open(self.workdir, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
        env = {name: value for name, value in os.environ.items() if name != API_KEY_ENV}
        env[ARTIFACT_PATH_ENV] = os.path.join(self.workdir, ARTIFACT_NAME)
        env["PYTHONHASHSEED"] = str(self.hash_seed)
        env.update(dict.fromkeys(ONE_THREAD_ENV, "1"))
        script = os.path.join(self.workdir, SCRIPT_NAME)
        limits = [str(self.limits.memory_bytes), str(self.limits.wall_seconds + 2 * KILL_GRACE_SECONDS)]
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        self._errors = _log_file("launcher-errors")
        try:
            with theirs:  # then the launcher holds the only other end
                self.proc = subprocess.Popen(
                    self.interpreter + [LAUNCHER_SCRIPT, str(theirs.fileno()), script, *limits],
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=self._errors,
                    pass_fds=[theirs.fileno()],
                    cwd=self.workdir,
                    env=env,
                )
        except (OSError, ValueError) as exc:  # ValueError: an embedded NUL byte
            ours.close()
            self.close()
            raise LauncherError(str(exc)) from exc
        self._sock = ours

    def wait_ready(self) -> None:
        """Wait for the spawned launcher's ``ready``; a launcher that exits or
        stays silent for ``START_TIMEOUT_SECONDS`` is killed, and the
        ``LauncherError`` quotes its stderr."""
        self._sock.settimeout(START_TIMEOUT_SECONDS)
        try:
            ready = self._sock.recv(16) == b"ready"
        except OSError:  # includes the timeout
            ready = False
        errors, self._errors = self._errors, None
        with errors:
            if not ready:
                code = self._discard()
                text = _read_log(errors).strip()
                raise LauncherError(
                    f"launcher exited with code {code} before it was ready" + (f": {text}" if text else "")
                )

    def prepare(self, code: bytes) -> None:
        """Start the launcher if it is not running, and put ``code`` in its script.

        The script is overwritten in place, never truncated to zero first;
        ``clear`` left it absent or the launcher's own. A failed write closes
        the launcher and is a ``LauncherError``.
        """
        if self.proc is not None and self.proc.poll() is not None:  # died while idle
            self.close()
        if self._sock is None:
            self.spawn()
            self.wait_ready()
        try:
            _overwrite(self.dir_fd, SCRIPT_NAME, code)
        except OSError as exc:
            self.close()
            raise LauncherError(f"cannot write the candidate's script: {exc}") from exc

    def clear(self) -> None:
        """Empty the work directory but for its own script (``empty_dir``), or close the launcher.

        The path must still name the held directory, not a symlink (the
        candidate may have removed it, renamed it or swapped it for a
        symlink), and every entry of the held directory must go; otherwise
        the launcher is closed, which removes its directory wherever it now
        is, and starts afresh on next use.
        """
        if self._sock is None:  # lost under the candidate
            return
        try:
            if not os.path.samestat(os.lstat(self.workdir), os.fstat(self.dir_fd)):
                raise FileNotFoundError(self.workdir)
            empty_dir(self.dir_fd, keep=SCRIPT_NAME)
        except OSError:
            self.close()

    def run(self, stdout, stderr) -> tuple[Optional[int], bool, float]:
        """Run the prepared script: its exit code (None if the launcher was
        lost), whether it timed out, and its wall time.

        The candidate has one deadline, ``wall_seconds`` after the request is
        sent, and its wall time counts from there on the same clock. The
        child's pid may take up to ``KILL_GRACE_SECONDS`` whatever the limit:
        the child sends it before any candidate code runs. Past the deadline
        the group is killed and its exit code waited for under the same grace.
        """
        sock = self._sock
        sock.settimeout(KILL_GRACE_SECONDS)
        pid, timed_out = None, False
        start = time.monotonic()
        deadline = start + self.limits.wall_seconds
        try:
            socket.send_fds(sock, [b"run"], [stdout.fileno(), stderr.fileno()])
            pid = _recv_int(sock)
            try:
                left = deadline - time.monotonic()
                if left <= 0:  # a zero timeout makes recv raise BlockingIOError, not TimeoutError
                    raise TimeoutError
                sock.settimeout(left)
                code = _recv_int(sock)
            except TimeoutError:
                timed_out = True
                kill_group(pid)
                sock.settimeout(KILL_GRACE_SECONDS)
                code = _recv_int(sock)
        except OSError:  # the launcher died or stopped answering; nobody else will end its child
            if pid is not None:
                kill_group(pid)
            self._discard()
            code = None
        return code, timed_out, time.monotonic() - start

    def _discard(self) -> int:
        """Kill and reap the launcher; it restarts on next use. Returns its exit code."""
        self.proc.kill()
        code = self.proc.wait()
        self.close()
        return code

    def hang_up(self) -> None:
        """Close the engine's end of the socket, which tells the launcher to exit."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def close(self) -> None:
        """End the launcher (it exits when its socket closes, or is killed), reap it
        and remove its work directory: the launcher removes it on its way out,
        and this removes what is left at its path."""
        self.hang_up()
        if self.proc is not None:
            try:
                self.proc.wait(KILL_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._errors is not None:
            self._errors.close()
            self._errors = None
        if self.dir_fd is not None:
            os.close(self.dir_fd)
            self.dir_fd = None
        if self.workdir is not None:
            remove_workdir(self.workdir)
            self.workdir = None


def _recv_int(sock: socket.socket) -> int:
    reply = sock.recv(32)
    if not reply:
        raise ConnectionResetError("the launcher exited")
    return int(reply)


def _log_file(name: str):
    """An unnamed read-write file for a log: a memfd where ``os`` has one.

    A memfd creates no inode on disk; its pages are freed when it closes.
    """
    if hasattr(os, "memfd_create"):
        return open(os.memfd_create(name), "w+b")
    return tempfile.TemporaryFile()


def _read_log(fh) -> str:
    """The log's text, or its last ``LOG_CAP_BYTES`` after ``TRUNCATION_MARK``.

    It reads only the bytes the log holds: a buffered ``read(n)`` allocates
    all ``n`` bytes before it shrinks the result.
    """
    size = fh.seek(0, os.SEEK_END)
    kept = min(size, LOG_CAP_BYTES)
    fh.seek(size - kept)
    text = fh.read(kept).decode("utf-8", errors="replace")
    return TRUNCATION_MARK + text if size > LOG_CAP_BYTES else text


def _overwrite(dir_fd: int, name: str, data: bytes) -> None:
    """Write ``data`` over the file ``name`` in the directory open at ``dir_fd``,
    which must be absent or a regular file with no other link; a symlink is
    not followed and a FIFO is not waited on.

    The file keeps its inode and is cut to length after the write, not
    before: on ext4, truncating a file to zero makes its close flush it.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW | os.O_NONBLOCK | os.O_CLOEXEC
    fd = os.open(name, flags, 0o644, dir_fd=dir_fd)
    try:
        info = os.fstat(fd)
        if not stat.S_ISREG(info.st_mode) or info.st_nlink != 1:
            raise OSError(f"{name} is not a regular file of its own")
        if os.pwrite(fd, data, 0) != len(data):
            raise OSError(f"short write to {name}")
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _open_artifact(dir_fd: int) -> Optional[BinaryIO]:
    """What the candidate left as ``ARTIFACT_NAME`` in the directory open at ``dir_fd``,
    unread, or None: a symlink is not followed, and a FIFO is not waited on."""
    try:
        fd = os.open(ARTIFACT_NAME, os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW, dir_fd=dir_fd)
    except OSError:  # missing, a symlink, or not ours to read
        return None
    try:
        return open(fd, "rb")
    except OSError:  # a directory, which ``open`` refuses without closing ``fd``
        os.close(fd)
        return None


def run_candidate(code: str, launcher: Launcher) -> ExecutionOutcome:
    """Execute one candidate on ``launcher`` under its limits and collect its logs and artifact.

    The candidate is written to the launcher's work directory and run there,
    with the artifact output path supplied via the environment; afterwards
    the directory is emptied but for the script. On timeout the whole
    process group is killed, not only the candidate. The work directory
    reads ``.`` in both logs, so they do not depend on its random name.
    """
    if not code:
        raise ValueError("candidate code is empty")
    with _log_file("stdout") as out, _log_file("stderr") as err:
        try:
            launcher.prepare(code.encode("utf-8"))
            workdir = launcher.workdir  # a launcher lost under the candidate forgets it
            returncode, timed_out, wall = launcher.run(out, err)
        except LauncherError as exc:
            return ExecutionOutcome(
                status=STATUS_SPAWN_ERROR,
                stdout="",
                stderr=str(exc),
                wall_time=0.0,
            )

        stdout, stderr = _read_log(out).replace(workdir, "."), _read_log(err).replace(workdir, ".")
        if timed_out:
            status = STATUS_TIMEOUT
        elif returncode is None:  # the launcher died under the candidate
            status = STATUS_NONZERO_EXIT
        elif returncode != 0:
            if "MemoryError" in stderr or returncode == -signal.SIGKILL:
                status = STATUS_MEMORY_EXCEEDED
            else:
                status = STATUS_NONZERO_EXIT
        else:
            status = STATUS_OK

        artifact = _open_artifact(launcher.dir_fd) if status == STATUS_OK else None
        launcher.clear()
        return ExecutionOutcome(
            status=status,
            stdout=stdout,
            stderr=stderr,
            wall_time=wall,
            artifact=artifact,
            exit_code=returncode,
        )


class LauncherPool:
    """A run's launchers: started at once, each lent to one caller at a time,
    and closed together by ``close`` or at the end of a ``with`` block.

    The constructor waits until each launcher is ready; one that cannot start
    is a ``LauncherError``, with every launcher closed.
    """

    def __init__(self, interpreter: list[str], count: int, limits: ResourceLimits, hash_seed: int):
        self.launchers = [Launcher(interpreter, limits, hash_seed) for _ in range(count)]
        # ``_lock`` guards the idle launchers and the callers that wait for
        # one, each blocked on its own held lock, in arrival order.
        self._lock = threading.Lock()
        self._idle = deque(self.launchers)
        self._waiting: deque[tuple[threading.Lock, list]] = deque()
        try:
            for launcher in self.launchers:
                launcher.spawn()
            for launcher in self.launchers:
                launcher.wait_ready()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "LauncherPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, code: str) -> ExecutionOutcome:
        """``run_candidate`` on the caller's thread, on a launcher lent in arrival order.

        A caller takes an idle launcher or queues behind the earlier callers.
        A launcher that comes free goes straight to the oldest waiter, whose
        lock is released so that exactly it wakes: no later caller can take
        the launcher first.
        """
        with self._lock:
            if self._idle:
                launcher = self._idle.popleft()
            else:
                turn, handed = threading.Lock(), []
                turn.acquire()
                self._waiting.append((turn, handed))
                launcher = None
        if launcher is None:
            turn.acquire()  # released once ``handed`` holds a launcher
            [launcher] = handed
        try:
            return run_candidate(code, launcher)
        finally:
            with self._lock:
                if self._waiting:
                    next_turn, next_handed = self._waiting.popleft()
                    next_handed.append(launcher)
                    next_turn.release()
                else:
                    self._idle.append(launcher)

    def close(self) -> None:
        """Close every launcher, hanging up on all of them before reaping any."""
        for launcher in self.launchers:
            launcher.hang_up()
        for launcher in self.launchers:
            launcher.close()

"""Resource-limited execution of candidate programs.

Each sandbox worker owns one warm launcher: a long-lived interpreter,
started from ``interpreter`` on first use, that forks a child per candidate
(see ``_launcher.py``). The child runs the candidate as ``python
candidate.py`` would, in its own fresh temporary directory and session,
with stdin on ``/dev/null``, a best-effort memory ceiling (address-space
rlimit), a ceiling on the size of each file it writes
(``_launcher.FILE_SIZE_LIMIT``, which bounds the artifact and both logs) and
the artifact output path in the environment. It exits without interpreter
teardown, after the steps of CPython's shutdown that a candidate can
observe; objects that a module other than ``__main__`` still holds are not
finalised. Its stdout and stderr are memfds where ``os`` has
``memfd_create`` and unnamed temporary files elsewhere, so on Linux its logs
create no file on disk; a running candidate's logs hold at most 2 ×
``FILE_SIZE_LIMIT`` bytes of memory, freed when ``run_candidate`` returns.
An artifact longer than the caller's limit is never read. The engine
keeps the wall-clock deadline and kills the candidate's whole process group
when it passes. Candidates of one launcher see its preloaded modules
(``atexit``, ``gc``, ``json``, ``os``, ``resource``, ``signal``, ``socket``)
and share its string-hash seed. This is a resource sandbox, not a security
sandbox: network access is not blocked. POSIX only; the interpreter must be
Python 3.10 or later.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import stat
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from ._launcher import FILE_SIZE_LIMIT
from .problems import ARTIFACT_PATH_ENV

LOG_CAP_BYTES = 1 << 20  # per stream; the tail is kept and truncation marked in front
TRUNCATION_MARK = "...[truncated]\n"
# How long a launcher may take to report a killed candidate's exit, and to
# exit when closed, before it is killed: a stopped launcher does neither.
KILL_GRACE_SECONDS = 1.0

STATUS_OK = "ok"
STATUS_NONZERO_EXIT = "nonzero_exit"
STATUS_TIMEOUT = "timeout"
STATUS_MEMORY_EXCEEDED = "memory_exceeded"
STATUS_SPAWN_ERROR = "spawn_error"

LAUNCHER_SCRIPT = str(Path(__file__).with_name("_launcher.py"))


@dataclass
class ResourceLimits:
    wall_seconds: float
    memory_bytes: int

    def __post_init__(self) -> None:
        if self.wall_seconds <= 0 or self.memory_bytes <= 0:
            raise ValueError("resource limits must be positive")


@dataclass
class ExecutionOutcome:
    status: str
    stdout: str
    stderr: str
    wall_time: float
    artifact: Optional[bytes] = None  # None if there is none, or it is over the limit
    artifact_size: Optional[int] = None  # None if the candidate left no regular file


class LauncherError(Exception):
    """The launcher process could not be started."""


class Launcher:
    """One warm launcher process; serves one candidate at a time.

    It starts on first use and again on the next use after it dies, or after
    it is discarded for not reporting a killed candidate's exit in time.
    ``close`` ends it and reaps it, which adds its children's CPU time to
    this process's ``RUSAGE_CHILDREN``.
    """

    def __init__(self, interpreter: list[str]):
        self.interpreter = list(interpreter)
        self.proc: Optional[subprocess.Popen] = None
        self._sock: Optional[socket.socket] = None

    def _start(self, timeout: float) -> None:
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with _log_file("launcher-errors") as errors:
            try:
                with theirs:  # then the launcher holds the only other end
                    self.proc = subprocess.Popen(
                        self.interpreter + [LAUNCHER_SCRIPT, str(theirs.fileno())],
                        stdin=subprocess.DEVNULL,
                        stdout=subprocess.DEVNULL,
                        stderr=errors,
                        pass_fds=[theirs.fileno()],
                    )
            except OSError as exc:
                ours.close()
                raise LauncherError(str(exc)) from exc
            self._sock = ours
            ours.settimeout(timeout)
            try:
                ready = ours.recv(16) == b"ready"
            except OSError:  # includes the timeout
                ready = False
            if not ready:
                code = self._discard()
                text = _read_log(errors).strip()
                raise LauncherError(
                    f"launcher exited with code {code} before it was ready" + (f": {text}" if text else "")
                )

    def run(self, request: dict, stdout, stderr, timeout: float) -> tuple[Optional[int], bool]:
        """Run one candidate: its exit code (None if the launcher was lost) and whether it timed out."""
        if self._sock is None:
            self._start(timeout)
        sock = self._sock
        sock.settimeout(timeout)
        pid, timed_out = None, False
        try:
            socket.send_fds(sock, [json.dumps(request).encode()], [stdout.fileno(), stderr.fileno()])
            pid = _recv_int(sock)
            try:
                return _recv_int(sock), False
            except TimeoutError:
                timed_out = True
                _kill_group(pid)
            sock.settimeout(KILL_GRACE_SECONDS)
            return _recv_int(sock), True
        except OSError:  # the launcher died or stopped answering; nobody else will end its child
            if pid is not None:
                _kill_group(pid)
            self._discard()
            return None, timed_out

    def _discard(self) -> int:
        """Kill and reap the launcher; it restarts on next use. Returns its exit code."""
        self.proc.kill()
        code = self.proc.wait()
        self.close()
        return code

    def close(self) -> None:
        """End the launcher (it exits when its socket closes, or is killed) and reap it."""
        if self._sock is None:
            return
        self._sock.close()
        self._sock = None
        try:
            self.proc.wait(KILL_GRACE_SECONDS)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _recv_int(sock: socket.socket) -> int:
    reply = sock.recv(32)
    if not reply:
        raise ConnectionResetError("the launcher exited")
    return int(reply)


def _kill_group(pid: int) -> None:
    """Kill the candidate's whole process group; it leads its own session."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _log_file(name: str):
    """An unnamed read-write file for a log: a memfd where ``os`` has one.

    A memfd creates no inode on disk; its pages are freed when it closes.
    """
    if hasattr(os, "memfd_create"):
        return open(os.memfd_create(name), "w+b")
    return tempfile.TemporaryFile()


def _read_log(fh) -> str:
    """The log's text, or its last ``LOG_CAP_BYTES`` after ``TRUNCATION_MARK``."""
    size = fh.seek(0, os.SEEK_END)
    fh.seek(max(0, size - LOG_CAP_BYTES))
    text = fh.read(LOG_CAP_BYTES).decode("utf-8", errors="replace")
    return TRUNCATION_MARK + text if size > LOG_CAP_BYTES else text


def _read_artifact(path: Path, max_bytes: int) -> tuple[Optional[bytes], Optional[int]]:
    """The artifact and its size if the candidate left a regular file at ``path``.

    The candidate decides what is there: a symlink is not followed, a FIFO
    is not waited on, and a file over ``max_bytes`` is not read (its bytes
    are None). Without a regular file, both are None.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_NOFOLLOW)
    except OSError:  # missing, a symlink, or not ours to read
        return None, None
    info = os.fstat(fd)
    size = info.st_size if stat.S_ISREG(info.st_mode) else None
    if size is None or size > max_bytes:
        os.close(fd)
        return None, size
    with open(fd, "rb") as fh:  # what it held at the fstat, should it still grow
        return fh.read(size), size


def run_candidate(
    code: str, limits: ResourceLimits, launcher: Launcher, max_artifact_bytes: int = FILE_SIZE_LIMIT
) -> ExecutionOutcome:
    """Execute one candidate on ``launcher`` and collect its logs and artifact.

    The candidate is written to a fresh temporary directory and run there
    with the artifact output path supplied via the environment. On timeout
    the whole process group is killed, not only the candidate. An artifact
    over ``max_artifact_bytes`` is not read, only its size taken.
    """
    if not code:
        raise ValueError("candidate code is empty")
    with (
        tempfile.TemporaryDirectory(prefix="candidate-") as workdir,
        _log_file("stdout") as out,
        _log_file("stderr") as err,
    ):
        script = Path(workdir) / "candidate.py"
        script.write_text(code, encoding="utf-8")
        artifact_path = Path(workdir) / "artifact.json"
        request = {
            "script": str(script),
            "env": {ARTIFACT_PATH_ENV: str(artifact_path)},
            "memory_bytes": limits.memory_bytes,
        }
        start = time.monotonic()
        try:
            returncode, timed_out = launcher.run(request, out, err, limits.wall_seconds)
        except LauncherError as exc:
            return ExecutionOutcome(
                status=STATUS_SPAWN_ERROR,
                stdout="",
                stderr=str(exc),
                wall_time=0.0,
            )
        wall = time.monotonic() - start

        stdout, stderr = _read_log(out), _read_log(err)
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

        artifact, size = None, None
        if status == STATUS_OK:
            artifact, size = _read_artifact(artifact_path, max_artifact_bytes)
        return ExecutionOutcome(
            status=status,
            stdout=stdout,
            stderr=stderr,
            wall_time=wall,
            artifact=artifact,
            artifact_size=size,
        )

"""Resource-limited execution of candidate programs.

Each candidate runs in its own fresh temporary directory with a wall-clock
kill and a best-effort memory ceiling (address-space rlimit where the
platform supports it). This is a resource sandbox, not a security sandbox:
network access is not blocked.
"""

from __future__ import annotations

import os
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .problems import ARTIFACT_PATH_ENV

LOG_CAP_BYTES = 1 << 20  # per stream; truncation is marked in the text
TRUNCATION_MARK = "\n...[truncated]"

STATUS_OK = "ok"
STATUS_NONZERO_EXIT = "nonzero_exit"
STATUS_TIMEOUT = "timeout"
STATUS_MEMORY_EXCEEDED = "memory_exceeded"
STATUS_SPAWN_ERROR = "spawn_error"

try:
    import resource as _resource
except ImportError:  # non-POSIX platforms
    _resource = None


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
    artifact: Optional[bytes] = None


def _cap(data: bytes) -> str:
    text = data.decode("utf-8", errors="replace")
    if len(data) > LOG_CAP_BYTES:
        text = text[: LOG_CAP_BYTES] + TRUNCATION_MARK
    return text


def run_candidate(
    code: str,
    limits: ResourceLimits,
    interpreter: Optional[list[str]] = None,
    workdir_root: Optional[str] = None,
) -> ExecutionOutcome:
    """Execute one candidate and collect its logs and artifact.

    The candidate is written to a fresh temporary directory and launched
    there with the artifact output path supplied via the environment. On
    timeout the whole process group is killed, not only the direct child.
    """
    if not code:
        raise ValueError("candidate code is empty")
    interpreter = interpreter or ["python3"]
    with tempfile.TemporaryDirectory(prefix="candidate-", dir=workdir_root) as workdir:
        script = Path(workdir) / "candidate.py"
        script.write_text(code, encoding="utf-8")
        artifact_path = Path(workdir) / "artifact.json"
        env = dict(os.environ)
        env[ARTIFACT_PATH_ENV] = str(artifact_path)

        preexec = None
        if _resource is not None:

            def _limit() -> None:
                _resource.setrlimit(
                    _resource.RLIMIT_AS, (limits.memory_bytes, limits.memory_bytes)
                )
                os.setsid()

            preexec = _limit

        start = time.monotonic()
        try:
            proc = subprocess.Popen(
                interpreter + [str(script)],
                cwd=workdir,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                preexec_fn=preexec,
            )
        except OSError as exc:
            return ExecutionOutcome(
                status=STATUS_SPAWN_ERROR,
                stdout="",
                stderr=str(exc),
                wall_time=0.0,
            )
        try:
            out, err = proc.communicate(timeout=limits.wall_seconds)
            timed_out = False
        except subprocess.TimeoutExpired:
            _kill_tree(proc)
            out, err = proc.communicate()
            timed_out = True
        wall = time.monotonic() - start

        stdout, stderr = _cap(out), _cap(err)
        if timed_out:
            status = STATUS_TIMEOUT
        elif proc.returncode != 0:
            if "MemoryError" in stderr or proc.returncode == -signal.SIGKILL:
                status = STATUS_MEMORY_EXCEEDED
            else:
                status = STATUS_NONZERO_EXIT
        else:
            status = STATUS_OK

        artifact = None
        if status == STATUS_OK and artifact_path.exists():
            artifact = artifact_path.read_bytes()
        return ExecutionOutcome(
            status=status,
            stdout=stdout,
            stderr=stderr,
            wall_time=wall,
            artifact=artifact,
        )


def _kill_tree(proc: subprocess.Popen) -> None:
    """Terminate the candidate's whole process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError, OSError):
        proc.kill()

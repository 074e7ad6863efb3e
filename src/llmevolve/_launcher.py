"""Warm launcher: forks one child per candidate program.

``sandbox.Launcher`` starts this file as ``<interpreter> _launcher.py <fd>``,
where ``<fd>`` is this process's end of an ``AF_UNIX`` ``SOCK_SEQPACKET``
socket pair. One message per packet:

* the launcher sends ``ready`` once its imports are done;
* a request is a JSON object ``{"script", "env", "memory_bytes"}`` sent with
  two file descriptors, the candidate's stdout and stderr;
* for each request the launcher replies with the child's pid, then, once the
  child has exited, its exit code (negative for a signal), both in ASCII.

An empty read (the engine closed its end) ends the launcher. The child runs
the script as ``python <script>`` would, in a session of its own, under the
address-space limit, and inherits the modules imported here. None of them
holds random state (``random`` is not imported), so every child seeds its
own generators. Stdlib only, and single-threaded, since it forks.
"""

import gc
import json  # also preloaded for candidates
import os
import resource
import signal
import socket
import sys


def serve(sock: socket.socket) -> str | None:
    """Fork a child per request: the child gets its script path, the launcher None at EOF."""
    sock.send(b"ready")
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 2)
        if not msg:
            return None
        request = json.loads(msg)
        pid = os.fork()
        if pid == 0:
            sock.close()
            enter_child(request, *fds)
            return request["script"]
        for fd in fds:
            os.close(fd)
        sock.send(b"%d" % pid)
        _, status = os.waitpid(pid, 0)
        try:  # whatever the candidate left running in its group
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        sock.send(b"%d" % os.waitstatus_to_exitcode(status))


def enter_child(request: dict, stdout: int, stderr: int) -> None:
    """Give the forked child the candidate's logs, session, limit, directory and env."""
    os.dup2(stdout, 1)
    os.dup2(stderr, 2)
    os.close(stdout)
    os.close(stderr)
    os.setsid()
    limit = request["memory_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    os.chdir(os.path.dirname(request["script"]))
    os.environ.update(request["env"])


def run_main(script: str) -> int:
    """Run ``script`` as the ``__main__`` module, as ``python <script>`` does.

    Returns 0, or 1 after printing an uncaught exception without this file's
    frame; ``SystemExit`` propagates unchanged.
    """
    main = type(sys)("__main__")
    main.__dict__.update(
        __annotations__={},
        __builtins__=__builtins__,
        __cached__=None,
        __file__=script,
        __loader__=type(__loader__)("__main__", script),
    )
    sys.modules["__main__"] = main
    sys.argv = [script]
    sys.path[0] = os.path.dirname(os.path.realpath(script))
    try:
        with open(script, "rb") as fh:
            code = compile(fh.read(), script, "exec", dont_inherit=True)
        exec(code, main.__dict__)
    except SystemExit:
        raise
    except BaseException as exc:
        exc = exc.with_traceback(exc.__traceback__.tb_next)
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return 1
    return 0


if __name__ == "__main__":
    # Frozen objects stay out of each child's collections, including the one
    # at exit, which would otherwise copy most of the inherited heap.
    gc.freeze()
    script = serve(socket.socket(fileno=int(sys.argv[1])))
    if script is not None:
        # Exit through normal shutdown: threads are joined, atexit runs, buffers flush.
        sys.exit(run_main(script))

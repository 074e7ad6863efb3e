"""Warm launcher: forks one child per candidate program.

``sandbox.Launcher`` starts this file as ``<interpreter> _launcher.py <fd>``,
where ``<fd>`` is this process's end of an ``AF_UNIX`` ``SOCK_SEQPACKET``
socket pair. One message per packet:

* the launcher sends ``ready`` once its imports are done;
* a request is a JSON object ``{"script", "env", "memory_bytes"}`` sent with
  two file descriptors, the candidate's stdout and stderr;
* for each request the launcher replies with the child's pid, then, once the
  child has exited, its exit code (negative for a signal), both in ASCII.

An empty read (the engine closed its end) ends the launcher. Before it
serves, the launcher compiles its own source once, so each child inherits a
parser and compiler that have already run. The child runs the script as
``python <script>`` would, in a session of its own, under the address-space
and file-size limits, and inherits the modules imported here. None of them
holds random state (``random`` is not imported), so every child seeds its
own generators. Stdlib only, and single-threaded (``threading`` is not
imported either), since it forks.

The child exits through ``finish``, which follows CPython's shutdown up to
the interpreter teardown and then calls ``os._exit``. The one difference
from ``python <script>``: objects that a module other than ``__main__``
still holds are not finalised at exit.
"""

import atexit
import gc
import json  # also preloaded for candidates
import os
import resource
import signal
import socket
import sys

# Largest file a candidate may write, in bytes: its artifact and both logs.
# Writing past it raises SIGXFSZ, which the child does not ignore as Python
# does, so the candidate ends there.
FILE_SIZE_LIMIT = 32 << 20


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
    """Give the forked child the candidate's logs, session, limits, directory and env."""
    os.dup2(stdout, 1)
    os.dup2(stderr, 2)
    os.close(stdout)
    os.close(stderr)
    os.setsid()
    limit = request["memory_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))
    signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
    os.chdir(os.path.dirname(request["script"]))
    os.environ.update(request["env"])


def run_main(script: str) -> int:
    """Run ``script`` as the ``__main__`` module, as ``python <script>`` does.

    Returns the exit status python would give: 1 after printing an uncaught
    exception without this file's frame, and for ``SystemExit`` what CPython's
    ``handle_system_exit`` gives: 0 for ``None``, an int's low byte (all that
    an exit status keeps), and 1 after printing anything else to stderr.
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
    except SystemExit as exc:
        if exc.code is None:
            return 0
        if isinstance(exc.code, int):
            return exc.code & 0xFF
        print(exc.code, file=sys.stderr)
        return 1
    except BaseException as exc:
        exc = exc.with_traceback(exc.__traceback__.tb_next)
        sys.excepthook(type(exc), exc, exc.__traceback__)
        return 1
    return 0


def finish(code: int) -> None:
    """Exit with ``code`` as CPython's shutdown would, without the teardown.

    Teardown would copy most of the inherited heap. Instead: join non-daemon
    threads, run atexit callbacks, finalise what ``__main__`` holds (clearing
    its dict in insertion order, as freeing the module does), collect cycles,
    and flush the standard streams, originals included; a failed flush exits
    120. Objects that other modules still hold are not finalised.
    """
    threading = sys.modules.get("threading")
    if threading is not None:
        threading._shutdown()
    atexit._run_exitfuncs()
    sys.modules["__main__"].__dict__.clear()
    gc.collect()
    for stream in (sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__):
        try:
            if stream is not None and not getattr(stream, "closed", False):
                stream.flush()
        except Exception as exc:
            if stream is sys.stdout:  # CPython reports this one, not the others
                # CPython 3.13 names the stream; earlier versions show the object.
                where = "on flushing sys.stdout:" if sys.version_info >= (3, 13) else f"in: {stream!r}"
                print(f"Exception ignored {where}", file=sys.stderr)
                exc = exc.with_traceback(exc.__traceback__.tb_next)
                sys.excepthook(type(exc), exc, exc.__traceback__)
            code = 120
    os._exit(code)


if __name__ == "__main__":
    # Each child inherits a parser and compiler that have already run once.
    with open(__file__, "rb") as fh:
        compile(fh.read(), __file__, "exec", dont_inherit=True)
    # Frozen objects stay out of each child's collections, including the one
    # at exit, which would otherwise copy most of the inherited heap.
    gc.freeze()
    script = serve(socket.socket(fileno=int(sys.argv[1])))
    if script is not None:
        finish(run_main(script))

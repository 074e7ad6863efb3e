"""Warm launcher: forks one child per candidate program.

``sandbox.Launcher`` starts this file as ``<interpreter> _launcher.py <fd>``,
where ``<fd>`` is this process's end of an ``AF_UNIX`` ``SOCK_SEQPACKET``
socket pair, with the launcher's work directory as its working directory,
the artifact path in its environment, stdout on ``/dev/null`` and stderr on
a file the engine reads if the launcher is not ready. One message per packet:

* the launcher sends ``ready`` once its imports are done;
* a request is a JSON object ``{"script", "memory_bytes", "cpu_seconds"}``
  sent with two file descriptors, the candidate's stdout and stderr;
* for each request the child sends its own pid before it runs any of the
  candidate's code, and the launcher sends the child's exit code (negative
  for a signal) once the child has exited, both in ASCII.

An empty read (the engine closed its end, or died) ends the launcher, which
then removes its working directory, wherever a candidate may have moved it,
and exits through ``os._exit`` without interpreter teardown.
Before it serves, the launcher compiles its own source once and sets
``SIGXFSZ`` back to its default, so each child inherits a parser and
compiler that have already run, the work directory, the environment and
that signal disposition. The child runs the script as ``python <script>``
would, in a session of its own, under the address-space, CPU-time and
file-size limits, and inherits the modules imported here. The CPU-time
limit is the engine's backstop: only a candidate that outlives the engine's
wall-clock deadline, because the engine died, can reach it. None of the
imported modules holds random state (``random`` is not imported), so every
child seeds its own generators. Stdlib only, and single-threaded
(``threading`` is not imported either), since it forks.

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
# Writing past it raises SIGXFSZ, which the launcher sets back to its default
# for its children (Python ignores it), so the candidate ends there.
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
            # The pid leads its own group before it is reported, and is
            # reported before anything that can fail and before any
            # candidate code runs, so the engine can always end the group,
            # even if the candidate stops the launcher.
            os.setsid()
            sock.send(b"%d" % os.getpid())
            sock.close()
            enter_child(request, *fds)
            return request["script"]
        for fd in fds:
            os.close(fd)
        _, status = os.waitpid(pid, 0)
        try:  # whatever the candidate left running in its group
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        sock.send(b"%d" % os.waitstatus_to_exitcode(status))


def enter_child(request: dict, stdout: int, stderr: int) -> None:
    """Give the forked child the candidate's logs and limits."""
    os.dup2(stdout, 1)
    os.dup2(stderr, 2)
    os.close(stdout)
    os.close(stderr)
    limit = request["memory_bytes"]
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    cpu = request["cpu_seconds"]
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu))
    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))


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


def remove_workdir() -> None:
    """Remove the working directory, wherever a candidate may have moved it.

    It holds at most the script once the engine has emptied it; anything
    else a candidate left there takes ``shutil.rmtree``.
    """
    try:
        workdir = os.getcwd()
    except FileNotFoundError:  # a candidate removed it
        return
    try:
        os.unlink("candidate.py")
    except OSError:  # never written, or no longer a file
        pass
    try:
        os.rmdir(workdir)
    except OSError:
        import shutil  # only here, after the last fork, so no candidate sees it

        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    # Each child inherits a parser and compiler that have already run once.
    with open(__file__, "rb") as fh:
        compile(fh.read(), __file__, "exec", dont_inherit=True)
    # Frozen objects stay out of each child's collections, including the one
    # at exit, which would otherwise copy most of the inherited heap.
    gc.freeze()
    signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
    try:
        script = serve(socket.socket(fileno=int(sys.argv[1])))
    except ConnectionError:  # the engine died while a child ran
        script = None
    if script is not None:
        finish(run_main(script))
    remove_workdir()
    # Stdout is /dev/null, stderr is the engine's and every child is reaped:
    # nothing is left for the interpreter's teardown to flush or wait for.
    os._exit(0)

"""Warm launcher: forks one child per candidate program.

``sandbox.Launcher`` starts this file as
``<interpreter> _launcher.py <fd> <script> <memory_bytes> <backstop>``:
its end of an ``AF_UNIX`` ``SOCK_SEQPACKET`` socket pair, the script every
child runs, and each child's address-space limit in bytes and backstop in
seconds. Its working directory is the launcher's work directory, its
environment holds the artifact path and ``PYTHONHASHSEED``, its stdout is
``/dev/null`` and its stderr a file the engine reads if the launcher is not
ready. One message per packet:

* the launcher sends ``ready`` once its imports are done;
* a request is any non-empty packet, which is not parsed, with two file
  descriptors: the candidate's stdout and stderr;
* for each request the child sends its own pid before it runs any of the
  candidate's code, and the launcher sends the child's exit code (negative
  for a signal) once the child has exited, both in ASCII.

An empty read (the engine closed its end, or died) ends the launcher, which
then removes its working directory, wherever a candidate may have moved it,
and exits through ``os._exit`` without interpreter teardown. It removes
through ``empty_dir``, as the engine does after each candidate and at
close: that never recurses, so a tree of any depth that a candidate leaves
goes.
Before it serves, the launcher exits if the interpreter ignores the
environment (``-E``, ``-I``), and with it ``PYTHONHASHSEED``. It then does
once what every child would do alike: it sets ``sys.argv``, builds the
``__main__`` loader, resolves the script's real directory, sets the
file-size limit on itself and ``SIGXFSZ`` back to its default, and
compiles an empty source, which warms the parser and compiler: without it
a child took about 475 minor faults instead of 365, and about 2 ms more
CPU (375 after a compile of this whole file, which costs 4.0 ms, not 1.9).
Last, it exits if ``memory_bytes`` is not above its own address space
(``/proc/self/statm``): a child inherits that space and the address-space
limit counts it, so such a limit would stop nothing the child does not
map anew. Without ``/proc`` it makes no such check.
Each child inherits all of that, the work directory and the environment,
and runs the script as ``python <script>`` would, in a session of its own,
under the address-space limit and with ``SIGALRM`` at its default, both set
by the child itself, and inherits the modules imported here. The backstop
is a timer armed at each fork and disarmed at the reaping: its ``SIGALRM``
kills the child's group. The engine's deadline comes first, so only the
candidate of a dead or stalled engine meets it.
None of the imported modules holds random state (``random`` is not
imported), so every child seeds its own generators. Stdlib only, and
single-threaded (``threading`` is not imported either), since it forks.

The child exits through ``finish``, which follows CPython's shutdown up to
the interpreter teardown and then calls ``os._exit``. The one difference
from ``python <script>``: objects that a module other than ``__main__``
still holds are not finalised at exit.
"""

import atexit
import gc
import json  # preloaded for candidates
import os
import resource
import signal
import socket
import stat  # imported by ``os`` already
import sys

# Largest file a candidate may write, in bytes: its artifact and both logs.
# Writing past it raises SIGXFSZ, which the launcher sets back to its default
# for its children (Python ignores it), so the candidate ends there.
FILE_SIZE_LIMIT = 32 << 20


def serve(sock: socket.socket, memory_bytes: int, backstop: float) -> bool:
    """Fork a child per request: True in the child, False in the launcher at EOF."""
    sock.send(b"ready")
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 16, 2)
        if not msg:
            return False
        pid = os.fork()
        if pid == 0:
            # The pid leads its own group before it is reported, and is
            # reported before anything that can fail and before any
            # candidate code runs, so the engine can always end the group,
            # even if the candidate stops the launcher.
            os.setsid()
            sock.send(b"%d" % os.getpid())
            sock.close()
            enter_child(*fds, memory_bytes)
            return True
        for fd in fds:
            os.close(fd)
        signal.signal(signal.SIGALRM, lambda signum, frame: kill_group(pid))
        signal.setitimer(signal.ITIMER_REAL, backstop)
        _, status = os.waitpid(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        kill_group(pid)  # whatever the candidate left running in its group
        sock.send(b"%d" % os.waitstatus_to_exitcode(status))


def kill_group(pid: int) -> None:
    """Kill the process group that the candidate ``pid`` leads, if any of it is left."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def enter_child(stdout: int, stderr: int, memory_bytes: int) -> None:
    """Give the forked child the candidate's logs and memory limit, and ``SIGALRM``'s default."""
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    os.dup2(stdout, 1)
    os.dup2(stderr, 2)
    os.close(stdout)
    os.close(stderr)
    resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))


def address_space():
    """This process's address space in bytes, from ``/proc/self/statm``; None without ``/proc``."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[0])
    except OSError:
        return None
    return pages * resource.getpagesize()


def run_main(loader, directory: str) -> int:
    """Run ``loader``'s script as ``__main__`` from its real ``directory``, as ``python <script>`` does.

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
        __file__=loader.path,
        __loader__=loader,
    )
    sys.modules["__main__"] = main
    sys.path[0] = directory
    try:
        with open(loader.path, "rb") as fh:
            code = compile(fh.read(), loader.path, "exec", dont_inherit=True)
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


def empty_dir(fd: int, keep: str = "") -> None:
    """Remove every entry of the directory open at ``fd`` but ``keep``, if that
    is a regular file with one link that its owner may write.

    It follows no symlink, never recurses and holds at most three
    descriptors of its own, reading entries as it goes. A subdirectory is
    emptied by renaming its entries up into this directory under unused
    names, then removed; passes repeat until one finds no subdirectory, so a
    candidate's tree of any depth goes. An ``OSError`` leaves the rest in
    place.
    """
    lifted, found = 0, True
    while found:
        found = False
        with os.scandir(fd) as entries:
            for entry in entries:
                if not entry.is_dir(follow_symlinks=False):
                    if entry.name == keep:
                        info = entry.stat(follow_symlinks=False)
                        if stat.S_ISREG(info.st_mode) and info.st_nlink == 1 and info.st_mode & stat.S_IWUSR:
                            continue
                    os.unlink(entry.name, dir_fd=fd)
                    continue
                found = True
                sub = os.open(entry.name, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW, dir_fd=fd)
                try:
                    with os.scandir(sub) as inner:
                        for child in inner:
                            while os.access(f".{lifted}", os.F_OK, dir_fd=fd, follow_symlinks=False):
                                lifted += 1
                            os.rename(child.name, f".{lifted}", src_dir_fd=sub, dst_dir_fd=fd)
                finally:
                    os.close(sub)
                os.rmdir(entry.name, dir_fd=fd)


def remove_workdir(path: str) -> None:
    """Remove the work directory at ``path`` and all it holds, or whatever
    a candidate left in its place; errors are ignored."""
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY | os.O_NOFOLLOW)
    except OSError:  # gone, or not a directory, such as a symlink a candidate left in its place
        try:
            os.unlink(path)
        except OSError:
            pass
        return
    try:
        empty_dir(fd)
        os.rmdir(path)
    except OSError:
        pass
    finally:
        os.close(fd)


if __name__ == "__main__":
    fd, script, memory_bytes, backstop = sys.argv[1:]
    if sys.flags.ignore_environment:
        sys.exit("the interpreter ignores the environment (-E or -I), so PYTHONHASHSEED cannot seed the candidates")
    sys.argv = [script]
    loader = type(__loader__)("__main__", script)
    directory = os.path.dirname(os.path.realpath(script))
    resource.setrlimit(resource.RLIMIT_FSIZE, (FILE_SIZE_LIMIT, FILE_SIZE_LIMIT))
    compile("", "<warm-up>", "exec", dont_inherit=True)
    # Frozen objects stay out of each child's collections, including the one
    # at exit, which would otherwise copy most of the inherited heap.
    gc.freeze()
    signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
    size = address_space()
    if size is not None and int(memory_bytes) <= size:
        sys.exit(
            f"memory_bytes {memory_bytes} is not above the launcher's address space"
            f" of {size} bytes, which every candidate inherits"
        )
    try:
        child = serve(socket.socket(fileno=int(fd)), int(memory_bytes), float(backstop))
    except ConnectionError:  # the engine died while a child ran
        child = False
    if child:
        finish(run_main(loader, directory))
    try:
        remove_workdir(os.getcwd())  # wherever a candidate may have moved it
    except OSError:  # ``getcwd`` failed: a candidate removed it
        pass
    # Stdout is /dev/null, stderr is the engine's and every child is reaped:
    # nothing is left for the interpreter's teardown to flush or wait for.
    os._exit(0)

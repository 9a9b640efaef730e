"""Independent parts of a fit, run in forked worker processes.

map_parts(fn, parts) splits parts into contiguous chunks, one per usable
CPU and never more chunks than parts. fn takes a chunk and returns one
result per part. Chunk 0 runs in the caller; every other chunk runs in a
forked child, which sends its results back as a pickle through a pipe and
ends with os._exit. Where fork is missing, or other Python threads are
alive (forking them is unsafe), every chunk runs in the caller.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading

from .errors import RefdocError


def usable_cpus():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_parts(fn, parts):
    """fn applied to chunks of parts; the results, in part order.

    A child's exception is raised here as the same type; a child that
    ends without an answer raises RefdocError. On any exception here,
    every child still running is killed and reaped before it propagates.
    """
    parts = list(parts)
    n = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        n = max(1, min(len(parts), usable_cpus()))
    bounds = [len(parts) * i // n for i in range(n + 1)]
    chunks = [parts[a:b] for a, b in zip(bounds, bounds[1:])]
    pending = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for chunk in chunks[1:]:
            pid, fd = _fork(fn, chunk)
            pending[pid] = fd
        results = list(fn(chunks[0]))
        for pid in list(pending):
            results += _answer(pid, pending)
    finally:
        for pid, fd in pending.items():
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)
    return results


def _fork(fn, chunk):
    """Start a child that writes the pickle of fn(chunk), or of the
    exception it raised, to a pipe; returns (pid, read end)."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload = pickle.dumps(list(fn(chunk)))
            except BaseException as exc:
                payload = _pickled_error(exc)
            with open(w, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _pickled_error(exc):
    try:
        payload = pickle.dumps(exc)
        pickle.loads(payload)  # some exception types cannot be rebuilt
    except Exception:
        payload = pickle.dumps(RefdocError(f"worker failed: {exc!r}"))
    return payload


def _answer(pid, pending):
    """Read child pid's pickle to the end of its pipe, reap the child, and
    return its results or raise its exception."""
    blocks = []
    while block := os.read(pending[pid], 1 << 20):
        blocks.append(block)
    status = os.waitpid(pid, 0)[1]
    os.close(pending.pop(pid))
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RefdocError(f"worker process {pid} ended without an answer "
                          f"(exit status {code})")
    answer = pickle.loads(b"".join(blocks))
    if isinstance(answer, BaseException):
        raise answer
    return answer

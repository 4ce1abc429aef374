"""The process's one forked twin.

`alternate(fn, items)` is `[fn(x) for x in items]` on two processes: the
odd-indexed items run in a child made by `os.fork`, the even-indexed
ones in the caller. Each item runs whole in one process, and the results
come back in item order, so the bytes do not depend on which process ran
an item or on the core count. The split is fixed; fewer than two items
run inline.

A fork, not a spawned worker: the child shares the caller's arrays
copy-on-write and starts no interpreter, which is what makes a split of
a few hundred milliseconds pay. `alternate` is not called while a
`_helper.beside` task runs; `_helper` makes a new executor in the child.
The child sends its results, or the first exception of its half, pickled
through a pipe, and leaves only through `os._exit`, so it flushes no
buffer of the caller's and runs no exit handler. The caller closes its
end of the pipe and reaps the child before it returns or raises.
"""

from __future__ import annotations

import os
import pickle


def _run(fn, items) -> tuple[list, Exception | None]:
    """fn over items, up to the first exception."""
    results = []
    for x in items:
        try:
            results.append(fn(x))
        except Exception as exc:
            return results, exc
    return results, None


def alternate(fn, items) -> list:
    """[fn(x) for x in items], with the odd-indexed items run in a forked
    child. The first exception in item order is raised, whichever
    process raised it; a child that ends without sending its results
    raises ChildProcessError naming its exit status."""
    items = list(items)
    if len(items) < 2:
        return [fn(x) for x in items]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            # a child that kept a read end would block on a full pipe
            # after the caller closed its own
            os.close(read_fd)
            data = pickle.dumps(_run(fn, items[1::2]),
                                pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            halves = [_run(fn, items[0::2])]
            data = pipe.read()
    finally:
        _, wait_status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(wait_status)
    if code != 0:
        raise ChildProcessError(f"child process {pid} ended with status "
                                f"{code} before it sent its results")
    halves.append(pickle.loads(data))
    # the first failed item of a half is the one after its results
    errors = [(2 * len(results) + side, exc)
              for side, (results, exc) in enumerate(halves)
              if exc is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    out = [None] * len(items)
    out[0::2], out[1::2] = halves[0][0], halves[1][0]
    return out

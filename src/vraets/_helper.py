"""The process's one helper thread.

`vrae.backward` and `projection.tsne` run work that releases the GIL on
one single-worker executor, reached only through `beside`. A task is
joined before its caller returns or raises, which `beside` does by
construction. It calls nothing in `vraebench/spans.py::PATCHES`, so
every traced span runs on the calling thread. It allocates no large
buffer: callers make them on their own thread, so that the helper's
malloc arena keeps none. No thread starts at import: the executor
starts its thread on the first task.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


def _new_executor() -> None:
    # a forked child inherits the executor but not its thread
    global _executor
    _executor = ThreadPoolExecutor(max_workers=1,
                                   thread_name_prefix="vraets-helper")


_new_executor()
os.register_at_fork(after_in_child=_new_executor)


@contextmanager
def beside(fn, *args):
    """Runs fn(*args) on the helper thread, after the tasks before it,
    while the `with` block runs on the calling thread, and leaves only
    after fn has ended. The block's exception wins over fn's."""
    future = _executor.submit(fn, *args)
    try:
        yield
    except BaseException:
        future.exception()              # waits for fn to end
        raise
    future.result()

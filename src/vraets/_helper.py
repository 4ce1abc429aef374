"""The process's one helper thread.

`vrae.backward` and `projection.tsne` hand work that releases the GIL to
one single-worker executor, shared by every caller in the process. Each
caller waits for every future it submits before it returns or raises,
and the helper runs nothing that the benchmark's tracer patches. No
thread starts at import: the executor starts its thread on the first
submit.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ThreadPoolExecutor


def _new_executor() -> None:
    # a forked child inherits the executor but not its thread
    global _executor
    _executor = ThreadPoolExecutor(max_workers=1,
                                   thread_name_prefix="vraets-helper")


_new_executor()
os.register_at_fork(after_in_child=_new_executor)


def submit(fn, *args) -> Future:
    """Runs fn(*args) on the helper thread, after the tasks before it."""
    return _executor.submit(fn, *args)

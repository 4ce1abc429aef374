"""`_twin.alternate`: a list comprehension on two processes. Its results
are in item order, the first error in item order wins whichever process
raised it, a child that dies is named by its exit status, and the
caller never hangs on the child. The leaked-child guard in conftest.py
checks after each case that the child was reaped. A structure check
keeps `os.fork`, `os._exit` and pickle inside `_twin`."""

import ast
import os
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vraets import _twin
from vraets.errors import DataError, NumericalError

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "vraets")


@contextmanager
def deadline(seconds):
    """Fails the block if it runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _square_and_pid(x):
    return x * x, os.getpid()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 8])
def test_results_equal_a_list_comprehension(n):
    with deadline(30):
        got = _twin.alternate(_square_and_pid, range(n))
    assert [r for r, _ in got] == [x * x for x in range(n)]
    # the even items ran here, and from two items on the odd ones did not
    pids = [p for _, p in got]
    assert all(p == os.getpid() for p in pids[0::2])
    assert all(p != os.getpid() for p in pids[1::2])


def test_arrays_come_back_bit_equal():
    rng = np.random.default_rng(0)
    items = [rng.standard_normal((50, 7)) for _ in range(5)]
    with deadline(30):
        got = _twin.alternate(np.tanh, items)
    for x, y in zip(items, got):
        assert y.tobytes() == np.tanh(x).tobytes()


def _raise_at(errors):
    def fn(x):
        if x in errors:
            raise errors[x]
        return x
    return fn


@pytest.mark.parametrize("errors, first", [
    ({1: DataError("odd one")}, 1),
    ({2: NumericalError("even two")}, 2),
    ({1: DataError("child first"), 2: KeyError("parent later")}, 1),
    ({0: ValueError("parent first"), 3: DataError("child later")}, 0),
    ({5: OSError(2, "child", "f.csv"), 6: DataError("parent after")}, 5),
], ids=["child", "parent", "child-before-parent", "parent-before-child",
        "oserror"])
def test_first_error_in_item_order_wins(errors, first):
    with deadline(30):
        with pytest.raises(type(errors[first])) as info:
            _twin.alternate(_raise_at(errors), range(8))
    assert str(info.value) == str(errors[first])


def test_child_that_exits_without_results_names_its_status():
    def fn(x):
        if x % 2:
            os._exit(7)
        return x

    with deadline(30):
        with pytest.raises(ChildProcessError, match="status 7"):
            _twin.alternate(fn, range(4))


def test_interrupted_parent_returns_while_the_child_is_blocked_on_the_pipe():
    # the child's 1 MiB fills the pipe; the caller must close its end
    # before it waits, or both wait forever
    def fn(x):
        if x == 0:
            time.sleep(0.2)
            raise KeyboardInterrupt
        return b"x" * (1 << 20)

    with deadline(10):
        with pytest.raises(KeyboardInterrupt):
            _twin.alternate(fn, range(2))


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_only_twin_forks_exits_or_pickles():
    for name, tree in _modules():
        imported, os_attrs = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
                if node.module == "os":
                    os_attrs |= {a.name for a in node.names}
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                os_attrs.add(node.attr)
        if name == "_twin.py":
            public = [n.name for n in tree.body
                      if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                      and not n.name.startswith("_")]
            assert public == ["alternate"]
            continue
        assert "pickle" not in imported, name
        assert not os_attrs & {"fork", "_exit"}, name

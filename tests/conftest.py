"""Checks shared by every test."""

import json
import os

import pytest

from vraets import artifacts


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test that leaves a child process unreaped: the pipeline's
    forked child (`vraets._twin`) must be waited for on every path."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process "
                + (f"{pid} unreaped" if pid else "running"))


def _save_loose(path, kind, meta, arrays):
    """save_artifact's layout with the header JSON that json.loads reads:
    the writer refuses NaN and Infinity, but a reader can still meet
    them in a file made elsewhere."""
    header = {"magic": "vraets-artifact",
              "format_version": artifacts.FORMAT_VERSION, "kind": kind,
              "meta": meta,
              "arrays": [{"name": name, "dtype": arr.dtype.str,
                          "shape": list(arr.shape)}
                         for name, arr in arrays.items()]}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for arr in arrays.values():
            fh.write(arr.tobytes())


@pytest.fixture(scope="session")
def save_loose():
    """Writes an artifact whose metadata may hold NaN or Infinity, as
    save_loose(path, kind, meta, arrays) with load_artifact's arrays."""
    return _save_loose

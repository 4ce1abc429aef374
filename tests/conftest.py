"""Checks shared by every test."""

import os

import pytest


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

"""The helper thread's one entry point, `_helper.beside`: it leaves only
after its task has ended, the block's exception wins over the task's,
and tasks run in the order they were queued. A structure check keeps
every other module off the executor."""

import ast
import os
import threading
import time

import pytest

from vraets import _helper

PACKAGE = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                       "vraets")


def test_raising_block_leaves_after_its_task_with_its_own_exception():
    ended = threading.Event()

    def task():
        time.sleep(0.2)
        ended.set()
        raise ValueError("task")

    with pytest.raises(KeyError, match="block"):
        with _helper.beside(task):
            raise KeyError("block")
    assert ended.is_set()


def test_task_exception_is_raised_after_a_clean_block():
    ran = []

    def task():
        raise ValueError("task")

    with pytest.raises(ValueError, match="task"):
        with _helper.beside(task):
            ran.append("block")
    assert ran == ["block"]


def test_tasks_run_in_submission_order_on_one_thread():
    ran = []

    def task(i):
        time.sleep(0.01 * (3 - i))      # the first queued is the slowest
        ran.append((i, threading.current_thread()))

    with _helper.beside(task, 0):
        with _helper.beside(task, 1):
            with _helper.beside(task, 2):
                pass
    assert [i for i, _ in ran] == [0, 1, 2]
    threads = {t for _, t in ran}
    assert len(threads) == 1 and threading.main_thread() not in threads


def _modules():
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_only_helper_reaches_the_executor():
    # every caller goes through `beside`, which joins its task
    for name, tree in _modules():
        imported, names, helper_attrs = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if (isinstance(node.value, ast.Name)
                        and node.value.id == "_helper"):
                    helper_attrs.add(node.attr)
        if name == "_helper.py":
            public = [n.name for n in tree.body
                      if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                      and not n.name.startswith("_")]
            assert public == ["beside"]
            continue
        assert not imported & {"concurrent", "threading"}, name
        assert not names & {"_executor", "submit"}, name
        assert helper_attrs <= {"beside"}, name

import ast
import time
from pathlib import Path

import pytest

from kschur.reports import Check, Report, timed

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kschur"


def optimized_away(tree):
    """The nodes of a module that python -O changes: an assert, which it
    drops, and a read of __debug__ or sys.flags.optimize, which it flips."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node
        elif isinstance(node, ast.Attribute) and ast.unparse(node).endswith("flags.optimize"):
            yield node


def test_python_O_changes_nothing_under_the_package():
    # every identity check raises IdentityError, never asserts, so that it
    # also runs under python -O; this is the one proof of that
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "reports.py" in modules
    found = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in modules
        for node in optimized_away(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_timed_reports_what_run_returns_and_its_time():
    def run():
        time.sleep(0.01)
        return False, {"n": 1}

    check = timed("sleepy", run)
    assert isinstance(check, Check)
    assert (check.name, check.passed, check.details) == ("sleepy", False, {"n": 1})
    assert check.seconds >= 0.01


def test_timed_lets_an_exception_from_run_propagate():
    error = ValueError("broken sweep")

    def run():
        raise error

    with pytest.raises(ValueError) as caught:
        timed("broken", run)
    assert caught.value is error


def test_report_merged_keeps_order_and_failures_are_the_failed_checks():
    ok, bad, worse = Check("ok", True, 0.0), Check("bad", False, 0.0), Check("worse", False, 0.0)
    merged = Report((ok, bad)).merged(Report((worse,)))
    assert merged.checks == (ok, bad, worse)
    assert merged.failures() == [bad, worse]
    assert not merged.passed
    assert Report((ok,)).failures() == []

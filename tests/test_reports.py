import time

import pytest

from kschur.reports import Check, Report, timed


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

"""Tests that the output checker cannot pass vacuously, and that the
benchmark reports exactly the metrics BENCHMARK.json declares.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from check import Reply, digest, load_expected, request_problems, verify_failures  # noqa: E402
from run import ROOT, Pass, end_to_end, load_library, per_layer, quantile  # noqa: E402

EXPECTED = load_expected()


def serve_in_process(request: wl.Request) -> Reply:
    cli = load_library()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(request.argv) + ["--no-cache"])
    return Reply(code, out.getvalue(), "")


def test_correct_document_passes():
    request = wl.kschur_request(4, (2, 2, 2))
    assert request_problems(request, serve_in_process(request), EXPECTED) == []


def test_changed_coefficient_fails():
    request = wl.kschur_request(4, (2, 2, 2))
    doc = json.loads(serve_in_process(request).out)
    for term in doc["terms"]:
        if term["coeff"] == 1:
            term["coeff"] = 2
            break
    tampered = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert request_problems(request, Reply(0, tampered, ""), EXPECTED)


def test_changed_leading_coefficient_fails_the_certificate_alone():
    # replace the expected digest so only the certificate can object
    request = wl.kschur_request(4, (2, 2, 2))
    doc = json.loads(serve_in_process(request).out)
    doc["terms"] = [t for t in doc["terms"] if t["window"] != [-2, -1, 5, 6, 7]]
    tampered = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    expected = {**EXPECTED, "digests": {request.cmdline: digest(tampered)}}
    problems = request_problems(request, Reply(0, tampered, ""), expected)
    assert any("w(2, 2, 2)" in p for p in problems)


def test_wrong_side_output_fails():
    cmd = next(c for c, out in EXPECTED["outputs"].items() if c.startswith("lr") and out == "1\n")
    request = wl.Request("lr", tuple(cmd.split()))
    assert request_problems(request, Reply(0, "1\n", ""), EXPECTED) == []
    assert request_problems(request, Reply(0, "0\n", ""), EXPECTED)
    assert request_problems(request, Reply(None, "", "Traceback"), EXPECTED)


def report(failed_index=None) -> str:
    checks = [{"name": n, "passed": i != failed_index, "seconds": 0.001, "details": {}}
              for i, n in enumerate(EXPECTED["verify_names"])]
    return json.dumps({"passed": failed_index is None, "checks": checks})


def test_verify_report_passes():
    assert verify_failures(Reply(0, report(), ""), EXPECTED["verify_names"]) == (0, [])


def test_verify_report_with_one_failed_check_fails():
    failed, problems = verify_failures(Reply(1, report(failed_index=7), ""), EXPECTED["verify_names"])
    assert failed == 1 and problems


def test_verify_report_claiming_success_with_a_failed_check_fails():
    doc = json.loads(report(failed_index=7))
    doc["passed"] = True
    failed, problems = verify_failures(Reply(0, json.dumps(doc), ""), EXPECTED["verify_names"])
    assert failed == 1 and problems


def test_verify_report_missing_a_check_fails():
    doc = json.loads(report())
    del doc["checks"][-1]
    failed, problems = verify_failures(Reply(0, json.dumps(doc), ""), EXPECTED["verify_names"])
    assert failed == 1 and problems


def test_quantile_is_harrell_davis():
    # reference values from scipy.stats.mstats.hdquantiles; the midpoint
    # rule is least exact for few samples and a quantile near 0 or 1
    assert quantile([3, 1, 4, 1, 5, 9, 2, 6], 0.5) == pytest.approx(3.5117785973901396, rel=1e-6)
    assert quantile([3, 1, 4, 1, 5, 9, 2, 6], 0.9) == pytest.approx(7.997053190215588, rel=1e-4)
    assert quantile(range(1, 11), 0.9) == pytest.approx(9.435115176660437, rel=1e-4)
    assert quantile([7.0], 0.9) == 7.0


def test_metrics_are_scaled_to_the_reference_speed():
    run = Pass(latencies=[0.1, 0.2, 0.3], peak_rss_kb=1024)
    plain, scaled = end_to_end("rect", [run], [0.1]), end_to_end("rect", [run], [0.1], 0.5)
    for name in ("setup_s", "wall_s", "req_p50_ms", "req_p90_ms"):
        assert abs(scaled[name][0] - plain[name][0] / 2) < 1e-12
    assert abs(scaled["req_per_s"][0] - plain["req_per_s"][0] * 2) < 1e-9
    assert scaled["peak_rss_mb"] == plain["peak_rss_mb"]


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Pass(latencies=[0.1, 0.2, 0.3], check_seconds=[0.1, 0.2], peak_rss_kb=1024)
    for workload in wl.WORKLOADS:
        reported = {name: unit for name, (value, unit) in end_to_end(workload, [run], [0.1], 1.5).items()}
        assert reported == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    reported = {name: unit for name, (value, unit) in per_layer(run, run).items()}
    assert reported == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)

"""Checks of every benchmark output.

Expected outputs come from `expected.json`, written by
`make_expected.py` at a commit whose outputs were verified.  Documents
are compared by SHA-256 digest, so any byte change counts as a failure.
A `kschur` document must also carry its own certificate: the
coefficient on the Grassmannian element of every k-bounded partition nu
of the same size is 1 for nu = lambda and 0 otherwise.  The certificate
computes those windows here, independently of the library.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from workloads import Request, partitions

EXPECTED_FILE = Path(__file__).with_name("expected.json")


@dataclass(frozen=True)
class Reply:
    code: object  # exit code, or None when the request raised
    out: str
    err: str


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def grassmannian_window(lam: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Window of the product of s_i along the reading word of lam: the
    residues (col - row) mod (k+1) of its cells, rows from the last to
    the first, each row from right to left."""
    n = k + 1
    win = list(range(1, n + 1))
    for row in range(len(lam), 0, -1):
        for col in range(lam[row - 1], 0, -1):
            i = (col - row) % n
            if i == 0:
                win[0], win[n - 1] = win[n - 1] - n, win[0] + n
            else:
                win[i - 1], win[i] = win[i], win[i - 1]
    return tuple(win)


def certificate_problems(doc: dict, k: int, lam: tuple[int, ...]) -> list[str]:
    coeffs = {tuple(t["window"]): t["coeff"] for t in doc["terms"]}
    problems = []
    for nu in partitions(sum(lam), k):
        want = 1 if nu == lam else 0
        got = coeffs.get(grassmannian_window(nu, k), 0)
        if got != want:
            problems.append(f"coefficient {got} on w{nu}, expected {want}")
    return problems


def request_problems(request: Request, reply: Reply, expected: dict) -> list[str]:
    """Everything wrong with the reply to one kschur, lr, core or rect request."""
    if reply.code != 0:
        return [f"exit code {reply.code}: {reply.err.strip()[-500:]}"]
    cmd = request.cmdline
    if cmd in expected["outputs"]:
        if reply.out != expected["outputs"][cmd]:
            return [f"output {reply.out!r} != expected {expected['outputs'][cmd]!r}"]
        return []
    if cmd not in expected["digests"]:
        return ["no expected output for this request"]
    problems = []
    if digest(reply.out) != expected["digests"][cmd]:
        problems.append("document digest differs from the expected one")
    if request.kind == "kschur":
        try:
            doc = json.loads(reply.out)
            problems += certificate_problems(doc, request.k, request.lam)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable document: {exc}")
    return problems


def verify_failures(reply: Reply, expected_names: list[str]) -> tuple[int, list[str]]:
    """(failed checks, problems) of one verify report: a check fails when
    it is reported failed or missing; any other defect fails at least one."""
    if reply.code != 0:
        problems = [f"exit code {reply.code}"]
    else:
        problems = []
    try:
        report = json.loads(reply.out)
        checks = report["checks"]
        passed = {c["name"]: c["passed"] is True for c in checks}
    except (ValueError, KeyError, TypeError) as exc:
        return len(expected_names), problems + [f"unreadable report: {exc}"]
    failed = [name for name in expected_names if not passed.get(name, False)]
    if failed:
        problems.append(f"{len(failed)} checks failed or missing, first {failed[0]!r}")
    if [c["name"] for c in checks] != expected_names:
        problems.append("check names differ from the expected list")
    if report.get("passed") is not True:
        problems.append('report does not say "passed": true')
    return max(len(failed), 1 if problems else 0), problems


def check_seconds(reply: Reply) -> list[float]:
    """Per-check durations that a verify report records."""
    return [c["seconds"] for c in json.loads(reply.out)["checks"]]

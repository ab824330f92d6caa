"""Identity checks that must hold under python -O, where assert is gone.

Each script breaks one input of a check on purpose and runs in a fresh
interpreter, with and without -O; the check must report the failure
either way."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# h_2 s_(1) = s_(2,1) + s_(3) at k=3; with the solve of s_(3) returning
# zero the step leaves s_(2,1) + s_(3), which the certificate must reject
STRAY_TERM = """
from kschur import nilcoxeter
from kschur.reports import IdentityError

real = nilcoxeter._solve
nilcoxeter._solve = lambda k, lam: (
    nilcoxeter.AlgebraElement.zero(3) if (k, lam) == (3, (3,)) else real(k, lam)
)
try:
    nilcoxeter.kschur(3, (2, 1))
except IdentityError as exc:
    print("IdentityError:", exc)
"""

# the rectangle element replaced by the unit, which moves no core
UNIT_RECTANGLE = """
import json
from kschur import rectangles
from kschur.nilcoxeter import AlgebraElement

rectangles.by_readings = lambda rect: AlgebraElement.unit(rect.k)
print(json.dumps(rectangles.verify_main(rectangles.Rectangle(3, 2, 2)).to_dict()))
"""


# every contained partition given the empty reading word: the first term
# is the identity and the second repeats it
REPEATED_READING_WORD = """
from kschur import rectangles
from kschur.reports import IdentityError

rectangles._skew_reading_word = lambda shape, inner, k: ()
try:
    rectangles.by_readings(rectangles.Rectangle(3, 2, 2))
except IdentityError as exc:
    print("IdentityError:", exc)
"""


def run_python(flags, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_solve_rejects_term_after_lam(flags):
    assert run_python(flags, STRAY_TERM).startswith("IdentityError:")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_main_fails_broken_rectangle(flags):
    report = json.loads(run_python(flags, UNIT_RECTANGLE))
    assert report["passed"] is False
    (action,) = [c for c in report["checks"] if c["name"] == "single-term action k=3 cols=2 rows=2"]
    assert action["passed"] is False
    assert action["details"]["failures"]


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_by_readings_rejects_repeated_term(flags):
    assert run_python(flags, REPEATED_READING_WORD).startswith("IdentityError:")


# s_0 on (3,), which is not a 3-core, adds the cell (1, 4) and gives (4,)
NON_CORE = """
from kschur.cores import s_action
from kschur.reports import IdentityError

try:
    print(s_action((3,), 0, 2))
except IdentityError as exc:
    print("IdentityError:", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_s_action_rejects_non_core(flags):
    assert run_python(flags, NON_CORE).startswith("IdentityError:")

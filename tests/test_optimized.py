"""Faults whose check must fail loudly under any interpreter flag, run on
the package as imported and on a copy compiled as `python -O` compiles it.
The static test in test_reports.py proves -O changes nothing under the
package; these run the one identity check of the solve that only the
certificate of its result reaches."""

import pytest

from kschur import nilcoxeter
from kschur.reports import IdentityError


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_solve_rejects_term_after_lam(monkeypatch, compiled, flags):
    # h_2 s_1 = s_21 + s_3 at k=3; with the solve of s_3 faked to zero the
    # step subtracts nothing and leaves s_21 + s_3, which only the
    # certificate of the result can refuse
    module = compiled(nilcoxeter, flags)
    module.clear_memo()
    real = module._solve
    zero = module.AlgebraElement.zero(3)
    monkeypatch.setattr(
        module, "_solve", lambda k, lam: zero if (k, lam) == (3, (3,)) else real(k, lam)
    )
    excess = r"\(2, 1\) at k=3: coefficient minus delta on w_nu is \{\(3,\): 1\}"
    with pytest.raises(IdentityError, match=excess):
        module.kschur(3, (2, 1))
    monkeypatch.undo()  # a patched _solve has no cache_clear
    module.clear_memo()

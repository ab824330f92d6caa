"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each criterion prints a PASS line with its timing; run with -s to see
them, or execute this file directly for a standalone report.
"""

import random
import time

from kschur.affine import AffinePermutation
from kschur.alcoves import pseudo_translation
from kschur.cores import (
    bounded_to_core,
    k_bounded_partitions,
    partitions_in_box,
    skew_reading_word,
    u_action,
)
from kschur.nilcoxeter import (
    AlgebraElement,
    clear_memo,
    cyclically_decreasing_word,
    h,
    kschur,
    kschur_h_expansion,
    pieri_partitions,
)
from kschur.rectangles import (
    Rectangle,
    act_on_partition,
    all_rectangles,
    by_columns,
    by_readings,
    by_translations,
    by_windows,
    column_choice,
)
from kschur.reports import IdentityError

TEN_WORDS_K4 = [
    (4, 3, 0, 4, 1, 0),
    (2, 4, 3, 0, 4, 1),
    (3, 2, 4, 3, 0, 4),
    (1, 2, 4, 3, 0, 1),
    (1, 3, 2, 4, 3, 0),
    (0, 1, 2, 4, 0, 1),
    (2, 1, 3, 2, 4, 3),
    (0, 1, 3, 2, 4, 0),
    (0, 2, 1, 3, 2, 4),
    (1, 0, 2, 1, 3, 2),
]

WINDOW_TABLE_K4 = {
    (1, 2): (-2, -1, 5, 6, 7),
    (1, 3): (-2, 4, 0, 6, 7),
    (1, 4): (-2, 4, 5, 1, 7),
    (1, 5): (-2, 4, 5, 6, 2),
    (2, 3): (3, -1, 0, 6, 7),
    (2, 4): (3, -1, 5, 1, 7),
    (2, 5): (3, -1, 5, 6, 2),
    (3, 4): (3, 4, 0, 1, 7),
    (3, 5): (3, 4, 0, 6, 2),
    (4, 5): (3, 4, 5, 1, 2),
}

Z_TABLE_K4 = {
    (1, 1, 0, 0, 0): (4, 3, 0, 4, 1, 0),
    (1, 0, 1, 0, 0): (0, 1, 3, 2, 4, 0),
    (0, 1, 1, 0, 0): (0, 1, 2, 4, 0, 1),
    (1, 0, 0, 1, 0): (1, 3, 2, 4, 3, 0),
    (0, 1, 0, 1, 0): (1, 2, 4, 3, 0, 1),
    (0, 0, 1, 1, 0): (1, 0, 2, 1, 3, 2),
    (1, 0, 0, 0, 1): (3, 2, 4, 3, 0, 4),
    (0, 1, 0, 0, 1): (2, 4, 3, 0, 4, 1),
    (0, 0, 1, 0, 1): (0, 2, 1, 3, 2, 4),
    (0, 0, 0, 1, 1): (2, 1, 3, 2, 4, 3),
}


def _report(number, label, elapsed, budget):
    print(f"ACCEPTANCE {number:2d} PASS  {elapsed:7.3f}s (< {budget:g}s)  {label}")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.3f}s"


def binomial(n, t):
    out = 1
    for d in range(1, t + 1):
        out = out * (n - d + 1) // d
    return out


def test_criterion_1_rectangle_expansion():
    clear_memo()
    start = time.perf_counter()
    expected = AlgebraElement(
        4, [(AffinePermutation.from_word(4, word), 1) for word in TEN_WORDS_K4]
    )
    result = kschur(4, (2, 2, 2))
    assert result == expected
    assert len(result) == 10
    assert all(c == 1 for _, c in result.items())
    _report(1, "kschur(4, (2,2,2)) equals the ten listed words",
            time.perf_counter() - start, 1.0)


def test_criterion_2_h_expansion():
    clear_memo()
    start = time.perf_counter()
    assert kschur_h_expansion(4, (2, 2, 2)) == {
        (2, 2, 2): 1,
        (3, 2, 1): -2,
        (3, 3): 1,
        (4, 1, 1): 1,
        (4, 2): -1,
    }
    _report(2, "h-expansion of kschur(4, (2,2,2))", time.perf_counter() - start, 1.0)


def test_criterion_3_four_formula_equivalence():
    start = time.perf_counter()
    for k in range(1, 8):
        for rect in all_rectangles(k):
            x = by_readings(rect)
            assert x == by_translations(rect), rect
            assert x == by_columns(rect), rect
            assert x == by_windows(rect), rect
            assert len(x) == binomial(k + 1, rect.cols), rect
    _report(3, "four formulas agree for every rectangle, k+1 <= 8",
            time.perf_counter() - start, 10.0)


def test_criterion_4_main_theorem():
    clear_memo()
    start = time.perf_counter()
    for k in range(1, 6):
        for rect in all_rectangles(k):
            assert by_readings(rect) == kschur(k, rect.partition()), rect
    _report(4, "closed formula equals kschur for every rectangle, k <= 5",
            time.perf_counter() - start, 60.0)


def test_criterion_5_commutation():
    start = time.perf_counter()
    for k in range(1, 7):
        for rect in all_rectangles(k):
            element = by_readings(rect)
            for i in range(k + 1):
                lhs = element.times_generator(i, side="right")
                rhs = element.times_generator((i + rect.cols) % (k + 1), side="left")
                assert lhs == rhs, (rect, i)
    _report(5, "generator commutation across rectangles, k <= 6",
            time.perf_counter() - start, 30.0)


def test_criterion_6_core_action_ground_truth():
    start = time.perf_counter()
    nu = (6, 4, 3, 1)
    assert u_action(nu, 1, 4) == (7, 4, 4, 1, 1)
    assert u_action(nu, 3, 4) == (6, 5, 3, 2)
    for i in (0, 2, 4):
        assert u_action(nu, i, 4) is None
    _report(6, "nil action on the core (6,4,3,1) at k=4",
            time.perf_counter() - start, 30.0)


def test_criterion_7_window_ground_truth():
    start = time.perf_counter()
    rect = Rectangle(4, cols=2, rows=3)
    built = {w.window for w in by_windows(rect).support()}
    assert built == set(WINDOW_TABLE_K4.values())
    assert WINDOW_TABLE_K4[(1, 4)] == (-2, 4, 5, 1, 7)
    assert AffinePermutation.from_word(4, (2, 1, 3, 2, 4, 3)).window == (3, 4, 5, 1, 2)
    _report(7, "all ten direct windows at k=4", time.perf_counter() - start, 30.0)


def test_criterion_8_alcove_ground_truth():
    start = time.perf_counter()
    k2 = {
        (1, 0, 0): (2, 0),
        (0, 1, 0): (0, 1),
        (0, 0, 1): (1, 2),
    }
    for gamma, word in k2.items():
        assert pseudo_translation(gamma) == AffinePermutation.from_word(2, word)
    for gamma, word in Z_TABLE_K4.items():
        assert pseudo_translation(gamma) == AffinePermutation.from_word(4, word)
    _report(8, "pseudo-translations at k=2 and the ten at k=4",
            time.perf_counter() - start, 30.0)


def test_criterion_9_column_choice_ground_truth():
    start = time.perf_counter()
    assert column_choice(Rectangle(9, cols=4, rows=6), (4, 3, 2, 2, 1)) == (0, 2, 5, 7)
    for k in range(1, 8):
        for rect in all_rectangles(k):
            c, r = rect.cols, rect.rows
            for nu in partitions_in_box(c, r):
                reading = AffinePermutation.from_word(
                    k, skew_reading_word((c,) * r + nu, nu, k)
                )
                subset = column_choice(rect, nu)
                word = []
                for d in range(r):
                    word.extend(
                        cyclically_decreasing_word(
                            k, [(a + d) % (k + 1) for a in subset]
                        )
                    )
                assert reading == AffinePermutation.from_word(k, word), (rect, nu)
    _report(9, "column labels match reading words exhaustively, k+1 <= 8",
            time.perf_counter() - start, 30.0)


def test_criterion_10a_h_commutativity():
    start = time.perf_counter()
    for k in range(1, 6):
        hs = [h(k, i) for i in range(k + 1)]
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                assert hs[i] * hs[j] == hs[j] * hs[i], (k, i, j)
    _report(10, "h elements commute exactly, k <= 5",
            time.perf_counter() - start, 30.0)


def test_criterion_10b_pieri_identity():
    clear_memo()
    start = time.perf_counter()
    for k in range(1, 4):
        for n in range(6):
            for lam in k_bounded_partitions(n, k):
                for i in range(1, k + 1):
                    lhs = h(k, i) * kschur(k, lam)
                    rhs = AlgebraElement.zero(k)
                    for mu in pieri_partitions(k, lam, i):
                        rhs = rhs + kschur(k, mu)
                    assert lhs == rhs, (k, lam, i)
    _report(10, "Pieri identity, k <= 3 and |partition| <= 5",
            time.perf_counter() - start, 30.0)


def test_criterion_10c_single_term_action():
    start = time.perf_counter()
    for k in range(1, 5):
        for rect in all_rectangles(k):
            for n in range(7):
                for lam in k_bounded_partitions(n, k):
                    # raises unless one term survives, equal to the core of the union
                    act_on_partition(rect, lam)
    _report(10, "single-term action with the union core, k <= 4, size <= 6",
            time.perf_counter() - start, 30.0)


def test_criterion_10d_roundtrips():
    start = time.perf_counter()
    rng = random.Random(20260809)
    for _ in range(1000):
        k = rng.randint(1, 6)
        word = [rng.randrange(k + 1) for _ in range(rng.randrange(13))]
        w = AffinePermutation.from_word(k, word)
        reduced = w.reduced_word()
        assert AffinePermutation.from_word(k, reduced) == w
        assert len(reduced) == w.length()
        assert w.inverse().length() == w.length()
    _report(10, "window, word, length round-trips on 1000 random elements",
            time.perf_counter() - start, 30.0)


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_criterion"):
            try:
                fn()
            except (AssertionError, IdentityError) as exc:
                failures += 1
                print(f"FAIL {name}: {exc}")
    raise SystemExit(1 if failures else 0)

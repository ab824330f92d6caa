import random

import pytest

from kschur import rectangles
from kschur.affine import AffinePermutation
from kschur.alcoves import act_linear, gamma_vectors, pseudo_translation
from kschur.cores import bounded_to_core, conjugate, k_bounded_partitions, partitions_in_box
from kschur.documents import ExpansionDocument
from kschur.nilcoxeter import AlgebraElement, act_on_core, kschur
from kschur.rectangles import (
    Rectangle,
    act_on_partition,
    all_rectangles,
    by_columns,
    by_readings,
    by_translations,
    by_windows,
    column_choice,
    translation_weight,
    transpose_weight,
    verify_commutation,
    verify_equivalences,
    verify_main,
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

# direction -> word of the pseudo-translation, for k = 4
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

# column subset -> word of the shifted cyclically decreasing product, k = 4
V_TABLE_K4 = {
    (0, 1): (1, 0, 2, 1, 3, 2),
    (0, 2): (2, 0, 3, 1, 4, 2),
    (0, 3): (3, 0, 4, 1, 0, 2),
    (0, 4): (0, 4, 1, 0, 2, 1),
    (1, 2): (2, 1, 3, 2, 4, 3),
    (1, 3): (3, 1, 4, 2, 0, 3),
    (1, 4): (4, 1, 0, 2, 1, 3),
    (2, 3): (3, 2, 4, 3, 0, 4),
    (2, 4): (4, 2, 0, 3, 1, 4),
    (3, 4): (4, 3, 0, 4, 1, 0),
}

# chosen window positions -> window of the direct construction, k = 4
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


def element_from_words(k, words):
    return AlgebraElement(
        k, [(AffinePermutation.from_word(k, word), 1) for word in words]
    )


def binomial(n, t):
    out = 1
    for d in range(1, t + 1):
        out = out * (n - d + 1) // d
    return out


def test_rectangle_validation():
    Rectangle(4, cols=2, rows=3)
    with pytest.raises(ValueError):
        Rectangle(4, cols=2, rows=2)
    with pytest.raises(ValueError):
        Rectangle(4, cols=5, rows=0)
    assert Rectangle.with_rows(4, 3) == Rectangle(4, cols=2, rows=3)
    assert Rectangle(4, cols=2, rows=3).partition() == (2, 2, 2)
    assert Rectangle(4, cols=2, rows=3).transpose() == Rectangle(4, cols=3, rows=2)


@pytest.mark.parametrize(
    "k, cols, rows",
    [(True, 1, 1), (2.0, 1, 2.0), (0, 1, 0), (2, 1.0, 2), (2, 1, True), (2, 1, 2.0)],
)
def test_rectangle_rejects_a_bad_rank_or_side(k, cols, rows):
    # True and 2.0 compare equal to integers, so the types are checked
    with pytest.raises(ValueError):
        Rectangle(k, cols, rows)


def test_by_readings_k4():
    assert by_readings(Rectangle(4, cols=2, rows=3)) == element_from_words(
        4, TEN_WORDS_K4
    )


def test_by_readings_k1():
    # the two contained partitions of the 1x1 box give the two generators
    assert by_readings(Rectangle(1, cols=1, rows=1)) == element_from_words(
        1, [(0,), (1,)]
    )


def test_term_counts():
    for k in range(1, 8):
        for rect in all_rectangles(k):
            elem = by_readings(rect)
            assert len(elem) == binomial(k + 1, rect.cols)
            assert all(c == 1 for _, c in elem.items())
            assert all(w.length() == rect.cols * rect.rows for w, _ in elem.items())


def test_by_translations_table_k4():
    expected = {
        AffinePermutation.from_word(4, word): gamma
        for gamma, word in Z_TABLE_K4.items()
    }
    elem = by_translations(Rectangle(4, cols=2, rows=3))
    assert sorted(w.window for w in expected) == [w.window for w in elem.support()]
    for gamma, word in Z_TABLE_K4.items():
        assert pseudo_translation(gamma) == AffinePermutation.from_word(4, word)


def test_by_columns_table_k4():
    for subset, word in V_TABLE_K4.items():
        expected = AffinePermutation.from_word(4, word)
        built = AffinePermutation.identity(4)
        from kschur.nilcoxeter import cyclically_decreasing_word

        for d in range(3):
            shifted = [(a + d) % 5 for a in subset]
            for i in cyclically_decreasing_word(4, shifted):
                built = built.right_mult(i)
        assert built == expected
    assert by_columns(Rectangle(4, cols=2, rows=3)) == element_from_words(
        4, list(V_TABLE_K4.values())
    )


def test_by_windows_table_k4():
    elem = by_windows(Rectangle(4, cols=2, rows=3))
    expected = {AffinePermutation(4, window) for window in WINDOW_TABLE_K4.values()}
    assert set(elem.support()) == expected
    # spot check the arithmetic of one window
    assert WINDOW_TABLE_K4[(1, 4)] == (1 - 3, 2 + 2, 3 + 2, 4 - 3, 5 + 2)


def test_all_four_agree_small():
    for k in range(1, 6):
        for rect in all_rectangles(k):
            x = by_readings(rect)
            assert x == by_translations(rect)
            assert x == by_columns(rect)
            assert x == by_windows(rect)


REPEATED, DEAD = "repeats an earlier term", "the product is zero"


@pytest.mark.parametrize(
    "formula, source, fake, fault",
    [
        (by_readings, "_skew_reading_word", lambda shape, inner, k: (), REPEATED),
        (by_readings, "_skew_reading_word", lambda shape, inner, k: (1, 1), DEAD),
        (by_translations, "_pseudo_translation", lambda gamma: (AffinePermutation.identity(3), ()), REPEATED),
        (by_translations, "_pseudo_translation", lambda gamma: (None, ()), DEAD),
        (by_columns, "h_words", lambda k, c: ((), ()), REPEATED),
        (by_columns, "h_words", lambda k, c: ((1, 1),), DEAD),
        (by_windows, "gamma_vectors", lambda k, c: [gamma_vectors(k, c)[0]] * 2, REPEATED),
    ],
    ids=[
        "readings-repeated", "readings-dead", "translations-repeated", "translations-dead",
        "columns-repeated", "columns-dead", "windows-repeated",
    ],
)
def test_formula_rejects_repeated_or_dead_term(monkeypatch, formula, source, fake, fault):
    # each formula is a sum of distinct basis elements with coefficient
    # one: a term source that repeats an element or gives a zero product
    # must raise, not add up to a coefficient 2 or drop a term
    monkeypatch.setattr(rectangles, source, fake)
    with pytest.raises(IdentityError, match=fault):
        formula(Rectangle(3, 2, 2))


def test_translation_words_are_the_reduced_words():
    # by_translations keeps the word each walk peeled; the invariant of
    # AlgebraElement._words is that a kept word is the term's reduced_word()
    for k in range(1, 11):
        for rect in all_rectangles(k):
            element = by_translations(rect)
            kept = element._reduced  # seeded by the walk, not read yet
            assert [word for word, _ in kept] == [w.reduced_word() for w in element.support()], rect
            assert all(c == 1 for _, c in kept)


def test_str_reads_the_kept_words(monkeypatch):
    # by_translations keeps its walk words, so printing the element peels none
    rect = Rectangle(6, 3, 4)
    expected = str(by_translations(rect))

    def refuse(w):
        raise RuntimeError("reduced_word called")

    monkeypatch.setattr(AffinePermutation, "reduced_word", refuse)
    assert str(by_translations(rect)) == expected


def test_every_formula_gives_the_same_document():
    # from_element reads the kept words of the by_translations element and
    # peels the other three formulas' terms: the same document every time
    for k in range(1, 11):
        for rect in all_rectangles(k):
            texts = {
                ExpansionDocument.from_element(rect, formula(rect)).to_json()
                for formula in (by_readings, by_translations, by_columns, by_windows)
            }
            assert len(texts) == 1, rect


def test_column_choice_worked_example():
    rect = Rectangle(9, cols=4, rows=6)
    assert column_choice(rect, (4, 3, 2, 2, 1)) == (0, 2, 5, 7)


def test_column_choice_extremes():
    rect = Rectangle(4, cols=2, rows=3)
    assert column_choice(rect, ()) == (3, 4)
    assert column_choice(rect, (2, 2, 2)) == (0, 1)
    with pytest.raises(ValueError):
        column_choice(rect, (3,))
    # only a rectangle built past its checks reaches the residue check: at
    # k = 1 with cols = 3 the labels 0, 1, 0 collide mod 2
    forged = object.__new__(Rectangle)
    forged.__dict__.update(k=1, cols=3, rows=1)
    with pytest.raises(IdentityError, match="are not 3 distinct residues"):
        column_choice(forged, ())


def test_a_partition_with_more_rows_is_not_contained():
    # (1, 1, 1, 1) has every part within (2, 2, 2) but one row more
    rect = Rectangle(4, cols=2, rows=3)
    for read in (translation_weight, column_choice):
        with pytest.raises(ValueError, match="not contained"):
            read(rect, (1, 1, 1, 1))


def test_column_choice_matches_readings():
    # the reading-word term of each contained partition is the column
    # term of its subset
    from kschur.cores import skew_reading_word
    from kschur.nilcoxeter import cyclically_decreasing_word

    for k in range(1, 8):
        for rect in all_rectangles(k):
            c, r = rect.cols, rect.rows
            seen = set()
            for nu in partitions_in_box(c, r):
                subset = column_choice(rect, nu)
                assert subset not in seen
                seen.add(subset)
                outer = (c,) * r + nu
                reading = AffinePermutation.from_word(
                    k, skew_reading_word(outer, nu, k)
                )
                word = []
                for d in range(r):
                    word.extend(
                        cyclically_decreasing_word(k, [(a + d) % (k + 1) for a in subset])
                    )
                assert reading == AffinePermutation.from_word(k, word), (k, rect, nu)


def test_translation_weight_known():
    rect = Rectangle(4, cols=2, rows=3)
    assert translation_weight(rect, ()) == (1, 1, 0, 0, 0)
    assert translation_weight(rect, (2, 2, 2)) == (0, 0, 1, 1, 0)


def test_translation_weight_bijection():
    for k in range(1, 8):
        for rect in all_rectangles(k):
            images = {
                translation_weight(rect, nu)
                for nu in partitions_in_box(rect.cols, rect.rows)
            }
            assert images == set(gamma_vectors(k, rect.cols))


def test_translation_weight_matches_readings():
    from kschur.cores import skew_reading_word

    for k in range(1, 6):
        for rect in all_rectangles(k):
            c, r = rect.cols, rect.rows
            for nu in partitions_in_box(c, r):
                outer = (c,) * r + nu
                reading = AffinePermutation.from_word(
                    k, skew_reading_word(outer, nu, k)
                )
                assert reading == pseudo_translation(translation_weight(rect, nu))


def test_transpose_weight_smallest_case():
    rect = Rectangle(1, cols=1, rows=1)
    assert transpose_weight(rect, (1, 0)) == (1, 0)
    assert transpose_weight(rect, (0, 1)) == (0, 1)
    with pytest.raises(ValueError):
        transpose_weight(rect, (1, 1))


def test_transpose_weight_matches_index_reflection():
    for k in range(1, 6):
        for rect in all_rectangles(k):
            for gamma in gamma_vectors(k, rect.cols):
                reflected = pseudo_translation(gamma).reflect_indices()
                assert reflected == pseudo_translation(transpose_weight(rect, gamma))


def test_transpose_weight_conjugates_the_partition():
    # the paper's relation on partitions: transposing the rectangle
    # conjugates the contained partition
    for k in range(1, 6):
        for rect in all_rectangles(k):
            for nu in partitions_in_box(rect.cols, rect.rows):
                gamma = translation_weight(rect, nu)
                assert transpose_weight(rect, gamma) == translation_weight(
                    rect.transpose(), conjugate(nu)
                ), (k, rect, nu)


def test_transpose_weight_bijection():
    for k in range(1, 6):
        for rect in all_rectangles(k):
            images = {
                transpose_weight(rect, gamma)
                for gamma in gamma_vectors(k, rect.cols)
            }
            assert images == set(gamma_vectors(k, rect.rows))


def test_single_generator_commutation_instance():
    # conjugating one pseudo-translation: z_gamma s_i = s_{i+c} z_{s_i gamma}
    rng = random.Random(0)
    for _ in range(60):
        k = rng.randint(1, 5)
        c = rng.randint(1, k)
        gamma = rng.choice(gamma_vectors(k, c))
        i = rng.randrange(k + 1)
        s_i = AffinePermutation.identity(k).right_mult(i)
        s_shift = AffinePermutation.identity(k).right_mult((i + c) % (k + 1))
        moved = tuple(int(x) for x in act_linear(s_i, gamma))
        assert pseudo_translation(gamma) * s_i == s_shift * pseudo_translation(moved)


def test_act_on_partition_examples():
    rect = Rectangle(4, cols=2, rows=3)
    assert act_on_partition(rect, ()) == bounded_to_core((2, 2, 2), 4)
    assert act_on_partition(rect, (1,)) == bounded_to_core((2, 2, 2, 1), 4)


@pytest.mark.parametrize("broken", [False, True], ids=["rectangle", "unit"])
def test_action_check_fails_where_act_on_partition_raises(broken, monkeypatch):
    rect = Rectangle(3, 2, 2)
    if broken:  # the unit moves no core, so every partition fails
        monkeypatch.setattr(rectangles, "by_readings", lambda rect: AlgebraElement.unit(rect.k))
    calls = []
    real = rectangles.act_on_core
    monkeypatch.setattr(rectangles, "act_on_core", lambda *args: calls.append(args) or real(*args))
    (action,) = [c for c in verify_main(rect).checks if c.name.startswith("single-term action")]
    checked = [lam for n in range(5) for lam in k_bounded_partitions(n, 3)]
    assert len(calls) == action.details["partitions_checked"] == len(checked)
    raising = []
    for lam in checked:
        try:
            act_on_partition(rect, lam)
        except IdentityError:
            raising.append(list(lam))
    assert action.details["failures"] == raising
    assert action.passed is not broken and bool(raising) is broken


def test_act_on_partition_single_term_exhaustive():
    for k in range(1, 5):
        for rect in all_rectangles(k):
            for n in range(5):
                for lam in k_bounded_partitions(n, k):
                    core = bounded_to_core(lam, k)
                    image = act_on_core(by_readings(rect), core)
                    assert len(image) == 1
                    assert set(image.values()) == {1}


def test_verify_equivalences_report():
    report = verify_equivalences(7)
    assert report.passed
    assert len(report.checks) == sum(range(1, 8))
    payload = report.to_dict()
    assert payload["passed"] is True
    assert len(payload["checks"]) == len(report.checks)


def test_verify_main_report():
    for k in range(1, 4):
        for rect in all_rectangles(k):
            assert verify_main(rect, action_size=3).passed


def test_verify_main_builds_each_rectangle_element_once_per_check(monkeypatch):
    # one by_readings for the main check and one for the whole action
    # check, not one per partition acted on
    calls = []
    real = rectangles.by_readings
    monkeypatch.setattr(rectangles, "by_readings", lambda rect: calls.append(rect) or real(rect))
    rect = Rectangle(3, cols=2, rows=2)
    report = verify_main(rect, action_size=3)
    assert report.passed
    assert report.checks[1].details["partitions_checked"] > 1
    assert calls == [rect, rect]


def test_verify_main_reads_each_word_of_the_rectangle_once(monkeypatch):
    # the action check reads the reduced words of the rectangle element
    # once, not once per partition acted on
    calls = []
    real = AffinePermutation.reduced_word
    monkeypatch.setattr(AffinePermutation, "reduced_word", lambda w: calls.append(w) or real(w))
    rect = Rectangle(4, cols=2, rows=3)
    report = verify_main(rect)
    assert report.passed
    assert report.checks[1].details["partitions_checked"] == 12
    assert len(calls) == len(by_readings(rect)) == 10


def test_verify_main_equals_kschur():
    for k in range(1, 6):
        for rect in all_rectangles(k):
            assert by_readings(rect) == kschur(k, rect.partition())


def test_row_rectangle_is_h():
    from kschur.nilcoxeter import h

    for k in range(1, 6):
        rect = Rectangle(k, cols=k, rows=1)
        assert by_readings(rect) == h(k, k)


def test_verify_commutation_report():
    for k in range(1, 5):
        for rect in all_rectangles(k):
            report = verify_commutation(rect)
            assert report.passed
            assert len(report.checks) == k + 1

import random
from itertools import product

import pytest

from kschur.affine import (
    AffinePermutation,
    fold_reduced,
    fold_reduced_left,
    reflect_word,
    reflected,
    rotate_word,
)
from kschur.alcoves import fundamental_weight, pseudo_translation, simple_root, translation
from kschur.cores import apply_letters, as_partition, core_to_bounded, skew_reading_word
from kschur.documents import ExpansionDocument
from kschur.nilcoxeter import AlgebraElement, cyclically_decreasing_word, h, h_product, h_words
from kschur.rectangles import Rectangle, column_choice, translation_weight, transpose_weight


def random_element(rng, k, max_len=12):
    word = [rng.randrange(k + 1) for _ in range(rng.randrange(max_len + 1))]
    return AffinePermutation.from_word(k, word)


def test_identity_window():
    assert AffinePermutation.identity(4).window == (1, 2, 3, 4, 5)
    assert AffinePermutation.from_word(4, ()).window == (1, 2, 3, 4, 5)


def test_window_validation():
    # the residue test refuses a short or long window too, in the same message
    with pytest.raises(ValueError, match=r"needs 5 entries distinct mod 5, got \(1, 2, 3, 4\)$"):
        AffinePermutation(4, (1, 2, 3, 4))
    with pytest.raises(ValueError, match="needs 5 entries distinct mod 5"):
        AffinePermutation(4, (1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError):
        AffinePermutation(4, (1, 2, 3, 4, 10))  # wrong sum; residues 1, 2, 3, 4, 0
    with pytest.raises(ValueError):
        AffinePermutation(4, (2, 3, 4, 5, 6))  # wrong sum
    with pytest.raises(ValueError, match="needs 3 entries distinct mod 3"):
        AffinePermutation(2, (1, 4, 1))  # the right sum, but residues 1, 1, 1
    with pytest.raises(ValueError) as raised:
        AffinePermutation(999, (1,) * 1000)
    assert len(str(raised.value)) < 300  # the window is echoed clipped
    with pytest.raises(ValueError):
        AffinePermutation(0, (1,))


# a float or bool compares equal to an int, so each of these once built an
# element; a document of the float window then wrote "window":[2.0,1,3],
# which its own reader refused
@pytest.mark.parametrize(
    "build",
    [
        lambda: AffinePermutation(2, (2.0, 1, 3)),
        lambda: AffinePermutation(2, (True, 2, 3)),
        lambda: AffinePermutation(True, (1, 2)),
        lambda: ExpansionDocument.from_element(
            (1,), AlgebraElement.basis(AffinePermutation(2, (2.0, 1, 3)))
        ).to_json(),
    ],
    ids=["float entry", "bool entry", "bool k", "document round trip"],
)
def test_window_constructor_requires_int_entries_and_rank(build):
    with pytest.raises(ValueError, match="integer"):
        build()


def _read(index=(1,), window=(2, 1), word=(1,), coeff=1):
    """Read the k = 1 document of the single term u_1 of index (1,)."""
    term = {"window": list(window), "word": list(word), "coeff": coeff}
    return ExpansionDocument.from_dict({"k": 1, "index": list(index), "terms": [term]})


# every place an integer enters from outside, built from a value x that is
# 1 when valid; a float or bool x compares equal to 1
OUTSIDE_INTEGERS = {
    "window entry": lambda x: AffinePermutation(1, (2, x)),
    "partition part": lambda x: as_partition((2, x)),
    "rectangle cols": lambda x: Rectangle(1, x, 1),
    "rectangle rows": lambda x: Rectangle(1, 1, x),
    "document window": lambda x: _read(window=(2, x)),
    "document word": lambda x: _read(word=(x,)),
    "document coeff": lambda x: _read(coeff=x),
    "document index": lambda x: _read(index=(x,)),
    "weight": lambda x: pseudo_translation((x, 0, 0)),
    "rectangle direction": lambda x: transpose_weight(Rectangle(3, 2, 2), (x, 1, 0, 0)),
}


@pytest.mark.parametrize("convert", [float, bool], ids=["float", "bool"])
@pytest.mark.parametrize("place", list(OUTSIDE_INTEGERS))
def test_every_outside_integer_is_checked_by_type(place, convert):
    build = OUTSIDE_INTEGERS[place]
    build(1)
    with pytest.raises(ValueError, match="must be integers"):
        build(convert(1))


# every place an index enters from outside, built from a value i that is
# 1 when valid; a float or bool i compares equal to 1
OUTSIDE_INDICES = {
    "element generator": lambda i: h(2, 1).times_generator(i),
    "core letter": lambda i: apply_letters((), [("u", i)], 2),
    "h index": lambda i: h_words(2, i),
    "h_product part": lambda i: h_product(2, (i,)),
    "weight index": lambda i: fundamental_weight(2, i),
    "root index": lambda i: simple_root(2, i),
}


@pytest.mark.parametrize("convert", [float, bool], ids=["float", "bool"])
@pytest.mark.parametrize("place", list(OUTSIDE_INDICES))
def test_every_outside_index_is_checked_by_type(place, convert):
    build = OUTSIDE_INDICES[place]
    build(1)
    with pytest.raises(ValueError, match=rf"must be in [01]\.\.2, got {convert(1)}$"):
        build(convert(1))


HUGE = (1,) * 50_000
IDENTITY_TERM = {"window": list(range(1, 1001)), "word": [], "coeff": 1}

# every message that echoes an outside input of any size, on a huge one
ECHOES = {
    "weight": (lambda: pseudo_translation((0.5,) * 50_000), "must be integers"),
    "root lattice vector": (lambda: translation((0.5,) * 50_000), "must sum to 0"),
    "skew shape": (lambda: skew_reading_word((1,), HUGE, 2), "not contained"),
    "core": (lambda: core_to_bounded((5,) * 50_000, 3), "is not a 4-core"),
    "indices": (lambda: cyclically_decreasing_word(3, range(50_000)), "must lie in"),
    "subset": (lambda: cyclically_decreasing_word(50_000, range(50_001)), "must be strict"),
    "column_choice": (lambda: column_choice(Rectangle(3, 2, 2), HUGE), "not contained"),
    "translation_weight": (lambda: translation_weight(Rectangle(3, 2, 2), HUGE), "not contained"),
    "transpose_weight": (lambda: transpose_weight(Rectangle(3, 2, 2), (0,) * 50_000), "0/1"),
    "document index": (lambda: _read(index=HUGE + (0,)), "has a zero part"),
    "document window order": (
        lambda: ExpansionDocument.from_dict({"k": 999, "index": [], "terms": [IDENTITY_TERM] * 2}),
        "does not follow",
    ),
    "document word": (lambda: _read(word=(1,) * 100_000), "is not reduced"),
}


@pytest.mark.parametrize("place", list(ECHOES))
def test_every_echo_of_an_outside_input_is_clipped(place):
    call, message = ECHOES[place]
    with pytest.raises(ValueError, match=message) as raised:
        call()
    assert len(str(raised.value)) < 300


@pytest.mark.parametrize("k", [0, True, 2.0])
def test_identity_checks_only_its_rank(k, monkeypatch):
    with pytest.raises(ValueError) as constructor:
        AffinePermutation(k, (1, 2))
    with pytest.raises(ValueError) as identity:
        AffinePermutation.identity(k)
    assert str(identity.value) == str(constructor.value)
    # the window identity builds is valid as built, so it is never checked
    monkeypatch.setattr(AffinePermutation, "__post_init__", lambda self: pytest.fail("checked"))
    e = AffinePermutation.identity(3)
    assert e.window == (1, 2, 3, 4) and e.length() == 0


def test_right_mult_sequence_k4():
    # identity times s_2 s_1 s_3 s_2 s_4 s_3, one generator at a time
    w = AffinePermutation.identity(4)
    for i in (2, 1, 3, 2, 4, 3):
        w = w.right_mult(i)
    assert w.window == (3, 4, 5, 1, 2)


def test_word_to_window_tables_k4():
    assert AffinePermutation.from_word(4, (2, 1, 3, 2, 4, 3)).window == (3, 4, 5, 1, 2)
    assert AffinePermutation.from_word(4, (4, 3, 0, 4, 1, 0)).window == (-2, -1, 5, 6, 7)


def test_right_mult_s0_k2():
    # direct application of the swap-with-shift rule; sum stays 6
    w = AffinePermutation.identity(2).right_mult(0)
    assert w.window == (0, 2, 4)
    assert sum(w.window) == 6


def test_generator_involution():
    rng = random.Random(1)
    for _ in range(60):
        k = rng.randint(1, 6)
        w = random_element(rng, k)
        i = rng.randrange(k + 1)
        assert w.right_mult(i).right_mult(i) == w
        assert w.left_mult(i).left_mult(i) == w


def test_derived_windows_pass_the_constructor():
    # group operations skip the window checks; the public constructor,
    # which runs them, accepts every window they derive
    rng = random.Random(13)
    for k in range(1, 6):
        for _ in range(40):
            w = random_element(rng, k)
            v = random_element(rng, k)
            m = rng.randrange(-3, 2 * k + 2)
            derived = [w.inverse(), w * v, w.rotate_indices(m), w.reflect_indices()]
            derived += [w.right_mult(i) for i in range(k + 1)]
            derived += [w.left_mult(i) for i in range(k + 1)]
            for result in derived:
                assert result == AffinePermutation(k, list(result.window))


def test_left_mult_matches_product_and_descents():
    rng = random.Random(14)
    for k in range(1, 6):
        for _ in range(40):
            w = random_element(rng, k)
            for i in range(k + 1):
                left = w.left_mult(i)
                assert left == AffinePermutation.from_word(k, (i,)) * w
                assert w.has_left_descent(i) == (left.length() < w.length())
            # a whole word folds on the left exactly when the lengths add
            word = [rng.randrange(k + 1) for _ in range(rng.randrange(6))]
            target = AffinePermutation.from_word(k, word) * w
            win = list(w.window)
            up = fold_reduced_left(win, word)
            assert up == (target.length() == w.length() + len(word)), (k, w.window, word)
            if up:
                assert tuple(win) == target.window, (k, w.window, word)


def test_value_periodicity():
    w = AffinePermutation.from_word(4, (2, 1, 3, 2, 4, 3))
    for j in range(-7, 9):
        assert w.value(j + 5) == w.value(j) + 5


def test_reduced_word_roundtrip_random():
    rng = random.Random(2)
    for _ in range(1000):
        k = rng.randint(1, 6)
        w = random_element(rng, k)
        word = w.reduced_word()
        assert AffinePermutation.from_word(k, word) == w
        assert len(word) == w.length()


def reference_reduced_word(w):
    """Peel the smallest right descent, on a plain window list: the letters
    documents store, so they must not change."""
    n = w.k + 1
    win = list(w.window)
    letters = []
    while True:
        descents = [i for i in range(1, n) if win[i - 1] > win[i]]
        if win[n - 1] - n > win[0]:
            descents.insert(0, 0)
        if not descents:
            return tuple(reversed(letters))
        i = descents[0]
        if i:
            win[i - 1], win[i] = win[i], win[i - 1]
        else:
            win[0], win[n - 1] = win[n - 1] - n, win[0] + n
        letters.append(i)


def test_reduced_word_matches_reference_peel():
    rng = random.Random(9)
    for _ in range(500):
        k = rng.randint(1, 5)
        w = random_element(rng, k, max_len=20)
        assert w.reduced_word() == reference_reduced_word(w), w.window
    # long elements at k = 10, where the peel resumes its scan mid-window:
    # grown by random letters, keeping each one that raises the length
    for _ in range(100):
        length = rng.randint(60, 120)
        w = AffinePermutation.identity(10)
        while w.length() < length:
            w = w.times_reduced([rng.randrange(11)]) or w
        assert w.reduced_word() == reference_reduced_word(w), w.window


def step_and_undo_reduced_word(w):
    """Peel the smallest right descent found by trying each s_i on the
    window and taking it back when the length went up."""
    win = list(w.window)
    letters = []
    while True:
        for i in range(len(win)):
            if not fold_reduced(win, (i,)):
                letters.append(i)
                break
            fold_reduced(win, (i,))
        else:
            return tuple(reversed(letters))


def test_reduced_word_matches_step_and_undo_oracle():
    rng = random.Random(17)
    for _ in range(600):
        k = rng.randint(1, 6)
        w = random_element(rng, k, max_len=30)
        word = w.reduced_word()
        assert word == step_and_undo_reduced_word(w), w.window
        assert AffinePermutation.from_word(k, word) == w


def test_reduced_word_known_cases():
    assert AffinePermutation.identity(4).reduced_word() == ()
    w = AffinePermutation(4, (3, 4, 5, 1, 2))
    word = w.reduced_word()
    assert len(word) == 6
    assert AffinePermutation.from_word(4, word) == w


def test_length_known_values():
    assert AffinePermutation.identity(4).length() == 0
    assert AffinePermutation(4, (3, 4, 5, 1, 2)).length() == 6
    assert AffinePermutation(4, (-2, -1, 5, 6, 7)).length() == 6


def enumerate_words(k, max_len):
    frontier = [((), AffinePermutation.identity(k))]
    for _ in range(max_len):
        frontier = [
            (word + (i,), w.right_mult(i))
            for word, w in frontier
            for i in range(k + 1)
        ]
        yield from frontier


def test_length_change_matches_descent():
    # exhaustive over short words: multiplying by s_i changes length by one,
    # down exactly when w(i) > w(i+1) in the periodic window
    seen = set()
    for _, w in enumerate_words(2, 5):
        if w in seen:
            continue
        seen.add(w)
        base = w.length()
        for i in range(3):
            delta = w.right_mult(i).length() - base
            assert delta in (-1, 1)
            assert (delta == -1) == w.has_right_descent(i)


def test_multiply_matches_word_concatenation():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(1, 5)
        u = [rng.randrange(k + 1) for _ in range(rng.randrange(9))]
        v = [rng.randrange(k + 1) for _ in range(rng.randrange(9))]
        lhs = AffinePermutation.from_word(k, u + v)
        rhs = AffinePermutation.from_word(k, u) * AffinePermutation.from_word(k, v)
        assert lhs == rhs


def test_multiply_identity_and_inverse():
    rng = random.Random(4)
    for _ in range(100):
        k = rng.randint(1, 5)
        w = random_element(rng, k)
        e = AffinePermutation.identity(k)
        assert w * e == w
        assert e * w == w
        assert w.inverse() * w == e
        assert w * w.inverse() == e
        assert w.inverse().inverse() == w


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        AffinePermutation.identity(2) * AffinePermutation.identity(3)


def test_inverse_preserves_length():
    rng = random.Random(5)
    for _ in range(500):
        k = rng.randint(1, 6)
        w = random_element(rng, k)
        assert w.inverse().length() == w.length()


def test_length_subadditive():
    rng = random.Random(6)
    for _ in range(200):
        k = rng.randint(1, 5)
        a = random_element(rng, k)
        b = random_element(rng, k)
        assert (a * b).length() <= a.length() + b.length()


def test_rotate_indices():
    rng = random.Random(7)
    for _ in range(100):
        k = rng.randint(1, 5)
        word = [rng.randrange(k + 1) for _ in range(rng.randrange(10))]
        w = AffinePermutation.from_word(k, word)
        m = rng.randrange(-3, 2 * k + 2)
        # rotating the element agrees with rotating any word for it,
        # reduced or not, so the map is well defined on the group
        assert w.rotate_indices(m) == AffinePermutation.from_word(
            k, rotate_word(word, m, k)
        )
        assert w.rotate_indices(0) == w
        assert w.rotate_indices(k + 1) == w


def test_rotate_is_homomorphism():
    rng = random.Random(8)
    for _ in range(100):
        k = rng.randint(1, 5)
        a = random_element(rng, k)
        b = random_element(rng, k)
        m = rng.randrange(k + 1)
        assert (a * b).rotate_indices(m) == a.rotate_indices(m) * b.rotate_indices(m)


def test_reflect_indices():
    rng = random.Random(9)
    for _ in range(100):
        k = rng.randint(1, 5)
        word = [rng.randrange(k + 1) for _ in range(rng.randrange(10))]
        w = AffinePermutation.from_word(k, word)
        assert w.reflect_indices() == AffinePermutation.from_word(
            k, reflect_word(word, k)
        )
        assert w.reflect_indices().reflect_indices() == w
        # entry j of the reflected window is 1 - w(1 - j)
        assert reflected(w.window) == tuple(1 - w.value(1 - j) for j in range(1, k + 2))
    assert AffinePermutation.identity(3).reflect_indices() == AffinePermutation.identity(3)


def test_reflect_is_homomorphism():
    rng = random.Random(10)
    for _ in range(100):
        k = rng.randint(1, 5)
        a = random_element(rng, k)
        b = random_element(rng, k)
        assert (a * b).reflect_indices() == a.reflect_indices() * b.reflect_indices()


def test_descents_of_identity():
    w = AffinePermutation.identity(5)
    assert w.right_descents() == []
    assert not any(w.has_left_descent(i) for i in range(6))


def all_words(k, max_len):
    for m in range(max_len + 1):
        yield from product(range(k + 1), repeat=m)


def test_times_reduced_from_identity_matches_length_oracle():
    # exhaustive over words of at most 5 letters: the fold is None exactly
    # when the word is not reduced, and otherwise the word's product
    for k in range(1, 4):
        e = AffinePermutation.identity(k)
        for word in all_words(k, 5):
            w = AffinePermutation.from_word(k, word)
            folded = e.times_reduced(word)
            if w.length() != len(word):
                assert folded is None, (k, word)
            else:
                assert folded == w, (k, word)


def test_times_reduced_from_any_start_matches_length_oracle():
    rng = random.Random(11)
    for k in range(1, 4):
        starts = [AffinePermutation.identity(k).right_mult(0)]
        starts += [random_element(rng, k, max_len=6) for _ in range(4)]
        for w in starts:
            for word in all_words(k, 5):
                target = w * AffinePermutation.from_word(k, word)
                folded = w.times_reduced(word)
                if target.length() != w.length() + len(word):
                    assert folded is None, (k, w.window, word)
                else:
                    assert folded == target, (k, w.window, word)


def test_times_reduced_rejects_bad_letters():
    with pytest.raises(ValueError):
        AffinePermutation.identity(2).times_reduced((1, 3))


def generator(k, i):
    """s_i from its definition: j -> j + 1 for j = i, j -> j - 1 for
    j = i + 1 (mod k + 1), built without the swap rule under test."""
    n = k + 1
    window = [j + 1 if j % n == i else j - 1 if j % n == (i + 1) % n else j for j in range(1, n + 1)]
    return AffinePermutation(k, tuple(window))


def test_fold_reduced_matches_step_and_length_oracle():
    # every window reached by at most 3 letters, every word of at most 5:
    # the fold says True exactly when the length adds up, and then holds
    # the product, which the oracle builds by composing generators
    for k in range(1, 4):
        gens = [generator(k, i) for i in range(k + 1)]
        for i, s in enumerate(gens):
            win = list(range(1, k + 2))
            fold_reduced(win, (i,))
            assert tuple(win) == s.window, (k, i)
        starts = {AffinePermutation.from_word(k, word) for word in all_words(k, 3)}
        for w in starts:
            products = {(): w}
            for word in all_words(k, 5):
                if word:
                    products[word] = products[word[:-1]] * gens[word[-1]]
                target = products[word]
                win = list(w.window)
                up = fold_reduced(win, word)
                assert up == (target.length() == w.length() + len(word)), (k, w.window, word)
                if up:
                    assert tuple(win) == target.window, (k, w.window, word)


def test_fold_reduced_rejects_letters_out_of_range():
    # a negative letter must not index the window from its end
    for k in range(1, 5):
        for letter in (-1, k + 1):
            for word in ((letter,), (0, letter), (1, 0, letter)):
                with pytest.raises(ValueError, match="generator index"):
                    fold_reduced(list(range(1, k + 2)), word)
                win = list(range(1, k + 2))
                with pytest.raises(ValueError, match="generator index"):
                    fold_reduced_left(win, word)
                assert win == list(range(1, k + 2))

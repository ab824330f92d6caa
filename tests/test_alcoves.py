import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from kschur import alcoves
from kschur.affine import AffinePermutation, peel_descents
from kschur.alcoves import (
    act,
    act_linear,
    add_points,
    alcove_of,
    centroid,
    fundamental_centroid,
    fundamental_weight,
    gamma_vectors,
    is_dominant,
    label,
    pseudo_translation,
    reflect,
    reflect_linear,
    simple_root,
    translation,
)
from kschur.cores import conjugate
from kschur.reports import IdentityError


def random_element(rng, k, max_len=10):
    word = [rng.randrange(k + 1) for _ in range(rng.randrange(max_len + 1))]
    return AffinePermutation.from_word(k, word)


def random_point(rng, k):
    return tuple(Fraction(rng.randrange(-20, 21), rng.choice((1, 2, 3, 5, 7))) for _ in range(k + 1))


def same_point(p, q):
    """Equality modulo the all-ones vector: all coordinate differences agree."""
    if len(p) != len(q):
        return False
    diffs = {Fraction(a) - Fraction(b) for a, b in zip(p, q)}
    return len(diffs) == 1


def fold_reflect(word, p):
    # rightmost letter of the word acts first
    for i in reversed(word):
        p = reflect(i, p)
    return p


def test_fundamental_centroid():
    assert fundamental_centroid(4) == (
        Fraction(4, 5), Fraction(3, 5), Fraction(2, 5), Fraction(1, 5), 0,
    )
    assert fundamental_centroid(1) == (Fraction(1, 2), 0)


def test_centroid_is_vertex_average():
    for k in range(1, 6):
        n = k + 1
        total = [0] * n
        for i in range(n):
            for t, x in enumerate(fundamental_weight(k, i)):
                total[t] += x
        average = tuple(Fraction(x, n) for x in total)
        assert average == fundamental_centroid(k)


def test_reflect_swaps():
    p = (Fraction(2, 5), Fraction(1, 5), Fraction(4, 5), 0, Fraction(3, 5))
    assert reflect(3, p) == (Fraction(2, 5), Fraction(1, 5), 0, Fraction(4, 5), Fraction(3, 5))
    q = (1, 0, 0)
    assert reflect(0, q) == (1, 0, 0)  # a_3 + 1 = 1, a_1 - 1 = 0
    assert reflect_linear(0, (1, 0, 0)) == (0, 0, 1)
    # the explicit swaps: i > 0 exchanges coordinates i and i+1, i = 0 the
    # first and last, reflect with a unit shift; reflect, which runs act of
    # s_i, must give the same Fractions
    rng = random.Random(12)
    for _ in range(40):
        k = rng.randint(1, 5)
        p = random_point(rng, k)
        for i in range(k + 1):
            a, b = (k, 0) if i == 0 else (i - 1, i)
            swapped = list(p)
            swapped[a], swapped[b] = p[b], p[a]
            assert reflect_linear(i, p) == tuple(swapped)
            if i == 0:
                swapped[a], swapped[b] = p[b] - 1, p[a] + 1
            assert reflect(i, p) == tuple(swapped)
            assert all(type(x) is Fraction for x in reflect(i, p))


def test_reflect_involution():
    rng = random.Random(0)
    for _ in range(100):
        k = rng.randint(1, 5)
        p = random_point(rng, k)
        i = rng.randrange(k + 1)
        assert reflect(i, reflect(i, p)) == p


def test_diamond_chain_k4():
    # inverse of s_2 s_1 s_3 s_2 s_4 s_3 applied to the fundamental centroid
    p = fold_reflect((3, 4, 2, 3, 1, 2), fundamental_centroid(4))
    assert p == (Fraction(2, 5), Fraction(1, 5), 0, Fraction(4, 5), Fraction(3, 5))
    assert same_point(p, add_points(fundamental_centroid(4), (0, 0, 0, 1, 1)))


def test_act_matches_word_fold():
    rng = random.Random(1)
    for _ in range(150):
        k = rng.randint(1, 5)
        word = [rng.randrange(k + 1) for _ in range(rng.randrange(10))]
        w = AffinePermutation.from_word(k, word)
        p = random_point(rng, k)
        assert act(w, p) == fold_reflect(word, p)


def test_act_is_group_action():
    rng = random.Random(2)
    for _ in range(100):
        k = rng.randint(1, 5)
        u = random_element(rng, k)
        v = random_element(rng, k)
        p = random_point(rng, k)
        assert act(u * v, p) == act(u, act(v, p))


def test_affine_action_splits_into_linear_part():
    # acting on a sum: the base point moves affinely, the increment linearly
    rng = random.Random(3)
    for _ in range(150):
        k = rng.randint(1, 5)
        w = random_element(rng, k)
        a = random_point(rng, k)
        b = random_point(rng, k)
        lhs = act(w, add_points(a, b))
        rhs = add_points(act(w, a), act_linear(w, b))
        assert lhs == rhs


def test_linear_action_permutes_direction_vectors():
    rng = random.Random(4)
    for k in range(1, 6):
        for c in range(1, k + 1):
            vectors = set(gamma_vectors(k, c))
            for _ in range(10):
                w = random_element(rng, k)
                image = {tuple(int(x) for x in act_linear(w, g)) for g in vectors}
                assert image == vectors


def test_label():
    assert label(fundamental_weight(4, 2)) == 2
    assert label((0, 0, 0)) == 0
    for k in range(1, 6):
        for c in range(1, k + 1):
            for i in range(k + 1):
                for gamma in gamma_vectors(k, c):
                    combined = add_points(fundamental_weight(k, i), gamma)
                    assert label([int(x) for x in combined]) == (i + c) % (k + 1)


def test_centroid_identity():
    assert centroid(AffinePermutation.identity(3)) == fundamental_centroid(3)


def test_centroid_closed_form_matches_the_action():
    # the window form against the definition, the inverse of w acting on
    # the fundamental centroid: equal as tuples, not only modulo the diagonal
    rng = random.Random(13)
    for _ in range(2000):
        k = rng.randint(1, 6)
        w = random_element(rng, k, max_len=16)
        assert centroid(w) == act(w.inverse(), fundamental_centroid(k)), w


def test_window_from_reflected_centroid():
    # the window of w is the normalized reversal of the centroid of the
    # index-reflected element, scaled by k+1
    rng = random.Random(5)
    for _ in range(100):
        k = rng.randint(1, 5)
        n = k + 1
        w = random_element(rng, k)
        scaled = [x * n for x in reversed(centroid(w.reflect_indices()))]
        shift, rem = divmod(n * (n + 1) // 2 - sum(scaled), n)
        assert rem == 0
        window = tuple(int(x + shift) for x in scaled)
        assert window == w.window


def test_alcove_of_fundamental_centroid():
    assert alcove_of(fundamental_centroid(3)) == AffinePermutation.identity(3)


def test_alcove_of_known_translates():
    g = fundamental_centroid(2)
    assert alcove_of(add_points(g, (1, 0, 0))) == AffinePermutation.from_word(2, (2, 0))
    g4 = fundamental_centroid(4)
    assert alcove_of(add_points(g4, (0, 0, 0, 1, 1))) == AffinePermutation.from_word(
        4, (2, 1, 3, 2, 4, 3)
    )


def test_alcove_of_wall_point():
    with pytest.raises(ValueError, match="wall"):
        alcove_of((Fraction(1, 2), Fraction(1, 2), 0))
    with pytest.raises(ValueError, match="wall"):
        alcove_of((1, Fraction(1, 2), 0))  # a_1 - a_3 = 1 exactly


def test_alcove_of_word_is_reduced():
    rng = random.Random(6)
    for _ in range(100):
        k = rng.randint(1, 5)
        w = random_element(rng, k)
        p = act(w.inverse(), fundamental_centroid(k))  # centroid of w's alcove
        found = alcove_of(p)
        assert found == w
        assert len(found.reduced_word()) == found.length()


def test_pseudo_translation_tables():
    assert pseudo_translation((0, 0, 0)) == AffinePermutation.identity(2)
    assert pseudo_translation((0, 1, 0)) == AffinePermutation.from_word(2, (0, 1))
    assert pseudo_translation((1, 1, 0, 0, 0)) == AffinePermutation.from_word(
        4, (4, 3, 0, 4, 1, 0)
    )


def test_pseudo_translation_centroid():
    rng = random.Random(7)
    for _ in range(50):
        k = rng.randint(1, 5)
        gamma = tuple(rng.randrange(-2, 3) for _ in range(k + 1))
        w = pseudo_translation(gamma)
        assert same_point(centroid(w), add_points(fundamental_centroid(k), gamma))


def test_pseudo_translation_of_other_alcoves():
    # the same element translates every alcove, in the direction given by
    # the inverse linear action on the original direction
    rng = random.Random(8)
    for _ in range(80):
        k = rng.randint(1, 4)
        c = rng.randint(1, k)
        gamma = rng.choice(gamma_vectors(k, c))
        w = random_element(rng, k)
        z = pseudo_translation(gamma)
        lhs = centroid(z * w)
        rhs = add_points(centroid(w), act_linear(w.inverse(), gamma))
        assert same_point(lhs, rhs)


def test_translation_requires_root_lattice():
    with pytest.raises(ValueError):
        translation((1, 0, 0))
    with pytest.raises(ValueError):
        translation((Fraction(1, 2), Fraction(-1, 2), 0))
    assert translation((0, 0, 0)) == AffinePermutation.identity(2)


def test_translation_moves_every_point():
    rng = random.Random(9)
    for k in (2, 3, 4):
        alpha = simple_root(k, 1)
        t = translation(alpha)
        for _ in range(10):
            v = random_point(rng, k)
            assert act(t, v) == tuple(a - b for a, b in zip(v, alpha))
        assert same_point(centroid(t), add_points(fundamental_centroid(k), alpha))


def test_simple_roots():
    assert simple_root(3, 1) == (1, -1, 0, 0)
    assert simple_root(3, 0) == (-1, 0, 0, 1)
    for k in range(1, 5):
        total = [0] * (k + 1)
        for i in range(k + 1):
            for t, x in enumerate(simple_root(k, i)):
                total[t] += x
        assert all(x == 0 for x in total)  # the simple roots sum to zero


def test_weight_and_root_indices_lie_in_0_to_k():
    with pytest.raises(ValueError, match="weight index"):
        fundamental_weight(3, 4)
    with pytest.raises(ValueError, match="root index"):
        simple_root(3, -1)


def test_is_dominant():
    assert is_dominant(fundamental_weight(4, 2))
    assert not is_dominant((0, 1, 0))
    assert is_dominant((0, 0, 0))


def test_dominant_gamma_vector_is_unique():
    for k in range(1, 8):
        for c in range(1, k + 1):
            dominant = [g for g in gamma_vectors(k, c) if is_dominant(g)]
            assert dominant == [fundamental_weight(k, c)]


# The greedy walk as it ran on exact Fraction points, with its own
# reflection: the reference the integer walk must reproduce, letter for
# letter, and its on-wall refusal.
def fraction_alcove_of(point):
    p = [Fraction(x) for x in point]
    n = len(p)
    letters = []
    while True:
        if p[0] - p[n - 1] > 1:
            p[0], p[n - 1] = p[n - 1] + 1, p[0] - 1
            letters.append(0)
            continue
        for i in range(1, n):
            if p[i - 1] < p[i]:
                p[i - 1], p[i] = p[i], p[i - 1]
                letters.append(i)
                break
        else:
            break
    if any(p[i - 1] == p[i] for i in range(1, n)) or p[0] - p[n - 1] == 1:
        raise ValueError("point on wall")
    return AffinePermutation.from_word(n - 1, reversed(letters))


def test_pseudo_translation_matches_fraction_oracle():
    for k in range(1, 8):
        for gamma in product((0, 1), repeat=k + 1):
            target = add_points(fundamental_centroid(k), gamma)
            assert pseudo_translation(gamma) == fraction_alcove_of(target), gamma


def test_alcove_of_matches_fraction_oracle():
    rng = random.Random(13)
    walls = 0
    for _ in range(600):
        k = rng.randint(1, 6)
        p = tuple(
            Fraction(rng.randrange(-30, 31), rng.choice((1, 2, 3, 4, 6, 7, 9)))
            for _ in range(k + 1)
        )
        try:
            expected = fraction_alcove_of(p)
        except ValueError as exc:
            walls += 1
            with pytest.raises(ValueError, match=f"^{exc}$"):
                alcove_of(p)
        else:
            assert alcove_of(p) == expected, p
    assert 0 < walls < 600  # the draw hits walls and open alcoves both


# The integer walk as it ran before it resumed its scan after a swap:
# every step rescans the walls from the first, and the element is built
# letter by letter.  The reference the resuming walk must reproduce;
# `rescan_letters` is its loop, which records the letters on any point.
def rescan_letters(p, d):
    n = len(p)
    letters = []
    while True:
        if p[0] - p[n - 1] > d:
            p[0], p[n - 1] = p[n - 1] + d, p[0] - d
            letters.append(0)
            continue
        for i in range(1, n):
            if p[i - 1] < p[i]:
                p[i - 1], p[i] = p[i], p[i - 1]
                letters.append(i)
                break
        else:
            return letters


def rescan_walk(p, d):
    n = len(p)
    letters = rescan_letters(p, d)
    if any(p[i - 1] == p[i] for i in range(1, n)) or p[0] - p[n - 1] == d:
        raise ValueError("point on wall")
    return AffinePermutation.from_word(n - 1, reversed(letters))


def rescan_pseudo_translation(gamma):
    n = len(gamma)
    return rescan_walk([n - 1 - t + n * x for t, x in enumerate(gamma)], n)


def test_pseudo_translation_matches_rescan_walk():
    for k in range(1, 9):
        for gamma in product((0, 1), repeat=k + 1):
            assert pseudo_translation(gamma).window == rescan_pseudo_translation(gamma).window
    rng = random.Random(21)
    for _ in range(2000):
        gamma = tuple(rng.randrange(-4, 5) for _ in range(rng.randint(2, 7)))
        assert pseudo_translation(gamma).window == rescan_pseudo_translation(gamma).window, gamma


def test_peel_descents_matches_rescan_letters():
    # wall i of the point scaled by d is violated exactly when s_i is a
    # descent of the negated list with period d, letter for letter
    rng = random.Random(13)
    periods = set()
    for _ in range(600):
        k = rng.randint(1, 6)
        p = [Fraction(rng.randrange(-30, 31), rng.choice((1, 2, 3, 4, 6, 7, 9))) for _ in range(k + 1)]
        d = lcm(*(x.denominator for x in p))
        periods.add(d == k + 1)
        scaled = [int(x * d) for x in p]
        negated = [-a for a in scaled]
        assert peel_descents(negated, d) == rescan_letters(scaled, d), p
        assert negated == [-a for a in scaled] == sorted(negated), p
    assert periods == {False, True}
    # windows with period k+1, long enough that the peel resumes mid-window
    for _ in range(300):
        k = rng.randint(1, 10)
        w = random_element(rng, k, max_len=60)
        win = list(w.window)
        assert peel_descents(win, k + 1) == rescan_letters([-a for a in w.window], k + 1), w
        assert win == list(AffinePermutation.identity(k).window)


@pytest.mark.parametrize("point", [(), (0,)])
@pytest.mark.parametrize("function", [alcove_of, pseudo_translation, translation])
def test_a_point_needs_two_coordinates(function, point):
    with pytest.raises(ValueError, match="at least 2 coordinates"):
        function(point)


@pytest.mark.parametrize(
    "call",
    [
        lambda: reflect(3, (3, 2, 1)),
        lambda: reflect(-1, (3, 2, 1)),
        lambda: reflect(0, (1,)),
        lambda: reflect_linear(3, (3, 2, 1)),
        lambda: reflect_linear(-1, (3, 2, 1)),
        lambda: act(AffinePermutation.identity(2), (1, 2, 3, 4)),
        lambda: act(AffinePermutation.identity(2), (1, 2)),
        lambda: act_linear(AffinePermutation.identity(2), (1, 2, 3, 4)),
        lambda: act_linear(AffinePermutation.identity(2), (1, 2)),
        lambda: conjugate((1, 3)),
        lambda: conjugate((2, -1)),
    ],
    ids=[
        "reflect index k+1", "reflect index -1", "reflect one coordinate",
        "reflect_linear index k+1", "reflect_linear index -1",
        "act long point", "act short point", "act_linear long point",
        "act_linear short point", "conjugate increasing", "conjugate negative",
    ],
)
def test_malformed_input_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_walk_refuses_a_word_that_is_not_reduced(monkeypatch):
    # the fold that builds the walk's element is its check: a word with a
    # descent gives no element, and the walk raises rather than return None
    monkeypatch.setattr(AffinePermutation, "times_reduced", lambda w, word: None)
    with pytest.raises(IdentityError, match="is not reduced"):
        pseudo_translation((1, 0, 0))


def test_pseudo_translation_rejects_a_neighbouring_walk(monkeypatch):
    # the walk replaced by one that lands one letter off its answer, on
    # each side in turn: the centroid certificate must refuse every one
    walk = alcoves._walk
    for i in range(5):
        monkeypatch.setattr(alcoves, "_walk", lambda q, d: (walk(q, d)[0].right_mult(i), ()))
        with pytest.raises(IdentityError, match="alcove of"):
            alcoves.pseudo_translation((1, 1, 0, 0, 0))

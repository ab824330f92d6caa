import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from kschur import cores, nilcoxeter
from kschur.affine import AffinePermutation
from kschur.cache import ExpansionCache
from kschur.cores import (
    bounded_to_core,
    conjugate,
    core_to_bounded,
    k_bounded_partitions,
    w_of_partition,
)
from kschur.documents import ExpansionDocument
from kschur.nilcoxeter import (
    AlgebraElement,
    act_on_core,
    basis_times_generator,
    cyclically_decreasing,
    cyclically_decreasing_word,
    h,
    h_product,
    h_words,
    kschur,
    kschur_h_expansion,
    lr_coefficient,
    negative_terms,
    pieri_partitions,
    verify_pieri,
)
from kschur.rectangles import Rectangle, by_windows
from kschur.reports import IdentityError


def element_from_words(k, words):
    return AlgebraElement(
        k, [(AffinePermutation.from_word(k, word), 1) for word in words]
    )


def random_element(rng, k, n_terms=3, max_len=6):
    terms = []
    for _ in range(n_terms):
        word = [rng.randrange(k + 1) for _ in range(rng.randrange(max_len + 1))]
        terms.append((AffinePermutation.from_word(k, word), rng.randint(-3, 3) or 1))
    return AlgebraElement(k, terms)


# the running example: the ten standard-basis words of the k=4 expansion
# indexed by the 2x3 rectangle, all with coefficient one
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


def test_basis_times_generator():
    e = AffinePermutation.identity(4)
    s1 = e.right_mult(1)
    assert basis_times_generator(e, 1, "right") == s1
    assert basis_times_generator(s1, 1, "right") is None  # u_i squared is zero
    assert basis_times_generator(s1, 1, "left") is None
    s1s0 = s1.right_mult(0)
    assert basis_times_generator(s1s0, 1, "right") == s1s0.right_mult(1)
    with pytest.raises(ValueError):
        basis_times_generator(e, 1, "middle")


def test_left_generator_matches_product_and_length():
    rng = random.Random(8)
    for k in range(1, 5):
        for _ in range(40):
            word = [rng.randrange(k + 1) for _ in range(rng.randrange(9))]
            w = AffinePermutation.from_word(k, word)
            for i in range(k + 1):
                product = AffinePermutation.from_word(k, (i,)) * w
                got = basis_times_generator(w, i, "left")
                if product.length() == w.length() + 1:
                    assert got == product, (k, w.window, i)
                else:
                    assert got is None, (k, w.window, i)
                assert AlgebraElement.basis(w).times_generator(i, "left") == (
                    AlgebraElement.zero(k) if got is None else AlgebraElement.basis(got)
                )
            for letter in (-1, k + 1):
                for side in ("left", "right"):
                    with pytest.raises(ValueError, match="generator index"):
                        basis_times_generator(w, letter, side)
    with pytest.raises(ValueError, match="side must be"):
        AlgebraElement.unit(4).times_generator(1, "middle")


@pytest.mark.parametrize("i", [99, -1])
def test_times_generator_checks_the_index_without_a_term(i):
    # the fold checks an index only when it meets a term, and the zero
    # element has none
    for element in (AlgebraElement.zero(3), h(3, 1)):
        for side in ("left", "right"):
            with pytest.raises(ValueError, match=f"generator index must be in 0..3, got {i}"):
                element.times_generator(i, side)


def test_zero_coefficients_dropped():
    w = AffinePermutation.identity(3)
    assert AlgebraElement(3, [(w, 1), (w, -1)]).is_zero()
    assert len(AlgebraElement(3, [(w, 2), (w, 3)])) == 1


def test_unit_is_neutral():
    rng = random.Random(0)
    for _ in range(30):
        k = rng.randint(1, 4)
        a = random_element(rng, k)
        unit = AlgebraElement.unit(k)
        assert a * unit == a
        assert unit * a == a


def test_integer_scalar_multiplies_on_either_side():
    assert h(3, 1) * 2 == 2 * h(3, 1)
    assert (h(3, 1) * 2).coefficient(AffinePermutation.from_word(3, (1,))) == 2


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        AlgebraElement.unit(2) * AlgebraElement.unit(3)


def test_multiply_associative():
    rng = random.Random(1)
    for _ in range(25):
        k = rng.randint(1, 4)
        a = random_element(rng, k, n_terms=2, max_len=4)
        b = random_element(rng, k, n_terms=2, max_len=4)
        c = random_element(rng, k, n_terms=2, max_len=4)
        assert (a * b) * c == a * (b * c)


def test_h1_squared_support():
    # independent expansion: all ordered pairs (i, j), i != j, of length
    # two; non adjacent indices commute so those pairs collapse in the
    # canonical basis with coefficient two
    k = 4
    expected: dict[AffinePermutation, int] = {}
    for i in range(5):
        for j in range(5):
            if i != j:
                w = AffinePermutation.from_word(k, (i, j))
                expected[w] = expected.get(w, 0) + 1
    product = h(k, 1) * h(k, 1)
    assert product == AlgebraElement(k, expected)
    assert len(product) == 15
    coeffs = sorted(c for _, c in product.items())
    assert coeffs == [1] * 10 + [2] * 5
    assert sum(coeffs) == 20


def test_h_commute_exhaustive():
    for k in range(1, 6):
        hs = [h(k, i) for i in range(k + 1)]
        for i in range(k + 1):
            for j in range(i, k + 1):
                assert hs[i] * hs[j] == hs[j] * hs[i], (k, i, j)


def test_cyclically_decreasing_words():
    assert cyclically_decreasing_word(4, {3, 4}) == (4, 3)
    assert cyclically_decreasing_word(4, {0, 1}) == (1, 0)
    assert cyclically_decreasing_word(4, {0, 4}) == (0, 4)  # wraps: 0 follows 4
    assert cyclically_decreasing_word(4, {0, 1, 4}) == (1, 0, 4)
    assert cyclically_decreasing_word(4, {2}) == (2,)
    assert cyclically_decreasing_word(3, ()) == ()


def test_cyclically_decreasing_rejects_full_set():
    with pytest.raises(ValueError):
        cyclically_decreasing_word(4, {0, 1, 2, 3, 4})
    with pytest.raises(ValueError):
        cyclically_decreasing_word(4, {5})


def test_cyclically_decreasing_element_is_its_word_of_length_the_subset_size():
    for k in range(1, 6):
        for size in range(k + 1):
            for subset in combinations(range(k + 1), size):
                w = cyclically_decreasing(k, subset)
                assert w == AffinePermutation.from_word(k, cyclically_decreasing_word(k, subset))
                assert w.length() == size
        with pytest.raises(ValueError):
            cyclically_decreasing(k, range(k + 1))


def test_cyclically_decreasing_refuses_a_word_that_is_not_reduced(monkeypatch):
    # distinct letters are always reduced, so only a faulty word builder
    # reaches the check: the element must raise, not be None
    monkeypatch.setattr(nilcoxeter, "cyclically_decreasing_word", lambda k, indices: (1, 1))
    with pytest.raises(IdentityError, match="is not reduced"):
        cyclically_decreasing(3, {1})


def test_cyclically_decreasing_adjacency_order():
    # whenever j and j+1 both occur, j+1 is written before j
    for k in range(1, 6):
        for size in range(k + 1):
            for subset in combinations(range(k + 1), size):
                word = cyclically_decreasing_word(k, subset)
                assert sorted(word) == sorted(subset)
                for j in subset:
                    if (j + 1) % (k + 1) in subset:
                        assert word.index((j + 1) % (k + 1)) < word.index(j)


def test_h_known_tables_k4():
    assert h(4, 0) == AlgebraElement.unit(4)
    assert h(4, 1) == element_from_words(4, [(i,) for i in range(5)])
    assert h(4, 2) == element_from_words(
        4,
        [(1, 0), (2, 1), (3, 2), (4, 3), (0, 4),
         (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)],
    )
    assert h(4, 3) == element_from_words(
        4,
        [(2, 1, 0), (3, 2, 1), (4, 3, 2), (0, 4, 3), (1, 0, 4),
         (1, 0, 3), (0, 4, 2), (0, 3, 2), (4, 3, 1), (4, 2, 1)],
    )
    assert h(4, 4) == element_from_words(
        4,
        [(4, 3, 2, 1), (0, 4, 3, 2), (1, 0, 4, 3), (2, 1, 0, 4), (3, 2, 1, 0)],
    )


def test_h_term_counts():
    from math import comb

    for k in range(1, 8):
        for i in range(k + 1):
            elem = h(k, i)
            assert len(elem) == comb(k + 1, i)
            assert all(c == 1 for _, c in elem.items())
            assert all(w.length() == i for w, _ in elem.items())


@pytest.mark.parametrize(
    "words, fault",
    [([(1,), (1,)], "repeats an earlier term"), ([(1, 1)], "the product is zero")],
    ids=["repeated", "dead"],
)
def test_h_rejects_repeated_or_dead_word(monkeypatch, words, fault):
    monkeypatch.setattr(nilcoxeter, "h_words", lambda k, i: words)
    with pytest.raises(IdentityError, match=fault):
        h(3, 1)


def test_h_product_bounds():
    assert h_product(3, ()) == AlgebraElement.unit(3)
    with pytest.raises(ValueError):
        h_product(3, (4,))
    # h_0 is the unit, so without the check a part 0 would pass unnoticed
    with pytest.raises(ValueError, match=r"parts must be in 1\.\.3, got 0"):
        h_product(3, (0,))


def test_h_product_order_invariant():
    rng = random.Random(2)
    for _ in range(10):
        k = rng.randint(2, 4)
        mu = tuple(rng.randint(1, k) for _ in range(3))
        results = {tuple(p): h_product(k, p) for p in permutations(mu)}
        first = next(iter(results.values()))
        assert all(r == first for r in results.values())


def test_h_linear_combination_matches_ten_words():
    combo = (
        h_product(4, (2, 2, 2))
        - 2 * h_product(4, (3, 2, 1))
        + h_product(4, (3, 3))
        + h_product(4, (4, 1, 1))
        - h_product(4, (4, 2))
    )
    assert combo == element_from_words(4, TEN_WORDS_K4)


def test_act_on_core_by_w_of_partition():
    for k in range(1, 5):
        for n in range(6):
            for lam in k_bounded_partitions(n, k):
                from kschur.cores import w_of_partition

                elem = AlgebraElement.basis(w_of_partition(lam, k))
                assert act_on_core(elem, ()) == {bounded_to_core(lam, k): 1}


def local_cyclic_word(indices, n):
    # test-local builder: heads first within each maximal cyclic run
    subset = set(indices)
    word = []
    for a in sorted(subset):
        if (a - 1) % n in subset:
            continue
        run = [a]
        while (run[-1] + 1) % n in subset:
            run.append((run[-1] + 1) % n)
        word.extend(reversed(run))
    return word


def test_h_action_on_empty_core_matches_subset_enumeration():
    from kschur.cores import apply_word_nil

    for k in range(1, 5):
        for i in range(k + 1):
            expected: dict = {}
            for subset in combinations(range(k + 1), i):
                res = apply_word_nil((), local_cyclic_word(subset, k + 1), k)
                if res is not None:
                    expected[res] = expected.get(res, 0) + 1
            assert act_on_core(h(k, i), ()) == expected
            assert all(c == 1 for c in expected.values())


def test_act_on_core_word_form():
    assert act_on_core((1,), (6, 4, 3, 1), k=4) == {(7, 4, 4, 1, 1): 1}
    assert act_on_core((0,), (6, 4, 3, 1), k=4) == {}
    with pytest.raises(ValueError, match="k is required"):
        act_on_core((1,), (6, 4, 3, 1))


def test_act_on_core_rejects_a_rank_other_than_the_elements():
    assert act_on_core(h(3, 1), (), k=3) == {(1,): 1}
    with pytest.raises(ValueError, match="rank mismatch: element has k=3, got k=7"):
        act_on_core(h(3, 1), (), k=7)


def test_act_on_core_rejects_an_index_past_k():
    with pytest.raises(ValueError, match="generator index must be in 0..4, got 9"):
        act_on_core((9,), (6, 4, 3, 1), k=4)
    # read rightmost first, u_0 kills the core before u_9 is reached
    with pytest.raises(ValueError, match="generator index must be in 0..4, got 9"):
        act_on_core((9, 0), (6, 4, 3, 1), k=4)


def test_kschur_base_cases():
    assert kschur(3, ()) == AlgebraElement.unit(3)
    for k in range(1, 5):
        for i in range(1, k + 1):
            assert kschur(k, (i,)) == h(k, i)
    with pytest.raises(ValueError):
        kschur(3, (4,))


def test_kschur_rectangle_expansion_k4():
    assert kschur(4, (2, 2, 2)) == element_from_words(4, TEN_WORDS_K4)


def test_kschur_acts_as_single_core():
    for k in range(1, 5):
        for n in range(6):
            for lam in k_bounded_partitions(n, k):
                assert act_on_core(kschur(k, lam), ()) == {bounded_to_core(lam, k): 1}


def test_kschur_is_graded():
    rng = random.Random(3)
    for _ in range(15):
        k = rng.randint(1, 4)
        n = rng.randint(0, 6)
        lam = rng.choice(k_bounded_partitions(n, k))
        elem = kschur(k, lam)
        assert all(w.length() == n for w, _ in elem.items())


def test_kschur_coefficients_nonnegative_at_small_scale():
    for k in range(1, 5):
        for n in range(7):
            for lam in k_bounded_partitions(n, k):
                assert not negative_terms(kschur(k, lam)), (k, lam)


def test_kschur_h_expansion_example():
    assert kschur_h_expansion(4, (2, 2, 2)) == {
        (2, 2, 2): 1,
        (3, 2, 1): -2,
        (3, 3): 1,
        (4, 1, 1): 1,
        (4, 2): -1,
    }
    assert kschur_h_expansion(3, (2,)) == {(2,): 1}
    assert kschur_h_expansion(2, ()) == {(): 1}


def test_kschur_h_expansion_reassembles():
    rng = random.Random(4)
    for _ in range(12):
        k = rng.randint(1, 4)
        n = rng.randint(0, 7)
        lam = rng.choice(k_bounded_partitions(n, k))
        expansion = kschur_h_expansion(k, lam)
        total = AlgebraElement.zero(k)
        for mu, coeff in expansion.items():
            total = total + coeff * h_product(k, mu)
        assert total == kschur(k, lam), (k, lam)


def test_h_expansion_builds_no_element(monkeypatch):
    # the h-expansion is read off the k-Pieri rule on cores: no product of
    # elements, so no solve, is run for it
    def refuse(*args):
        raise RuntimeError("element product called")

    monkeypatch.setattr(nilcoxeter, "_fold", refuse)
    nilcoxeter.clear_memo()
    assert kschur_h_expansion(4, (2, 2, 2)) == {
        (2, 2, 2): 1,
        (3, 2, 1): -2,
        (3, 3): 1,
        (4, 1, 1): 1,
        (4, 2): -1,
    }
    assert nilcoxeter._solve.cache_info().currsize == 0
    nilcoxeter.clear_memo()


def _dropping_lam(k, rest, i):
    # h_2 s_(1) at k=3 without its own term s_(2,1)
    return [nu for nu in pieri_partitions(k, rest, i) if nu != (2, 1)]


def _adding_first_part_i(k, rest, i):
    # every partition of the degree with first part i added: s_(2,2) and
    # s_(2,1,1) at k=3 would then each be solved through the other
    extra = {nu for nu in k_bounded_partitions(sum(rest) + i, k) if nu[0] == i}
    return sorted(set(pieri_partitions(k, rest, i)) | extra)


@pytest.mark.parametrize(
    "lam, fake",
    [((2, 1), _dropping_lam), ((2, 2), _adding_first_part_i)],
    ids=["lam missing", "nu_1 <= lam_1"],
)
def test_h_expansion_rejects_bad_pieri_set(monkeypatch, lam, fake):
    # a wrong k-Pieri set must raise at the step, not end in a wrong
    # expansion or a recursion that never ends
    monkeypatch.setattr(nilcoxeter, "pieri_partitions", fake)
    nilcoxeter.clear_memo()
    with pytest.raises(IdentityError, match="s_nu over"):
        kschur_h_expansion(3, lam)
    nilcoxeter.clear_memo()


def test_grassmannians_are_built_once_for_the_solve_and_the_cache(monkeypatch, tmp_path):
    # the step, the certificate of every result and the certificate of a
    # cache hit read one table of (nu, w_nu) per degree
    built = Counter()
    real = nilcoxeter.w_of_partition

    def counting(parts, k):
        built[(k, tuple(parts))] += 1
        return real(parts, k)

    monkeypatch.setattr(nilcoxeter, "w_of_partition", counting)
    nilcoxeter.clear_memo()
    lam = (3, 3, 2, 2)
    cache = ExpansionCache(tmp_path)
    cache.put(ExpansionDocument.from_element(lam, kschur(5, lam)))
    assert cache.get(5, lam) is not None
    assert (5, lam) in built and set(built.values()) == {1}, built
    nilcoxeter.clear_memo()
    cache.get(5, lam)
    assert built[(5, lam)] == 2  # clear_memo clears the table too
    nilcoxeter.clear_memo()


def _memo_sizes():
    tables = (
        nilcoxeter._kschur, nilcoxeter._solve, nilcoxeter._h_expansion,
        nilcoxeter._grassmannians, h_words,
    )
    return [table.cache_info().currsize for table in tables]


def test_clear_memo_empties_every_table():
    nilcoxeter.clear_memo()
    assert _memo_sizes() == [0] * 5
    kschur(3, (2, 1))
    kschur_h_expansion(3, (2, 1))
    assert all(_memo_sizes()), _memo_sizes()
    nilcoxeter.clear_memo()
    assert _memo_sizes() == [0] * 5


def reflected_element(x):
    """The image of an element under the Dynkin reflection u_i -> u_{-i}."""
    return AlgebraElement(x.k, [(w.reflect_indices(), c) for w, c in x.items()])


def test_reflected_h_is_the_kschur_function_of_a_column():
    # ω sends h_i to s_(1^i), and it acts on the algebra as the reflection
    nilcoxeter.clear_memo()
    for k in range(1, 9):
        for i in range(1, k + 1):
            assert reflected_element(h(k, i)) == kschur(k, (1,) * i), (k, i)
    nilcoxeter.clear_memo()


def test_solve_commutes_with_k_conjugation():
    # the solve of lam and the reflected solve of its k-conjugate, both
    # without the map that kschur applies, are one element
    nilcoxeter.clear_memo()
    count = 0
    for k in range(1, 7):
        for n in range(9):
            for lam in k_bounded_partitions(n, k):
                mate = core_to_bounded(conjugate(bounded_to_core(lam, k)), k)
                assert nilcoxeter._solve(k, lam) == reflected_element(nilcoxeter._solve(k, mate)), (k, lam)
                count += 1
    assert count == 252
    nilcoxeter.clear_memo()


def test_kschur_solves_the_conjugate_with_the_larger_first_part(monkeypatch):
    # (1,1,1) at k=4 is mapped from the solve of (3,); (2,1) is its own mate
    nilcoxeter.clear_memo()
    solved = []
    real = nilcoxeter._solve
    monkeypatch.setattr(nilcoxeter, "_solve", lambda k, lam: solved.append(lam) or real(k, lam))
    assert kschur(4, (1, 1, 1)) == reflected_element(h(4, 3))
    assert (3,) in solved and (1, 1, 1) not in solved
    solved.clear()
    kschur(4, (2, 1))
    assert solved[0] == (2, 1)
    monkeypatch.undo()  # a patched _solve has no cache_clear
    nilcoxeter.clear_memo()


def test_a_mapped_solve_is_certified(monkeypatch):
    # the mate's solve mapped without the reflection is h_3, not s_(1,1,1):
    # the certificate must refuse it rather than return it
    nilcoxeter.clear_memo()
    monkeypatch.setattr(nilcoxeter, "reflected", lambda win: win)
    with pytest.raises(IdentityError, match=r"\(1, 1, 1\) at k=4"):
        kschur(4, (1, 1, 1))
    nilcoxeter.clear_memo()


def test_a_repeated_core_image_raises(monkeypatch):
    # distinct group elements never carry one core to the same core, so an
    # action that sends every word to one core is refused, not merged
    monkeypatch.setattr(cores, "_apply_letters", lambda core, letters, k: (1,))
    with pytest.raises(IdentityError, match=r"repeats the image \(1,\) of \(\) at k=3"):
        act_on_core(h(3, 1), ())
    with pytest.raises(IdentityError, match=r"repeats the image \(1,\) of \(\) at k=3"):
        pieri_partitions(3, (), 1)


def test_h_words_are_a_kept_tuple_and_still_range_checked():
    nilcoxeter.clear_memo()
    words = h_words(3, 2)
    assert isinstance(words, tuple) and all(isinstance(word, tuple) for word in words)
    assert h_words(3, 2) is words
    h_words(3, 3)
    for i in (4, -1):
        with pytest.raises(ValueError, match=rf"h index must be in 0\.\.3, got {i}"):
            h_words(3, i)
    nilcoxeter.clear_memo()


def test_words_of_an_element_are_read_once(monkeypatch):
    calls = []
    real = AffinePermutation.reduced_word
    monkeypatch.setattr(AffinePermutation, "reduced_word", lambda w: calls.append(w) or real(w))
    element = h(3, 2) + h(3, 1)
    words = element._words()
    assert isinstance(words, tuple)
    assert element._words() is words
    assert len(calls) == len(element) == 10
    assert words == tuple((real(w), c) for w, c in element.items())
    with pytest.raises(AttributeError, match="immutable"):
        element._reduced = ()


def _twice_s1():
    return 2 * kschur(3, (1,))


def _s2_plus_s11():
    # h_2 (s_2 + s_11) = s_22 + s_31 + s_211 at k=3: coefficient 1 on w_22
    return kschur(3, (2,)) + kschur(3, (1, 1))


@pytest.mark.parametrize(
    "lam, rest, fake",
    [
        ((2, 1), (1,), lambda: AlgebraElement.zero(3)),
        ((2, 1), (1,), _twice_s1),
        ((2, 2), (2,), _s2_plus_s11),
    ],
    ids=["lam missing", "lam twice", "nu_1 <= lam_1"],
)
def test_pieri_step_rejects_bad_strip(monkeypatch, lam, rest, fake):
    # a wrong s_rest from the solve gives the step a coefficient other than
    # 1 on w_lam, or an excess on some nu with nu_1 <= lam_1; the step must
    # raise before it solves any nu, else a wrong result or a recursion
    # that never ends could follow
    nilcoxeter.clear_memo()
    entry = fake()
    nilcoxeter.clear_memo()
    solved = []
    real = nilcoxeter._solve

    def recording(k, nu):
        solved.append(nu)
        return entry if (k, nu) == (3, rest) else real(k, nu)

    monkeypatch.setattr(nilcoxeter, "_solve", recording)
    with pytest.raises(IdentityError):
        kschur(3, lam)
    assert solved == [lam, rest]
    monkeypatch.undo()  # a patched _solve has no cache_clear
    nilcoxeter.clear_memo()


def test_solve_rejects_term_after_lam(monkeypatch):
    # h_2 s_1 = s_21 + s_3 at k=3; with the solve of s_3 faked to zero the
    # step subtracts nothing and leaves s_21 + s_3, which only the
    # certificate of the result can refuse
    nilcoxeter.clear_memo()
    real = nilcoxeter._solve
    zero = AlgebraElement.zero(3)
    monkeypatch.setattr(
        nilcoxeter, "_solve", lambda k, lam: zero if (k, lam) == (3, (3,)) else real(k, lam)
    )
    excess = r"\(2, 1\) at k=3: coefficient minus delta on w_nu is \{\(3,\): 1\}"
    with pytest.raises(IdentityError, match=excess):
        kschur(3, (2, 1))
    monkeypatch.undo()  # a patched _solve has no cache_clear
    nilcoxeter.clear_memo()


def triangular_solve(k, lam, memo):
    """The k-Schur function of lam and its h-expansion by peeling h_lam,
    the former solve, kept as an oracle: h_lam is s_lam plus c times s_nu
    for each nu before lam in decreasing lex order, c the coefficient of
    u(w_nu) in h_lam, and 0 on every w_nu after lam."""
    if lam not in memo:
        hprod = h_product(k, lam)
        partitions = k_bounded_partitions(sum(lam), k)
        at = partitions.index(lam)
        for nu in partitions[at:]:
            assert hprod.coefficient(w_of_partition(nu, k)) == (nu == lam), (k, lam, nu)
        element, expansion = hprod, {lam: 1}
        for nu in partitions[:at]:
            c = hprod.coefficient(w_of_partition(nu, k))
            if c:
                nu_element, nu_expansion = triangular_solve(k, nu, memo)
                element = element - c * nu_element
                for mu, d in nu_expansion.items():
                    expansion[mu] = expansion.get(mu, 0) - c * d
        memo[lam] = (element, {mu: d for mu, d in expansion.items() if d})
    return memo[lam]


def test_pieri_step_matches_triangular_solve():
    for k in range(1, 6):
        memo = {}
        for n in range(7 if k == 5 else 8):
            for lam in k_bounded_partitions(n, k):
                element, expansion = triangular_solve(k, lam, memo)
                assert kschur(k, lam) == element, (k, lam)
                assert kschur_h_expansion(k, lam) == expansion, (k, lam)


def test_pieri_partitions_match_product():
    for k in range(1, 4):
        for n in range(6):
            for lam in k_bounded_partitions(n, k):
                for i in range(1, k + 1):
                    lhs = h(k, i) * kschur(k, lam)
                    rhs = AlgebraElement.zero(k)
                    for mu in pieri_partitions(k, lam, i):
                        rhs = rhs + kschur(k, mu)
                    assert lhs == rhs, (k, lam, i)


@pytest.mark.parametrize("i", [-1, 4, 5])
def test_h_index_outside_0_to_k_raises(i):
    # h, the solve and pieri_partitions share h_words and its range check
    message = rf"h index must be in 0\.\.3, got {i}"
    with pytest.raises(ValueError, match=message):
        pieri_partitions(3, (1,), i)
    with pytest.raises(ValueError, match=message):
        h(3, i)


def test_verify_pieri_report():
    report = verify_pieri(2, max_size=3)
    assert report.passed
    assert all(c.seconds >= 0 for c in report.checks)


def test_verify_pieri_builds_each_h_once(monkeypatch):
    calls = Counter()
    real = nilcoxeter.h
    monkeypatch.setattr(nilcoxeter, "h", lambda k, i: calls.update([(k, i)]) or real(k, i))
    report = verify_pieri(3, max_size=3)
    assert report.passed and len(report.checks) > 1
    assert calls == {(3, i): 1 for i in range(1, 4)}


def test_verify_pieri_is_independent_of_the_solve(monkeypatch):
    # a Pieri set that drops (3,) from h_2 s_(1) at k=3 must fail the sweep,
    # and must not move any k-Schur function, which the solve reads off the
    # algebra alone
    nilcoxeter.clear_memo()
    partitions = [lam for n in range(7) for lam in k_bounded_partitions(n, 3)]
    before = [kschur(3, lam) for lam in partitions]

    def dropping(k, lam, i):
        found = pieri_partitions(k, lam, i)
        return [mu for mu in found if mu != (3,)] if (k, lam, i) == (3, (1,), 2) else found

    monkeypatch.setattr(nilcoxeter, "pieri_partitions", dropping)
    nilcoxeter.clear_memo()
    assert [kschur(3, lam) for lam in partitions] == before
    report = verify_pieri(3, max_size=3)
    assert not report.passed
    assert [c.details for c in report.checks if not c.passed] == [
        {"k": 3, "partition": [1], "failed_at": 2}
    ]


def test_solve_and_lr_coefficient_use_no_core_action(monkeypatch):
    # the core action is an oracle the algebra is checked against, so
    # neither the solve nor lr_coefficient may call it; every core action
    # steps through cores._s_step
    expected = by_windows(Rectangle(4, cols=2, rows=3))

    def refuse(*args):
        raise RuntimeError("core action called")

    monkeypatch.setattr(cores, "_s_step", refuse)
    nilcoxeter.clear_memo()
    assert kschur(4, (2, 2, 2)) == expected
    assert lr_coefficient(4, (2, 2, 2), (1,), (2, 2, 2, 1)) == 1
    nilcoxeter.clear_memo()
    # the patched step does guard the core action
    with pytest.raises(RuntimeError, match="core action called"):
        pieri_partitions(4, (2, 2, 2), 1)


def test_lr_coefficient_identity_cases():
    for k in range(1, 4):
        for n in range(5):
            for lam in k_bounded_partitions(n, k):
                assert lr_coefficient(k, lam, (), lam) == 1
                assert lr_coefficient(k, (), lam, lam) == 1


def test_lr_coefficient_size_mismatch():
    assert lr_coefficient(3, (2,), (1,), (2,)) == 0
    assert lr_coefficient(3, (2,), (1,), (2, 2)) == 0


def test_lr_coefficient_rectangle_factorization():
    from kschur.cores import union_partitions

    rng = random.Random(5)
    for k in range(1, 5):
        for rows in range(1, k + 1):
            rect = (k + 1 - rows,) * rows
            for _ in range(4):
                n = rng.randint(0, 4)
                lam = rng.choice(k_bounded_partitions(n, k))
                assert lr_coefficient(k, rect, lam, union_partitions(lam, rect)) == 1


def test_lr_coefficients_reassemble_products():
    for k in range(1, 4):
        for total in range(5):
            for na in range(total + 1):
                for lam in k_bounded_partitions(na, k):
                    for mu in k_bounded_partitions(total - na, k):
                        product = kschur(k, lam) * kschur(k, mu)
                        combo = AlgebraElement.zero(k)
                        for nu in k_bounded_partitions(total, k):
                            c = lr_coefficient(k, lam, mu, nu)
                            assert c >= 0
                            if c:
                                combo = combo + c * kschur(k, nu)
                        assert combo == product, (k, lam, mu)


def test_lr_coefficient_matches_product_coefficients():
    # the coefficient of u(w_nu) in a product of k-Schur functions is the
    # structure constant of nu, since s_rho has coefficient delta on w_nu
    triples = 0
    for k in range(1, 4):
        for na in range(4):
            for nb in range(4):
                for lam in k_bounded_partitions(na, k):
                    for mu in k_bounded_partitions(nb, k):
                        product = kschur(k, lam) * kschur(k, mu)
                        for nu in k_bounded_partitions(na + nb, k):
                            expected = product.coefficient(w_of_partition(nu, k))
                            assert lr_coefficient(k, lam, mu, nu) == expected, (k, lam, mu, nu)
                            triples += 1
    assert triples == 315


def test_str_and_repr():
    elem = h(2, 1)
    assert repr(elem) == "AlgebraElement(k=2, terms=3)"
    assert str(elem) == "+1·u0 +1·u2 +1·u1"
    assert str(AlgebraElement.zero(2)) == "0"
    assert str(AlgebraElement.unit(2)) == "+1·1"


def test_algebra_element_public_surface():
    k = 3
    words = [(2, 1, 3, 2), (), (3, 2, 1), (0,), (1, 2)]
    ws = [AffinePermutation.from_word(k, word) for word in words]
    coeffs = [2, -1, 3, 1, -4]
    elem = AlgebraElement(k, dict(zip(ws, coeffs)))
    assert elem == AlgebraElement(k, list(zip(ws, coeffs)))
    assert elem == AlgebraElement(k, ((w, c) for w, c in zip(ws, coeffs)))
    assert AlgebraElement(k, [(ws[0], 1), (ws[0], -1)]).is_zero()
    by_window = sorted(zip(ws, coeffs), key=lambda pair: pair[0].window)
    assert elem.items() == by_window
    assert elem.support() == [w for w, _ in by_window]
    assert all(type(w) is AffinePermutation for w in elem.support())
    for w, c in zip(ws, coeffs):
        assert elem.coefficient(w) == c
    assert elem.coefficient(AffinePermutation.from_word(k, (0, 1))) == 0
    assert elem.coefficient(AffinePermutation.identity(k + 1)) == 0
    for other in (AffinePermutation.identity(k + 1), AffinePermutation.identity(k - 1)):
        with pytest.raises(ValueError, match="rank mismatch"):
            AlgebraElement(k, {other: 1})
        with pytest.raises(ValueError, match="rank mismatch"):
            AlgebraElement(k, [(ws[0], 1), (other, 1)])
    assert AlgebraElement.__hash__ is None
    with pytest.raises(TypeError):
        hash(elem)

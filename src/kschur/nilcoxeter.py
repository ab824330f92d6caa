"""The affine nilCoxeter algebra and k-Schur functions in its standard basis.

The algebra is generated by u_0, ..., u_k with the braid relations of
the affine symmetric group and u_i^2 = 0.  Products of generators along
reduced words give the standard basis {u(w)}, indexed by group elements;
a product u(w) u_i is u(w s_i) when the length goes up and 0 otherwise.
Elements are sparse integer combinations keyed by canonical windows, as
plain tuples: group elements are built only where they leave an element.

The complete homogeneous analogues h_i (sums of cyclically decreasing
products over i-subsets of the generator indices) commute pairwise.  In
the subring they generate, the k-Schur function s_lam is the element with
coefficient delta_{lam nu} on u(w_nu) for every Grassmannian w_nu of its
degree; the solve reads each k-Pieri step off these coefficients alone
and returns the element only, and `kschur` solves whichever of lam and
its k-conjugate has the larger first part (see `_kschur`).  The
h-expansion of s_lam is read off the k-Pieri rule on cores instead
(`pieri_partitions`), which the Pieri sweep checks against the algebra,
so the core action stays an independent oracle.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .affine import (
    AffinePermutation,
    _check_rank,
    _index,
    _ints,
    clip,
    fold_reduced,
    fold_reduced_left,
    reflected,
)
from .cores import (
    Partition,
    apply_word_nil,
    as_bounded,
    as_partition,
    bounded_to_core,
    conjugate,
    core_to_bounded,
    k_bounded_partitions,
    reading_word,
    union_partitions,
    w_of_partition,
    word_images,
)
from .reports import IdentityError, Report, timed


def basis_times_generator(
    w: AffinePermutation, i: int, side: str = "right"
) -> Optional[AffinePermutation]:
    """u(w) * u_i (or u_i * u(w) for side="left"): the length-increasing
    product, or None when the length would drop (u_i^2 = 0)."""
    win = list(w.window)
    return AffinePermutation._of(w.k, tuple(win)) if _side_fold(side)(win, (i,)) else None


def _side_fold(side: str) -> Callable:
    """The window fold that multiplies by generators on the given side."""
    if side == "right":
        return fold_reduced
    if side == "left":
        return fold_reduced_left
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


class AlgebraElement:
    """Sparse integer combination of standard basis elements u(w).

    Immutable: operations return new elements.  Terms are keyed by window
    tuple; terms with coefficient zero are never stored.  The reduced words
    of the terms are read on first use and kept (see `_words`).  The
    constructor refuses a coefficient that is not an int (`affine._ints`).
    """

    __slots__ = ("k", "_terms", "_reduced")

    def __init__(
        self,
        k: int,
        terms: Union[Mapping[AffinePermutation, int], Iterable[tuple[AffinePermutation, int]]] = (),
    ):
        _check_rank(k)
        items = tuple(terms.items() if isinstance(terms, Mapping) else terms)
        _ints((c for _, c in items), "coefficients")
        acc: dict[tuple[int, ...], int] = {}
        for w, c in items:
            if w.k != k:
                raise ValueError(f"rank mismatch: element has k={k}, term has k={w.k}")
            acc[w.window] = acc.get(w.window, 0) + c
        self._set(k, acc)

    @classmethod
    def _of_windows(cls, k: int, terms: Mapping[tuple[int, ...], int]) -> "AlgebraElement":
        """Unchecked: the windows come from elements of rank k already."""
        element = object.__new__(cls)
        element._set(k, terms)
        return element

    def _set(self, k: int, terms: Mapping[tuple[int, ...], int]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "_terms", {w: c for w, c in terms.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def zero(cls, k: int) -> "AlgebraElement":
        return cls(k)

    @classmethod
    def unit(cls, k: int) -> "AlgebraElement":
        return cls(k, [(AffinePermutation.identity(k), 1)])

    @classmethod
    def basis(cls, w: AffinePermutation) -> "AlgebraElement":
        return cls(w.k, [(w, 1)])

    def coefficient(self, w: AffinePermutation) -> int:
        return self._terms.get(w.window, 0)

    def support(self) -> list[AffinePermutation]:
        return [w for w, _ in self.items()]

    def items(self) -> list[tuple[AffinePermutation, int]]:
        return [(AffinePermutation._of(self.k, w), self._terms[w]) for w in sorted(self._terms)]

    def _words(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The (reduced word, coefficient) pairs of the terms, in items()
        order, read on the first call and kept: threads that read them at
        once store equal tuples.

        A kept word is always the term's `reduced_word()`, whoever kept it,
        so documents print the same bytes either way.  Besides the first
        call, only `_keep_words` stores them, and only for the words of the
        pseudo-translation walk, which peels with period k+1 as
        `reduced_word` does; the walk of `alcove_of` peels with another
        period, so its word may differ and must not seed them."""
        try:
            return self._reduced
        except AttributeError:
            words = tuple((w.reduced_word(), c) for w, c in self.items())
            object.__setattr__(self, "_reduced", words)
            return words

    def _keep_words(self, words: Mapping[tuple[int, ...], tuple[int, ...]]) -> "AlgebraElement":
        """Keep the `reduced_word()` of each term, given by window, for
        `_words` (see there for who may call this); returns self."""
        kept = tuple((words[w], c) for w, c in sorted(self._terms.items()))
        object.__setattr__(self, "_reduced", kept)
        return self

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.k == other.k and self._terms == other._terms

    __hash__ = None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_rank(other)
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms.get(w, 0) + c
        return AlgebraElement._of_windows(self.k, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._of_windows(self.k, {w: -c for w, c in self._terms.items()})

    def __rmul__(self, scalar: int) -> "AlgebraElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return AlgebraElement._of_windows(self.k, {w: scalar * c for w, c in self._terms.items()})

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, int):
            return self.__rmul__(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_rank(other)
        return AlgebraElement._of_windows(self.k, _fold(fold_reduced, self._terms, other._words()))

    def times_generator(self, i: int, side: str = "right") -> "AlgebraElement":
        """Product with a single generator u_i on the given side: distinct
        terms stay distinct, as w -> w s_i and w -> s_i w are bijections."""
        _index(i, 0, self.k, "generator index")
        return AlgebraElement._of_windows(self.k, _fold(_side_fold(side), self._terms, [((i,), 1)]))

    def _check_rank(self, other: "AlgebraElement") -> None:
        if self.k != other.k:
            raise ValueError(f"rank mismatch: {self.k} != {other.k}")

    def __repr__(self) -> str:
        return f"AlgebraElement(k={self.k}, terms={len(self._terms)})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for word, c in self._words():
            text = " ".join(f"u{i}" for i in word) or "1"
            bits.append(f"{c:+d}·{text}")
        return " ".join(bits)


def _fold(fold: Callable, terms: Mapping[tuple[int, ...], int], words: Sequence[tuple]) -> dict:
    """The sum of c*d u(w) u(word) (u(word) u(w) when fold is
    `fold_reduced_left`) over the window-keyed terms w: c and the pairs
    (word, d), word reduced: each word folds onto each w, and the fold
    drops a product whose length does not add up."""
    acc: dict[tuple[int, ...], int] = {}
    for w, c in terms.items():
        for word, d in words:
            win = list(w)
            if fold(win, word):
                v = tuple(win)
                acc[v] = acc.get(v, 0) + c * d
    return acc


def cyclically_decreasing_word(k: int, indices: Iterable[int]) -> tuple[int, ...]:
    """The canonical word of the cyclically decreasing product of the
    distinct generators u_m, m in the given strict subset of 0..k:
    whenever j and j+1 (mod k+1) both occur, j+1 is written first."""
    n = k + 1
    subset = set(indices)
    if not subset <= set(range(n)):
        raise ValueError(f"indices must lie in 0..{k}: {clip(sorted(subset))}")
    if len(subset) > k:
        raise ValueError(f"subset must be strict in 0..{k}: {clip(sorted(subset))}")
    word: list[int] = []
    for tail in sorted(subset):
        if (tail - 1) % n in subset:
            continue
        run = [tail]
        while (run[-1] + 1) % n in subset:
            run.append((run[-1] + 1) % n)
        word.extend(reversed(run))
    return tuple(word)


def cyclically_decreasing(k: int, indices: Iterable[int]) -> AffinePermutation:
    """Group element of the cyclically decreasing product; its word is
    reduced since the letters are distinct."""
    word = cyclically_decreasing_word(k, indices)
    w = AffinePermutation.identity(k).times_reduced(word)
    if w is None:
        raise IdentityError(f"cyclically decreasing word {word} is not reduced")
    return w


def h(k: int, i: int) -> AlgebraElement:
    """Sum of the cyclically decreasing products over all i-subsets of
    the generator indices; binomial(k+1, i) terms, all coefficient 1.

    >>> len(h(4, 2))
    10
    """
    e = AffinePermutation.identity(k)
    return distinct_sum(k, f"h_{i} at k={k}", ((word, e.times_reduced(word)) for word in h_words(k, i)))


@functools.lru_cache(maxsize=None, typed=True)
def h_words(k: int, i: int) -> tuple[tuple[int, ...], ...]:
    """The binomial(k+1, i) cyclically decreasing words of h_i, one for
    each i-subset of the generator indices, built once until `clear_memo`;
    typed, so that a float or bool i, equal to an int, is not read from the
    memo unchecked."""
    _index(i, 0, k, "h index")
    return tuple(cyclically_decreasing_word(k, subset) for subset in combinations(range(k + 1), i))


def distinct_sum(
    k: int, what: str, labelled: Iterable[tuple[object, Optional[AffinePermutation]]]
) -> AlgebraElement:
    """The multiplicity-free sum of u(w) over the (label, w) pairs, each
    with coefficient one.  A w that is None (a product that died) or
    repeats an earlier one raises IdentityError naming what and the label."""
    terms: dict[tuple[int, ...], int] = {}
    for label, w in labelled:
        if w is None or w.window in terms:
            fault = "the product is zero" if w is None else "repeats an earlier term"
            raise IdentityError(f"{what}, term {label}: {fault}")
        terms[w.window] = 1
    return AlgebraElement._of_windows(k, terms)


def h_product(k: int, mu: Sequence[int]) -> AlgebraElement:
    """Product h_{mu_1} * h_{mu_2} * ...; the factors commute, so the
    order of the parts does not matter."""
    result = AlgebraElement.unit(k)
    for part in mu:
        _index(part, 1, k, "parts")
        result = result * h(k, part)
    return result


def act_on_core(
    x: Union[AlgebraElement, Sequence[int]],
    core: Sequence[int],
    k: Optional[int] = None,
) -> dict[Partition, int]:
    """Linear action on the free abelian group with basis the cores.

    x is an AlgebraElement, of rank k if k is given, or a word of generator
    indices with k given explicitly.  Returns the formal sum as a dict
    core -> coefficient.  An element acts by the reduced words of its terms,
    which it reads once and keeps, so acting on many cores reads them once;
    distinct terms carry a core to distinct cores (see `cores.word_images`).
    """
    if isinstance(x, AlgebraElement):
        if k is not None and k != x.k:
            raise ValueError(f"rank mismatch: element has k={x.k}, got k={k}")
        return word_images(as_partition(core), x._words(), x.k)
    if k is None:
        raise ValueError("k is required when acting by a word")
    res = apply_word_nil(core, x, k)
    return {} if res is None else {res: 1}


def clear_memo() -> None:
    """Empty every per-process table: the k-Schur functions, the solve, the
    h-expansions, the Grassmannian tables and the words of each h_i."""
    _kschur.cache_clear()
    _solve.cache_clear()
    _h_expansion.cache_clear()
    _grassmannians.cache_clear()
    h_words.cache_clear()


def kschur(k: int, lam: Sequence[int]) -> AlgebraElement:
    """Standard-basis expansion of the k-Schur function of a k-bounded
    partition, solved by certified k-Pieri steps (see `_solve`), for it or
    for its k-conjugate (see `_kschur`)."""
    return _kschur(k, as_bounded(lam, k))


@functools.cache
def _kschur(k: int, lam: Partition) -> AlgebraElement:
    """s_lam through the ω_k symmetry when that is the cheaper side.  The
    mate lam^(ω_k), the k-bounded partition of the transposed core, has
    ω s_mate = s_lam (Lapointe-Morse), and ω acts on the algebra as the
    Dynkin reflection u_i -> u_(-i) (`affine.reflected` on windows).  When
    the mate's first part is larger, the mate is solved and its windows
    reflected: the reflection is an automorphism that sends h_i to
    s_(1^i), so it keeps the h-subring, where the δ certificate then proves
    the image is s_lam.  Otherwise lam is solved itself."""
    mate = core_to_bounded(conjugate(bounded_to_core(lam, k)), k)
    if mate[:1] <= lam[:1]:
        return _solve(k, lam)
    terms = {reflected(w): c for w, c in _solve(k, mate)._terms.items()}
    certify(k, lam, terms)
    return AlgebraElement._of_windows(k, terms)


def kschur_h_expansion(k: int, lam: Sequence[int]) -> dict[Partition, int]:
    """Coefficients of the k-Schur function on the products of h's:
    summing coeff * h_product(k, mu) over the returned map gives
    kschur(k, lam)."""
    return dict(_h_expansion(k, as_bounded(lam, k)))


@functools.cache
def _h_expansion(k: int, lam: Partition) -> dict[Partition, int]:
    """The h-expansion of s_lam by the k-Pieri rule on cores: with
    lam = (i,) + rest, h_i s_rest is the sum of s_nu over nu in
    pieri_partitions(k, rest, i), so s_lam is h_i s_rest less s_nu for
    every other nu, each with nu_1 > i (checked, so the recursion ends),
    taken in decreasing lex order as in the solve."""
    if not lam:
        return {(): 1}
    i, rest = lam[0], lam[1:]
    expansion = {union_partitions(mu, (i,)): c for mu, c in _h_expansion(k, rest).items()}
    strip = pieri_partitions(k, rest, i)
    others = [nu for nu in strip if nu != lam]
    if len(others) == len(strip) or any(nu[0] <= i for nu in others):
        raise IdentityError(
            f"h_{i} s_{rest} at k={k} is the sum of s_nu over {strip}, not s_{lam} plus nu_1 > {i}"
        )
    for nu in reversed(others):
        for mu, d in _h_expansion(k, nu).items():
            expansion[mu] = expansion.get(mu, 0) - d
    return {mu: d for mu, d in expansion.items() if d}


def certify(k: int, lam: Partition, terms: Mapping[tuple[int, ...], int]) -> None:
    """Raise IdentityError unless the window-keyed terms hold 1 on w_nu for
    nu = lam and 0 on w_nu for every other k-bounded nu with |nu| = |lam|:
    in degree |lam| of the h-subring, exactly the k-Schur function of lam."""
    if excess := _excess(k, lam, terms):
        raise IdentityError(f"{lam} at k={k}: coefficient minus delta on w_nu is {excess}")


@functools.cache
def _grassmannians(k: int, n: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """(nu, window of w_nu) for every k-bounded nu with |nu| = n, built once until `clear_memo`."""
    return tuple((nu, w_of_partition(nu, k).window) for nu in k_bounded_partitions(n, k))


def _excess(k: int, lam: Partition, terms: Mapping[tuple[int, ...], int]) -> dict:
    """The nonzero coefficient on w_nu less delta_{lam nu} in the window-keyed
    terms, over the nu of degree |lam|: in the h-subring, the multiplicity of
    s_nu less that of s_lam, since s_rho has coefficient delta_{rho nu} on w_nu."""
    excess = {nu: terms.get(w, 0) - (nu == lam) for nu, w in _grassmannians(k, sum(lam))}
    return {nu: c for nu, c in excess.items() if c}


@functools.cache
def _solve(k: int, lam: Partition) -> AlgebraElement:
    """The k-Schur function of lam by one k-Pieri step: with
    lam = (i,) + rest, h_i s_rest is s_lam plus c s_nu for each excess c
    on w_nu (see `_excess`), each such nu with nu_1 > i (checked, so the
    recursion ends, as nu_1 <= k).  The h's commute, so the words of h_i
    fold on the right of each term of s_rest."""
    if not lam:
        terms = {tuple(range(1, k + 2)): 1}
    else:
        i, rest = lam[0], lam[1:]
        terms = _fold(fold_reduced, _solve(k, rest)._terms, [(word, 1) for word in h_words(k, i)])
        excess = _excess(k, lam, terms)
        if any(nu[0] <= i for nu in excess):
            raise IdentityError(f"h_{i} s_{rest} at k={k}: excess {excess}, not only nu_1 > {i}")
        for nu, c in excess.items():
            for w, d in _solve(k, nu)._terms.items():
                terms[w] = terms.get(w, 0) - c * d
    result = AlgebraElement._of_windows(k, terms)
    certify(k, lam, result._terms)
    return result


def negative_terms(elem: AlgebraElement) -> dict[AffinePermutation, int]:
    """Terms with negative coefficient.  Empty for every k-Schur function:
    its coefficients in the u(w) basis are nonnegative, a theorem of Lam
    (JAMS 2008), as affine Stanley functions expand positively in affine
    Schur functions and by duality those coefficients are the [u(w)] s_lam.
    Reported, not assumed."""
    return {w: c for w, c in elem.items() if c < 0}


def lr_coefficient(k: int, lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Structure constant of nu in the product of the k-Schur functions
    of lam and mu: the coefficient in kschur(k, lam) of w = w_nu w_mu^-1
    when the reading word of mu folds onto w with every letter raising the
    length (u(w) u(w_mu) = u(w_nu), the one way a term of s_lam carries
    the core of mu to the core of nu), else 0."""
    lam, mu, nu = (as_bounded(parts, k) for parts in (lam, mu, nu))
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    w = w_of_partition(nu, k) * w_of_partition(mu, k).inverse()
    if w.times_reduced(reading_word(mu, k)) is None:
        return 0
    return kschur(k, lam).coefficient(w)


def pieri_partitions(k: int, lam: Sequence[int], i: int) -> list[Partition]:
    """The partitions appearing in h_i times the k-Schur function of lam:
    one for each i-subset of generator indices whose cyclically
    decreasing product acts without dying on the core of lam."""
    core = bounded_to_core(lam, k)
    images = word_images(core, ((word, 1) for word in h_words(k, i)), k)
    return sorted(core_to_bounded(image, k) for image in images)


def verify_pieri(k: int, max_size: int) -> Report:
    """Check h_i * kschur(lam) = sum of kschur(mu) over the predicted mu,
    for every k-bounded lam up to the given size and every i."""
    hs = {i: h(k, i) for i in range(1, k + 1)}

    def strips(lam: Partition) -> tuple[bool, dict]:
        detail: dict = {"k": k, "partition": list(lam)}
        for i in range(1, k + 1):
            lhs = hs[i] * kschur(k, lam)
            summands = [kschur(k, mu) for mu in pieri_partitions(k, lam, i)]
            if lhs != sum(summands, AlgebraElement.zero(k)):
                detail["failed_at"] = i
                return False, detail
        return True, detail

    return Report(tuple(
        timed(f"pieri k={k} lam={','.join(map(str, lam)) or '()'}", lambda lam=lam: strips(lam))
        for n in range(max_size + 1)
        for lam in k_bounded_partitions(n, k)
    ))

"""Exact rational geometry of the affine reflection action.

Points live in V = R^(k+1) modulo the all-ones vector; we store one
representative as a tuple of Fractions and compare modulo the diagonal.
The fundamental alcove is {a : a_1 >= a_2 >= ... >= a_{k+1} >= a_1 - 1};
its images under the group tile V, and each group element w is pinned
down by the centroid of its alcove.  All arithmetic is exact: wall
membership tests would be meaningless in floating point.  The public
functions take and return Fractions; the greedy walk behind `alcove_of`
and `pseudo_translation` is `affine.peel_descents` on integers, the negated
point scaled by a common denominator D, which puts the s_0 wall at D.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Iterator, Sequence

from .affine import AffinePermutation, peel_descents
from .reports import IdentityError

Point = tuple[Fraction, ...]
Weight = tuple[int, ...]


def make_point(coords: Iterable) -> Point:
    return tuple(Fraction(x) for x in coords)


def add_points(p: Sequence, q: Sequence) -> Point:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(p, q))


def reflect(i: int, p: Sequence) -> Point:
    """The affine reflection of a point across the i-th wall: `act` of s_i.

    For i != 0 this swaps coordinates i and i+1; for i = 0 it exchanges
    the first and last coordinates with a unit shift.  A point of fewer than
    2 coordinates (`identity`) or an i outside 0..k (the fold) raises ValueError.
    """
    return act(AffinePermutation.identity(len(p) - 1).right_mult(i), p)


def reflect_linear(i: int, p: Sequence) -> Point:
    """Linear part of reflect: the plain coordinate swap, no shift."""
    return act_linear(AffinePermutation.identity(len(p) - 1).right_mult(i), p)


def _sources(w: AffinePermutation, p: Sequence) -> Iterator[tuple[int, int]]:
    """(q, t) with w^(-1)(j) = t + 1 + q(k+1) and t in 0..k, for j = 1..k+1,
    once the point is checked to have k+1 coordinates."""
    n = w.k + 1
    if len(p) != n:
        raise ValueError(f"a point for rank {w.k} needs {n} coordinates, got {len(p)}")
    winv = w.inverse()
    return (divmod(winv.value(j) - 1, n) for j in range(1, n + 1))


def act(w: AffinePermutation, p: Sequence) -> Point:
    """The affine action of a group element on a point.

    Folding reflect over any reduced word of w gives the same map; this
    closed form reads the permutation-with-shifts off the window of the
    inverse: coordinate j of the result is p_t - q where
    w^(-1)(j) = t + q(k+1) with t in 1..k+1.
    """
    return tuple(Fraction(p[t]) - q for q, t in _sources(w, p))


def act_linear(w: AffinePermutation, p: Sequence) -> Point:
    """Linear part of act; permutes coordinates, preserving 0/1 vectors."""
    return tuple(Fraction(p[t]) for _, t in _sources(w, p))


def label(weight: Sequence[int]) -> int:
    """Sum of the coordinates mod (k+1); constant on vertices of a given
    kind across all alcoves and invariant under the diagonal shift."""
    return sum(weight) % len(weight)


def fundamental_weight(k: int, i: int) -> Weight:
    """The 0/1 vector with i leading ones; the label-i vertex of the
    fundamental alcove (i = 0 gives the origin)."""
    if not 0 <= i <= k:
        raise ValueError(f"weight index must be in 0..{k}, got {i}")
    return (1,) * i + (0,) * (k + 1 - i)


def simple_root(k: int, i: int) -> Weight:
    if not 0 <= i <= k:
        raise ValueError(f"root index must be in 0..{k}, got {i}")
    if i == 0:
        return (-1,) + (0,) * (k - 1) + (1,)
    e = [0] * (k + 1)
    e[i - 1], e[i] = 1, -1
    return tuple(e)


def fundamental_centroid(k: int) -> Point:
    """Average of the k+1 vertices of the fundamental alcove:
    (k/(k+1), (k-1)/(k+1), ..., 1/(k+1), 0).

    >>> fundamental_centroid(1)
    (Fraction(1, 2), Fraction(0, 1))
    """
    n = k + 1
    return tuple(Fraction(n - 1 - t, n) for t in range(n))


def centroid(w: AffinePermutation) -> Point:
    """Centroid of the alcove of w, the inverse of w applied to the
    fundamental centroid: coordinate j is (k+1 - w(j))/(k+1)."""
    n = w.k + 1
    return tuple(Fraction(n - a, n) for a in w.window)


def is_dominant(p: Sequence) -> bool:
    """Weak decrease of the coordinates; well defined modulo the diagonal."""
    q = make_point(p)
    return all(q[i] >= q[i + 1] for i in range(len(q) - 1))


def alcove_of(point: Sequence) -> AffinePermutation:
    """The group element whose alcove contains the point.

    Greedy walk: while a wall inequality of the fundamental alcove
    fails, reflect through the violated wall of smallest index and
    record it.  The recorded word is reduced and the returned w
    satisfies: w applied to the point lands inside the fundamental
    alcove.  A point on any reflection hyperplane raises ValueError.
    The walk runs on the negated point scaled by the lcm of its denominators.
    """
    p = make_point(point)
    d = lcm(*(x.denominator for x in p))
    return _walk([-x.numerator * (d // x.denominator) for x in p], d)[0]


def _walk(q: list[int], d: int) -> tuple[AffinePermutation, tuple[int, ...]]:
    """The greedy walk of `alcove_of` on a negated point scaled by d: wall i
    is violated exactly when s_i is a descent of q with period d, so the walk
    is `peel_descents`, reflecting q in place.  Off the walls the word it
    records is reduced, which the fold that builds the element checks; the
    element comes with that word, its reversed letters."""
    if len(q) < 2:
        raise ValueError(f"a point needs at least 2 coordinates (k >= 1), got {len(q)}")
    word = tuple(reversed(peel_descents(q, d)))
    if any(q[i - 1] == q[i] for i in range(1, len(q))) or q[-1] - q[0] == d:
        raise ValueError("point on wall")
    w = AffinePermutation.identity(len(q) - 1).times_reduced(word)
    if w is None:
        raise IdentityError(f"the walk's word of {len(word)} letters is not reduced")
    return w, word


def pseudo_translation(gamma: Sequence[int]) -> AffinePermutation:
    """The element carrying the fundamental alcove to its translate by
    an integer weight (acting on other alcoves it translates them too,
    generally in different directions)."""
    if any(int(x) != x for x in gamma):
        raise ValueError(f"weight must be integral: {gamma}")
    return _pseudo_translation([int(x) for x in gamma])[0]


def _pseudo_translation(gamma: Sequence[int]) -> tuple[AffinePermutation, tuple[int, ...]]:
    """`pseudo_translation` of a weight of type-int entries, unchecked, with
    the walk's word, which is its `reduced_word()`.

    The walk and the certificate run on the negated target centroid q scaled
    by k+1: coordinate j of the centroid of w, times k+1, is k+1 - w(j) (see
    `centroid`), so it is the target modulo the diagonal iff w(j) - q_j is
    constant.  Then q is the window shifted by that constant, which moves no
    descent test and commutes with the s_0 swap, and the walk's period is
    k+1, so it peels q exactly as `reduced_word` peels the window.
    """
    n = len(gamma)
    q = [t + 1 - n - n * x for t, x in enumerate(gamma)]
    w, word = _walk(list(q), n)
    if len({a - b for a, b in zip(w.window, q)}) != 1:
        target = add_points(fundamental_centroid(n - 1), gamma)
        raise IdentityError(f"alcove of {target} does not have it as centroid")
    return w, word


def translation(alpha: Sequence[int]) -> AffinePermutation:
    """Translation by the negative of a root lattice vector: the element
    t with t acting on every point p as p - alpha; `pseudo_translation`
    checks that alpha is integral."""
    if sum(alpha) != 0:
        raise ValueError(f"root lattice vector must sum to 0: {alpha}")
    return pseudo_translation(alpha)


def gamma_vectors(k: int, c: int) -> list[Weight]:
    """All 0/1 vectors of length k+1 with exactly c ones."""
    out = []
    for ones in combinations(range(k + 1), c):
        v = [0] * (k + 1)
        for t in ones:
            v[t] = 1
        out.append(tuple(v))
    return out

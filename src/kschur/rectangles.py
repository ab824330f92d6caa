"""Four constructions of the k-Schur function of a maximal rectangle.

A maximal rectangle has c columns and r rows with c + r = k + 1.  Its
k-Schur function admits four closed expansions in the standard basis of
the nilCoxeter algebra, all with binomial(k+1, c) terms of coefficient
one:

  by_readings      sums the reading words of the rectangle shifted over
                   every partition it contains;
  by_translations  sums the pseudo-translations of the fundamental
                   alcove in every 0/1 direction with c ones;
  by_columns       sums, for every cyclically decreasing word of h_c,
                   the product of its r consecutive cyclic shifts;
  by_windows       sums basis elements given directly by windows that
                   drop chosen entries by r and raise the rest by c.

The verification sweeps check the four agree, that they equal the
k-Schur function computed from the Pieri recursion, and the commutation
that conjugates a generator index by c across the rectangle element.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .affine import AffinePermutation, _check_rank, _ints, clip
from .alcoves import _pseudo_translation, act_linear, fundamental_weight, gamma_vectors
from .cores import (
    Partition,
    _skew_reading_word,
    as_partition,
    bounded_to_core,
    contains,
    k_bounded_partitions,
    partitions_in_box,
    union_partitions,
    w_of_partition,
)
from .nilcoxeter import (
    AlgebraElement,
    act_on_core,
    distinct_sum,
    h_words,
    kschur,
    negative_terms,
)
from .reports import IdentityError, Report, timed


@dataclass(frozen=True)
class Rectangle:
    """Maximal rectangle with cols + rows = k + 1."""

    k: int
    cols: int
    rows: int

    def __post_init__(self):
        _check_rank(self.k)
        sides = _ints((self.cols, self.rows), "rectangle sides")
        if min(sides) < 1 or sum(sides) != self.k + 1:
            raise ValueError(
                f"need cols, rows >= 1 with cols + rows = {self.k + 1}: "
                f"got cols={self.cols!r}, rows={self.rows!r}"
            )

    @classmethod
    def with_rows(cls, k: int, rows: int) -> "Rectangle":
        return cls(k, k + 1 - rows, rows)

    def partition(self) -> Partition:
        return (self.cols,) * self.rows

    def transpose(self) -> "Rectangle":
        return Rectangle(self.k, self.rows, self.cols)


def by_readings(rect: Rectangle) -> AlgebraElement:
    """Sum of u(reading word) of the rectangle restacked over each
    contained partition: the shape keeps the partition's rows on top of
    the full rectangle rows, skewed by the partition itself.  The
    partitions in the box, and the shapes over them, are valid as built,
    so the words are read unchecked."""
    k, c, r = rect.k, rect.cols, rect.rows
    e = AffinePermutation.identity(k)
    return distinct_sum(k, f"{rect} by reading words", (
        (nu, e.times_reduced(_skew_reading_word((c,) * r + nu, nu, k)))
        for nu in partitions_in_box(c, r)
    ))


def by_translations(rect: Rectangle) -> AlgebraElement:
    """Sum of u(z) over the pseudo-translations z of the fundamental
    alcove in the 0/1 directions with cols many ones.  The directions of a
    checked rectangle are 0/1 ints as `gamma_vectors` builds them, so the
    walks run unchecked, and the element keeps the word each walk peeled,
    which is its term's `reduced_word()`."""
    walks = [(gamma, *_pseudo_translation(gamma)) for gamma in gamma_vectors(rect.k, rect.cols)]
    element = distinct_sum(rect.k, f"{rect} by translations", ((gamma, z) for gamma, z, _ in walks))
    return element._keep_words({z.window: word for _, z, word in walks})


def by_columns(rect: Rectangle) -> AlgebraElement:
    """Sum over the cyclically decreasing words of h_cols, one for each
    c-subset A of generator indices, of the product of the words of A,
    A+1, ..., A+rows-1: rotating by d, an automorphism, takes A's word to
    a word of A+d."""
    k, r = rect.k, rect.rows
    n = k + 1
    e = AffinePermutation.identity(k)
    return distinct_sum(k, f"{rect} by column words", (
        (word, e.times_reduced([(i + d) % n for d in range(r) for i in word]))
        for word in h_words(k, rect.cols)
    ))


def by_windows(rect: Rectangle) -> AlgebraElement:
    """Sum over the 0/1 directions gamma with cols ones of the basis
    element whose window entry is i - rows when gamma_i = 1 and i + cols
    otherwise."""
    k, c, r = rect.k, rect.cols, rect.rows
    return distinct_sum(k, f"{rect} by windows", (
        (gamma, AffinePermutation(k, tuple(i - r if g else i + c for i, g in enumerate(gamma, 1))))
        for gamma in gamma_vectors(k, c)
    ))


def column_choice(rect: Rectangle, nu: Sequence[int]) -> tuple[int, ...]:
    """The c-subset of residues matching a contained partition: labels
    of the horizontal steps of the boundary path of the partition inside
    the rectangle, walked from the upper left corner with the starting
    label -2*rows + 1 and incremented by one per unit step.

    Identifies the by_readings term of the partition with the
    by_columns term of the returned subset.
    """
    k, c, r = rect.k, rect.cols, rect.rows
    nu = as_partition(nu)
    if not contains(rect.partition(), nu):
        raise ValueError(f"{clip(nu)} not contained in {clip(rect.partition())}")
    n = k + 1

    def part(d: int) -> int:
        if d == 0:
            return c
        return nu[d - 1] if d <= len(nu) else 0

    labels: list[int] = []
    for j in range(r + 1):
        lo = part(r - j + 1) - 2 * r + 1 + j
        hi = part(r - j) - 2 * r + 1 + j
        labels.extend(i % n for i in range(lo, hi))
    if len(labels) != c or len(set(labels)) != c:
        raise IdentityError(f"{rect}: labels {labels} of {nu} are not {c} distinct residues")
    return tuple(sorted(labels))


def translation_weight(rect: Rectangle, nu: Sequence[int]) -> tuple[int, ...]:
    """The 0/1 direction whose pseudo-translation equals the by_readings
    term of a contained partition: the linear action of the partition's
    group element on the dominant 0/1 weight with c ones."""
    nu = as_partition(nu)
    if not contains(rect.partition(), nu):
        raise ValueError(f"{clip(nu)} not contained in {clip(rect.partition())}")
    w = w_of_partition(nu, rect.k)
    weight = act_linear(w, fundamental_weight(rect.k, rect.cols))
    return tuple(int(x) for x in weight)


def transpose_weight(rect: Rectangle, gamma: Sequence[int]) -> tuple[int, ...]:
    """The direction for the transposed rectangle whose pseudo-translation
    is the index-reflected image of the pseudo-translation of gamma.  The
    window of pseudo_translation(gamma) is j - (k+1) gamma_j + |gamma|, and
    the reflection conjugates by j -> 1 - j: it reverses gamma and swaps
    its zeros and ones."""
    gamma = _ints(gamma, "direction entries")
    c = rect.cols
    if sorted(gamma) != [0] * (rect.rows) + [1] * c:
        raise ValueError(f"direction must be 0/1 with {c} ones: {clip(gamma)}")
    return tuple(1 - x for x in reversed(gamma))


def act_on_partition(rect: Rectangle, lam: Sequence[int]) -> Partition:
    """Apply the rectangle element to the core of a k-bounded partition.

    Exactly one term survives, with coefficient one, and it is the core of
    the sorted union of the partition with the rectangle; anything else
    raises IdentityError.
    """
    k = rect.k
    lam = as_partition(lam)
    image = act_on_core(by_readings(rect), bounded_to_core(lam, k))
    core = bounded_to_core(union_partitions(lam, rect.partition()), k)
    if image != {core: 1}:
        raise IdentityError(f"{rect} on {lam}: image {image}, expected {{{core}: 1}}")
    return core


def all_rectangles(k: int) -> list[Rectangle]:
    return [Rectangle.with_rows(k, rows) for rows in range(1, k + 1)]


def verify_equivalences(kmax: int) -> Report:
    """All four constructions agree, with the expected term count, for
    every rectangle with k up to kmax."""

    def agree(rect: Rectangle) -> tuple[bool, dict]:
        x, y, z, w = by_readings(rect), by_translations(rect), by_columns(rect), by_windows(rect)
        expected = comb(rect.k + 1, rect.cols)
        details = {
            "k": rect.k,
            "cols": rect.cols,
            "rows": rect.rows,
            "terms": len(x),
            "expected_terms": expected,
            "readings_eq_translations": x == y,
            "readings_eq_columns": x == z,
            "translations_eq_windows": y == w,
        }
        return x == y == z == w and len(x) == expected, details

    return Report(tuple(
        timed(f"equivalence k={k} cols={rect.cols} rows={rect.rows}", lambda rect=rect: agree(rect))
        for k in range(1, kmax + 1)
        for rect in all_rectangles(k)
    ))


def verify_main(rect: Rectangle, action_size: int = 4) -> Report:
    """The closed formula equals the k-Schur function of the rectangle,
    and acting on cores multiplies partitions by the rectangle."""
    k = rect.k
    shape = f"k={k} cols={rect.cols} rows={rect.rows}"

    def main() -> tuple[bool, dict]:
        formula = by_readings(rect)
        schur = kschur(k, rect.partition())
        return formula == schur, {
            "k": k,
            "cols": rect.cols,
            "rows": rect.rows,
            "terms": len(formula),
            "negative_coefficients": len(negative_terms(schur)),
        }

    def action() -> tuple[bool, dict]:
        element = by_readings(rect)
        failures = []
        count = 0
        for n in range(action_size + 1):
            for lam in k_bounded_partitions(n, k):
                count += 1
                core = bounded_to_core(union_partitions(lam, rect.partition()), k)
                if act_on_core(element, bounded_to_core(lam, k)) != {core: 1}:
                    failures.append(list(lam))
        return not failures, {"partitions_checked": count, "failures": failures}

    return Report((timed(f"main {shape}", main), timed(f"single-term action {shape}", action)))


def verify_commutation(rect: Rectangle) -> Report:
    """Right multiplication by u_i equals left multiplication by
    u_{i + cols} on the rectangle element, for every generator index."""
    k, c = rect.k, rect.cols
    element = by_readings(rect)

    def commutes(i: int) -> tuple[bool, dict]:
        shifted = (i + c) % (k + 1)
        lhs = element.times_generator(i, side="right")
        rhs = element.times_generator(shifted, side="left")
        return lhs == rhs, {"i": i, "shifted": shifted, "terms": len(lhs)}

    return Report(tuple(
        timed(f"commutation k={k} cols={c} rows={rect.rows} i={i}", lambda i=i: commutes(i))
        for i in range(k + 1)
    ))

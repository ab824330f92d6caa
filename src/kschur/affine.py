"""The affine symmetric group of type A, in window notation.

An element w is a bijection of the integers satisfying
w(j + k + 1) = w(j) + k + 1 and sum(w(1), ..., w(k+1)) = (k+1)(k+2)/2;
it is determined by the window [w(1), ..., w(k+1)].  Windows are a
canonical form, one per group element, so equality, hashing and
dictionary keying need no word rewriting.  The constructor checks a
window; group operations derive windows from valid ones unchecked.
`peel_descents`, the one smallest-descent peel (of `reduced_word` and the
alcove walk), `rotated`, the one Dynkin rotation, and `reflected`, the one
Dynkin reflection, act on window lists.

The group is generated by s_0, ..., s_k where s_i sends j to j+1 when
j = i mod (k+1), to j-1 when j = i+1 mod (k+1), and fixes j otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import Iterable, Optional, Sequence


def _check_rank(k: object) -> None:
    if type(k) is not int or k < 1:
        raise ValueError(f"rank parameter must be an integer >= 1, got {k!r}")


def _ints(values: Iterable[object], what: str) -> tuple[int, ...]:
    """The values as a tuple, each of type int: a float or bool compares
    equal to an int, so the type is checked, not the value.  The one test
    of an integer from outside: windows, partitions, rectangle sides,
    weights, directions and documents go through it."""
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise ValueError(f"{what} must be integers: {clip(values)}")
    return values


def _index(i: object, lo: int, hi: int, what: str) -> None:
    """Refuse an i that is not an int in lo..hi: the one test of an index
    from outside.  As in `_ints`, the type is checked, not only the value."""
    if type(i) is not int or not lo <= i <= hi:
        raise ValueError(f"{what} must be in {lo}..{hi}, got {clip(i)}")


def clip(value: object) -> str:
    """repr(value), cut after 200 characters with "…", so that an error
    message that echoes a huge input stays short."""
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "…"


@dataclass(frozen=True, slots=True)
class AffinePermutation:
    """Element of the affine symmetric group generated by s_0, ..., s_k.

    >>> w = AffinePermutation.from_word(4, (2, 1, 3, 2, 4, 3))
    >>> w.window
    (3, 4, 5, 1, 2)
    >>> w.length()
    6
    """

    k: int
    window: tuple[int, ...]

    def __post_init__(self):
        _check_rank(self.k)
        n = self.k + 1
        window = _ints(self.window, "window entries")
        object.__setattr__(self, "window", window)
        if sorted(a % n for a in window) != list(range(n)):  # also a short or long window
            raise ValueError(f"window needs {n} entries distinct mod {n}, got {clip(window)}")
        if sum(window) != n * (n + 1) // 2:
            raise ValueError(f"window sum must be {n * (n + 1) // 2}, got {sum(window)}")

    @classmethod
    def _of(cls, k: int, window: tuple[int, ...]) -> "AffinePermutation":
        """Rank k and a window valid as built, such as one a group operation
        derived from valid ones: unchecked."""
        w = object.__new__(cls)
        object.__setattr__(w, "k", k)
        object.__setattr__(w, "window", window)
        return w

    @classmethod
    def identity(cls, k: int) -> "AffinePermutation":
        """The identity of rank k: only k is checked, since the window is
        valid as built."""
        _check_rank(k)
        return cls._of(k, tuple(range(1, k + 2)))

    @classmethod
    def from_word(cls, k: int, word: Iterable[int]) -> "AffinePermutation":
        """Product s_{i_1} * ... * s_{i_m} for word (i_1, ..., i_m).

        Total: the word does not have to be reduced.
        """
        win = list(cls.identity(k).window)
        for i in word:  # one letter per fold, so a descent does not stop it
            fold_reduced(win, (i,))
        return cls._of(k, tuple(win))

    def value(self, j: int) -> int:
        """w(j) for any integer j, extending the window periodically."""
        q, t = divmod(j - 1, self.k + 1)
        return self.window[t] + q * (self.k + 1)

    def right_mult(self, i: int) -> "AffinePermutation":
        """w * s_i."""
        win = list(self.window)
        fold_reduced(win, (i,))
        return self._of(self.k, tuple(win))

    def left_mult(self, i: int) -> "AffinePermutation":
        """s_i * w."""
        win = list(self.window)
        fold_reduced_left(win, (i,))
        return self._of(self.k, tuple(win))

    def has_right_descent(self, i: int) -> bool:
        """True iff w(i) > w(i+1), i.e. length(w * s_i) = length(w) - 1."""
        return not fold_reduced(list(self.window), (i,))

    def times_reduced(self, word: Iterable[int]) -> Optional["AffinePermutation"]:
        """w * s_{i_1} * ... * s_{i_m} if each letter adds one to the length
        (the nilCoxeter product u(w) u_{i_1} ... u_{i_m}), else None."""
        win = list(self.window)
        return self._of(self.k, tuple(win)) if fold_reduced(win, word) else None

    def right_descents(self) -> list[int]:
        return [i for i in range(self.k + 1) if self.has_right_descent(i)]

    def has_left_descent(self, i: int) -> bool:
        return not fold_reduced_left(list(self.window), (i,))

    def length(self) -> int:
        """Coxeter length, as the periodic inversion count of the window.

        >>> AffinePermutation.identity(3).length()
        0
        """
        n = self.k + 1
        total = 0
        for a in range(n):
            for b in range(a + 1, n):
                total += abs((self.window[b] - self.window[a]) // n)
        return total

    def reduced_word(self) -> tuple[int, ...]:
        """A reduced word for w, peeling the smallest right descent.

        Deterministic; from_word(k, w.reduced_word()) == w and the word
        length equals w.length().
        """
        return tuple(reversed(peel_descents(list(self.window), self.k + 1)))

    def inverse(self) -> "AffinePermutation":
        return self._of(self.k, tuple(inverted(self.window)))

    def __mul__(self, other: "AffinePermutation") -> "AffinePermutation":
        if not isinstance(other, AffinePermutation):
            return NotImplemented
        if self.k != other.k:
            raise ValueError(f"rank mismatch: {self.k} != {other.k}")
        return self._of(self.k, tuple(self.value(b) for b in other.window))

    def rotate_indices(self, m: int) -> "AffinePermutation":
        """Image under the Dynkin rotation s_i -> s_{i+m}.

        On windows this is conjugation by j -> j + m (`rotated`: entry j is
        w(j - m) + m), so the result does not depend on a choice of reduced word.
        """
        return self._of(self.k, rotated(self.window, m))

    def reflect_indices(self) -> "AffinePermutation":
        """Image under the Dynkin reflection s_i -> s_{-i}.

        On windows this is conjugation by j -> 1 - j (`reflected`); an
        involutive automorphism of the group.
        """
        return self._of(self.k, reflected(self.window))


def fold_reduced(win: list[int], word: Iterable[int]) -> bool:
    """Make the window list of w that of w * s_{i_1} * ... * s_{i_m}, in
    place, letter by letter: s_i swaps entries i, i+1 (s_0: the ends,
    shifted by k+1).  True iff every letter raised the length; at the first
    that does not, return False with that letter applied and the rest not,
    so a one-letter word is the step w -> w * s_i whichever way the length
    goes.  The one swap rule of the products: a window list is all it touches."""
    n = len(win)
    for i in word:
        if i:
            if not 0 < i < n:
                raise ValueError(f"generator index must be in 0..{n - 1}, got {i}")
            a, b = win[i - 1], win[i]
            win[i - 1], win[i] = b, a
        else:
            a, b = win[-1] - n, win[0]
            win[0], win[-1] = a, b + n
        if a > b:
            return False
    return True


def fold_reduced_left(win: list[int], word: Sequence[int]) -> bool:
    """`fold_reduced` on the left: make the window list of w that of
    s_{i_1} * ... * s_{i_m} * w (u_{i_1} ... u_{i_m} u(w)) in place, as the
    inverse of w^-1 * s_{i_m} * ... * s_{i_1}; the same verdict, read from the
    rightmost letter.  A letter outside 0..k raises, leaving the list as it was."""
    inv = inverted(win)
    up = fold_reduced(inv, reversed(word))
    win[:] = inverted(inv)
    return up


def inverted(win: Sequence[int]) -> list[int]:
    """The window of w^-1, from the window of w."""
    n = len(win)
    inv = [0] * n
    for t, a in enumerate(win, start=1):
        q, b = divmod(a - 1, n)
        inv[b] = t - q * n
    return inv


def peel_descents(win: list[int], period: int) -> list[int]:
    """Peel the smallest right descent off a window list, in place, until it
    is sorted; return the letters in peel order.  s_0 is a descent when
    win[-1] - period > win[0] (its swap shifts the ends by the period), s_i
    when win[i-1] > win[i].  With period k+1 the reversed letters are a
    reduced word of w; the alcove walk runs it on a negated scaled point."""
    n = len(win)
    letters = []
    start = 1
    while True:
        if win[-1] - period > win[0]:
            win[0], win[-1] = win[-1] - period, win[0] + period
            letters.append(0)
            start = 1
            continue
        # no s_j with 0 < j < start is a descent: the last peel, s_i, was the
        # smallest, and it moved only entries i, i+1, which no s_j with
        # j < i - 1 compares (s_0 moves entry 1: start over)
        for i in range(start, n):
            if win[i - 1] > win[i]:
                win[i - 1], win[i] = win[i], win[i - 1]
                letters.append(i)
                start = i - 1 if i > 1 else 1
                break
        else:
            return letters


def rotated(win: Sequence[int], m: int) -> tuple[int, ...]:
    """The window of w under the Dynkin rotation s_i -> s_{i+m} (any integer m)."""
    n = len(win)
    m %= n
    return (*map(add, win[n - m:], repeat(m - n)), *map(add, win[:n - m], repeat(m)))


def reflected(win: Sequence[int]) -> tuple[int, ...]:
    """The window of w under the Dynkin reflection s_i -> s_{-i}: entry j is
    1 - w(1 - j), that is n + 1 - w(n + 1 - j) for n = k+1 entries."""
    n = len(win)
    return tuple(n + 1 - a for a in reversed(win))


def rotate_word(word: Iterable[int], m: int, k: int) -> tuple[int, ...]:
    """Shift every letter of a word by m mod (k+1)."""
    return tuple((i + m) % (k + 1) for i in word)


def reflect_word(word: Iterable[int], k: int) -> tuple[int, ...]:
    """Negate every letter of a word mod (k+1)."""
    return tuple((-i) % (k + 1) for i in word)

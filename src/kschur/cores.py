"""Partitions, (k+1)-cores, and the bijection with k-bounded partitions.

Partitions are tuples of weakly decreasing positive integers without
trailing zeros; () is the empty partition.  A (k+1)-core is a partition
with no cell of hook length exactly k+1 (equivalently, no removable rim
hook of length k+1).  `is_core` reads this off the beta numbers of the
rows, on an abacus with k+1 runners, in O(rows), and the bijection with
k-bounded partitions reads each row's hooks of length at most k off them
too, both ways.  The affine symmetric group acts on cores through the
residues (col - row) mod (k+1) of the cells: every action validates its
partition and indices once, at the boundary, and then steps letter by
letter through `_apply_letters`, the one loop over `_s_step`, which
`word_images` runs for each word of an element.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .affine import AffinePermutation, _check_rank, _index, _ints, clip
from .reports import IdentityError

Partition = tuple[int, ...]


def as_partition(seq: Iterable[int]) -> Partition:
    """Validate and normalize a partition, dropping trailing zeros; every
    part must have type int (`_ints`)."""
    parts = _ints(seq, "partition parts")
    end = len(parts)
    while end and parts[end - 1] == 0:
        end -= 1
    parts = parts[:end]
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {clip(parts)}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must weakly decrease: {clip(parts)}")
    return parts


def is_k_bounded(parts: Sequence[int], k: int) -> bool:
    return not parts or parts[0] <= k


def as_bounded(parts: Iterable[int], k: int) -> Partition:
    """as_partition, for a partition whose parts are at most k."""
    parts = as_partition(parts)
    if not is_k_bounded(parts, k):
        raise ValueError(f"partition {clip(parts)} has a part exceeding {k}")
    return parts


def conjugate(parts: Sequence[int]) -> Partition:
    """Transpose of the diagram; parts that are not a partition raise
    ValueError.

    >>> conjugate((4, 2, 1))
    (3, 2, 1, 1)
    """
    parts = as_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def contains(outer: Partition, inner: Partition) -> bool:
    """Row-wise containment inner ⊆ outer."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def union_partitions(a: Partition, b: Partition) -> Partition:
    """Combine and sort the parts of two partitions."""
    return tuple(sorted(a + b, reverse=True))


def content(row: int, col: int, k: int) -> int:
    """Residue (col - row) mod (k+1) of the cell in the given row and column.

    >>> content(3, 1, 4)
    3
    """
    _check_rank(k)
    return (col - row) % (k + 1)


def _is_core(parts: Partition, k: int) -> bool:
    """is_core on a validated partition.  Row r (from 0) of length p is the
    bead p - r, and every integer at most -len(parts) is a bead too; a cell
    of hook length k+1 is a bead b with no bead at b - (k+1)."""
    beads = {p - r for r, p in enumerate(parts)}
    floor = -len(parts)
    return all(b - k - 1 <= floor or b - k - 1 in beads for b in beads)


def is_core(parts: Sequence[int], k: int) -> bool:
    """True iff no cell has hook length exactly k+1, read off the beta
    numbers of the rows in O(rows).

    For straight shapes this matches having no removable rim hook of
    length k+1.

    >>> is_core((6, 4, 3, 1), 4)
    True
    >>> is_core((3,), 2)
    False
    """
    _check_rank(k)
    return _is_core(as_partition(parts), k)


def _s_step(parts: Partition, i: int, k: int) -> Partition:
    """s_i on a validated partition, for an index i in 0..k; every core
    action goes through this step.  Row r (from 0) of length p has an
    addable cell of content p - r when r = 0 or the row above is longer,
    and a removable cell of content p - r - 1 when the row below is
    shorter."""
    rows = list(parts) + [0]
    add = [
        r for r, p in enumerate(rows) if (r == 0 or rows[r - 1] > p) and (p - r) % (k + 1) == i
    ]
    rem = [r for r, p in enumerate(rows[:-1]) if rows[r + 1] < p and (p - r - 1) % (k + 1) == i]
    # a core never has both an addable and a removable corner of one residue
    if add and rem:
        raise IdentityError(f"{parts} has addable and removable corners of residue {i}, k={k}")
    if not (add or rem):
        return parts
    for r in add:
        rows[r] += 1
    for r in rem:
        rows[r] -= 1
    while rows and not rows[-1]:
        rows.pop()
    result = tuple(rows)
    if not _is_core(result, k):
        raise IdentityError(f"s_{i} on {parts} gives {result}, not a {k + 1}-core")
    return result


def s_action(parts: Sequence[int], i: int, k: int) -> Partition:
    """Action of s_i on a (k+1)-core.

    Adds every addable cell of residue i if there is one, otherwise
    removes every removable cell of residue i, otherwise fixes the
    core.  An involution.  An index i outside 0..k, or parts that are
    not a partition, raise ValueError.
    """
    return apply_letters(parts, [("s", i)], k)


def u_action(parts: Sequence[int], i: int, k: int) -> Optional[Partition]:
    """Nil generator u_i on a (k+1)-core: add all addable corners of
    residue i, or None (the zero of the module) if there are none."""
    return apply_letters(parts, [("u", i)], k)


def apply_letters(
    parts: Sequence[int], letters: Sequence[tuple[str, int]], k: int
) -> Optional[Partition]:
    """Act on a core by letters ("s", i) for s_i and ("u", i) for u_i,
    rightmost letter first; None once a u_i finds no addable corner.  The
    rank and every index are checked first, also those after a u_i that
    kills the core, and the parts are validated once, before any letter acts."""
    _check_rank(k)
    for _, i in letters:
        _index(i, 0, k, "generator index")
    return _apply_letters(as_partition(parts), letters, k)


def _apply_letters(
    parts: Partition, letters: Sequence[tuple[str, int]], k: int
) -> Optional[Partition]:
    """apply_letters on a validated partition by letters whose indices lie
    in 0..k: the one loop of every core action."""
    for kind, i in reversed(letters):
        moved = _s_step(parts, i, k)
        # adding cells grows the first row that changes; removing shrinks it
        if kind == "u" and not moved > parts:
            return None
        parts = moved
    return parts


def _u_letters(word: Iterable[int]) -> list[tuple[str, int]]:
    """The letters of a word of u_i."""
    return [("u", i) for i in word]


def apply_word_nil(
    parts: Partition, word: Sequence[int], k: int
) -> Optional[Partition]:
    """Act on a core by a word of u_i, rightmost letter first; None if
    any step has no addable corner."""
    return apply_letters(parts, _u_letters(word), k)


def skew_reading_word(outer: Partition, inner: Partition, k: int) -> tuple[int, ...]:
    """Residues of the skew cells, rows read from the last row to the
    first, each row from its rightmost cell to its leftmost.

    >>> skew_reading_word((2, 2, 2), (), 4)
    (4, 3, 0, 4, 1, 0)
    """
    _check_rank(k)
    outer = as_partition(outer)
    inner = as_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"inner shape {clip(inner)} not contained in outer {clip(outer)}")
    return _skew_reading_word(outer, inner, k)


def _skew_reading_word(outer: Partition, inner: Partition, k: int) -> tuple[int, ...]:
    """skew_reading_word of validated partitions, inner contained in outer;
    the residue of each cell is `content`, inline."""
    padded = inner + (0,) * (len(outer) - len(inner))
    n = k + 1
    return tuple([
        (j - i) % n
        for i in range(len(outer), 0, -1)
        for j in range(outer[i - 1], padded[i - 1], -1)
    ])


def reading_word(parts: Partition, k: int) -> tuple[int, ...]:
    return skew_reading_word(parts, (), k)


def w_of_partition(parts: Sequence[int], k: int) -> AffinePermutation:
    """The minimal coset representative sending the empty core to the
    core of a k-bounded partition; its length is the partition size,
    checked by one fold of the reading word, which raises IdentityError
    unless every letter raises the length."""
    parts = as_bounded(parts, k)
    word = _skew_reading_word(parts, (), k)
    w = AffinePermutation.identity(k).times_reduced(word)
    if w is None:
        raise IdentityError(f"the reading word {word} of {parts} is not reduced at k={k}")
    return w


def word_images(
    core: Partition, words: Iterable[tuple[Sequence[int], int]], k: int
) -> dict[Partition, int]:
    """{image: coefficient} of a validated core under the (word of u_i,
    coefficient) pairs, indices in 0..k: a word that kills the core is
    dropped, and distinct group elements never carry one core to the same
    core, so a repeated image raises IdentityError."""
    images: dict[Partition, int] = {}
    for word, c in words:
        image = _apply_letters(core, _u_letters(word), k)
        if image is None:
            continue
        if image in images:
            raise IdentityError(f"word {word} repeats the image {image} of {core} at k={k}")
        images[image] = c
    return images


def _short_hooks(beads: set[int], bead: int, k: int, rows: int) -> int:
    """The hooks of length at most k of the row with the given bead, in a
    partition of the given number of rows whose beads lie in the set (see
    `_is_core`): the gaps x < bead give the hooks bead - x, and no gap lies
    at or below -rows."""
    return sum(1 for x in range(max(bead - k, 1 - rows), bead) if x not in beads)


def bounded_to_core(parts: Sequence[int], k: int) -> Partition:
    """The (k+1)-core corresponding to a k-bounded partition, the inverse
    of `core_to_bounded`: from the last row up, the bead of row r is the
    smallest one above the bead below whose short hooks number parts[r]
    (a larger bead with as many leaves a hook of length k+1)."""
    _check_rank(k)
    parts = as_bounded(parts, k)
    beads: set[int] = set()
    bead = -len(parts)
    for r in range(len(parts) - 1, -1, -1):
        bead += 1
        while _short_hooks(beads, bead, k, len(parts)) != parts[r]:
            bead += 1
        beads.add(bead)
    return tuple(b + r for r, b in enumerate(sorted(beads, reverse=True)))


def core_to_bounded(parts: Sequence[int], k: int) -> Partition:
    """The k-bounded partition corresponding to a (k+1)-core: row r, whose
    bead is parts[r] - r, keeps its cells of hook length at most k."""
    _check_rank(k)
    parts = as_partition(parts)
    if not _is_core(parts, k):
        raise ValueError(f"{clip(parts)} is not a {k + 1}-core")
    beads = {p - r for r, p in enumerate(parts)}
    return as_partition(_short_hooks(beads, p - r, k, len(parts)) for r, p in enumerate(parts))


def partitions_of(n: int, max_part: Optional[int] = None) -> Iterator[Partition]:
    """All partitions of n with parts at most max_part, largest part first."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def k_bounded_partitions(n: int, k: int) -> list[Partition]:
    return list(partitions_of(n, max_part=k))


def partitions_in_box(cols: int, rows: int) -> list[Partition]:
    """Partitions fitting in a cols x rows box, in colex order on the
    padded part vectors.  There are binomial(cols + rows, cols) of them."""

    def gen(maxp: int, slots: int) -> Iterator[Partition]:
        yield ()
        if slots == 0 or maxp == 0:
            return
        for p in range(maxp, 0, -1):
            for rest in gen(p, slots - 1):
                yield (p,) + rest

    key = lambda t: tuple(reversed(t + (0,) * (rows - len(t))))
    return sorted(gen(cols, rows), key=key)

import random
from collections import deque

import pytest

from kschur import cores, nilcoxeter
from kschur.affine import AffinePermutation
from kschur.cores import (
    apply_letters,
    apply_word_nil,
    as_partition,
    bounded_to_core,
    conjugate,
    content,
    core_to_bounded,
    is_core,
    k_bounded_partitions,
    partitions_in_box,
    partitions_of,
    reading_word,
    s_action,
    skew_reading_word,
    u_action,
    union_partitions,
    w_of_partition,
)
from kschur.reports import IdentityError


def beta_set_is_core(parts, p):
    """Independent abacus oracle: first-column hook lengths form a beta
    set; a partition is a p-core iff the set is closed under subtracting p."""
    n = len(parts)
    beta = {parts[i] + (n - 1 - i) for i in range(n)}
    return all(b - p in beta for b in beta if b >= p)


def addable_corners(parts):
    """Cells (row, col) whose addition leaves a partition shape."""
    corners = []
    for i in range(len(parts)):
        if i == 0 or parts[i] < parts[i - 1]:
            corners.append((i + 1, parts[i] + 1))
    corners.append((len(parts) + 1, 1))
    return corners


def removable_corners(parts):
    """Cells (row, col) whose removal leaves a partition shape."""
    corners = []
    for i in range(len(parts)):
        below = parts[i + 1] if i + 1 < len(parts) else 0
        if parts[i] > below:
            corners.append((i + 1, parts[i]))
    return corners


def corner_s_action(parts, i, k):
    """Reference s_i on cells: add the addable corners of residue i, else
    remove the removable ones, with the checks and messages of s_action."""
    if not 0 <= i <= k:
        raise ValueError(f"generator index must be in 0..{k}, got {i}")
    add = [c for c in addable_corners(parts) if content(*c, k) == i]
    rem = [c for c in removable_corners(parts) if content(*c, k) == i]
    if add and rem:
        raise IdentityError(f"{parts} has addable and removable corners of residue {i}, k={k}")
    if not (add or rem):
        return parts
    new = list(parts)
    for row, _ in add:
        if row == len(new) + 1:
            new.append(1)
        else:
            new[row - 1] += 1
    for row, _ in rem:
        new[row - 1] -= 1
    result = as_partition(new)
    if not is_core(result, k):
        raise IdentityError(f"s_{i} on {parts} gives {result}, not a {k + 1}-core")
    return result


def s_letters(word):
    return [("s", i) for i in word]


def hook_length(parts, conj, row, col):
    """Reference hook of the 1-indexed cell (row, col); conj = conjugate(parts)."""
    return (parts[row - 1] - col) + (conj[col - 1] - row) + 1


def cell_hooks(parts):
    conj = conjugate(parts)
    return [
        [hook_length(parts, conj, i, j) for j in range(1, parts[i - 1] + 1)]
        for i in range(1, len(parts) + 1)
    ]


def cell_is_core(parts, k):
    """Reference is_core: no cell has hook length exactly k+1."""
    return all(h != k + 1 for row in cell_hooks(parts) for h in row)


def cell_core_to_bounded(parts, k):
    """Reference core_to_bounded: row i keeps its cells of hook at most k."""
    if not cell_is_core(parts, k):
        raise ValueError(f"{parts} is not a {k + 1}-core")
    return as_partition(sum(1 for h in row if h <= k) for row in cell_hooks(parts))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (IdentityError, ValueError) as exc:
        return "raise", type(exc).__name__, str(exc)


def test_as_partition():
    assert as_partition((3, 2, 0, 0)) == (3, 2)
    assert as_partition(()) == ()
    with pytest.raises(ValueError):
        as_partition((2, 3))
    with pytest.raises(ValueError):
        as_partition((2, -1))


def test_content():
    assert content(1, 1, 4) == 0
    assert content(3, 1, 4) == 3
    assert content(1, 6, 4) == 0  # one past k+1 columns wraps around


def test_conjugate_involution():
    rng = random.Random(0)
    for _ in range(50):
        parts = as_partition(sorted((rng.randrange(7) for _ in range(6)), reverse=True))
        assert conjugate(conjugate(parts)) == parts


def test_is_core_known():
    assert is_core((6, 4, 3, 1), 4)
    assert is_core((4, 2, 2, 1, 1), 2)
    assert not is_core((5,), 4)  # single row of length k+1
    assert is_core((), 3)


def test_is_core_matches_abacus_oracle():
    for n in range(9):
        for parts in partitions_of(n):
            for k in range(1, 5):
                assert is_core(parts, k) == beta_set_is_core(parts, k + 1), (parts, k)


def test_hook_table_matches_cell_reference_exhaustive():
    # every partition, core or not, so both the value and the raise are compared
    cores_seen = 0
    for n in range(13):
        for parts in partitions_of(n):
            for k in range(1, 6):
                expected = cell_is_core(parts, k)
                assert is_core(parts, k) == expected, (parts, k)
                cores_seen += expected
                assert outcome(core_to_bounded, parts, k) == outcome(
                    cell_core_to_bounded, parts, k
                ), (parts, k)
    assert cores_seen == 225


def test_corners():
    assert addable_corners(()) == [(1, 1)]
    assert addable_corners((3, 1)) == [(1, 4), (2, 2), (3, 1)]
    assert removable_corners((3, 1)) == [(1, 3), (2, 1)]
    assert removable_corners(()) == []


def test_s_action_matches_corner_reference_exhaustive():
    # every partition, core or not, and every index up to k + 1, so both
    # the value and the raise are compared
    raised = 0
    for n in range(13):
        for parts in partitions_of(n):
            for k in range(1, 6):
                for i in range(k + 2):
                    expected = outcome(corner_s_action, parts, i, k)
                    assert outcome(s_action, parts, i, k) == expected, (parts, i, k)
                    raised += expected[0] == "raise"
    assert raised == 3560 + 5 * 272  # i = k + 1 raises for each of the 272 partitions


def test_s_action_on_empty():
    assert s_action((), 0, 2) == (1,)
    assert s_action((), 1, 2) == ()  # no addable or removable of residue 1


def test_s_action_word_chain_k2():
    # letters applied rightmost first
    assert apply_letters((), s_letters((2, 0, 1, 2, 1, 0)), 2) == (4, 2, 2, 1, 1)


def test_s_action_involution_random():
    rng = random.Random(1)
    for _ in range(150):
        k = rng.randint(1, 5)
        word = [rng.randrange(k + 1) for _ in range(rng.randrange(10))]
        core = apply_letters((), s_letters(word), k)
        i = rng.randrange(k + 1)
        assert s_action(s_action(core, i, k), i, k) == core


def test_u_action_example_k4():
    nu = (6, 4, 3, 1)
    assert u_action(nu, 1, 4) == (7, 4, 4, 1, 1)
    assert u_action(nu, 3, 4) == (6, 5, 3, 2)
    for i in (0, 2, 4):
        assert u_action(nu, i, 4) is None


@pytest.mark.parametrize("i", [-1, 5, 9])
def test_generator_index_outside_0_to_k_raises(i):
    # at k = 4 an index past k or below 0 names no generator; every core
    # action goes through apply_letters, which refuses it
    nu = (6, 4, 3, 1)
    message = f"generator index must be in 0..4, got {i}"
    for act in (
        lambda: s_action(nu, i, 4),
        lambda: u_action(nu, i, 4),
        lambda: apply_letters(nu, [("s", i)], 4),
        lambda: apply_word_nil(nu, (i,), 4),
    ):
        with pytest.raises(ValueError, match=message):
            act()


@pytest.mark.parametrize(
    "parts, message",
    [
        ((1, 3), "must weakly decrease"),
        ((2, -1), "must be positive"),
        ((2.5, 1), "must be integers"),
        ((2.0, 1), "must be integers"),
        ((True,), "must be integers"),
    ],
)
def test_core_actions_reject_a_non_partition(parts, message):
    # s_0 moves no cell of any input at k = 2, so only the partition
    # check can refuse them; the bijection and the solve refuse them too
    for act in (
        lambda: s_action(parts, 0, 2),
        lambda: u_action(parts, 0, 2),
        lambda: apply_letters(parts, [("s", 0)], 2),
        lambda: apply_letters(parts, [("u", 0)], 2),
        lambda: bounded_to_core(parts, 3),
        lambda: nilcoxeter.kschur(3, parts),
    ):
        with pytest.raises(ValueError, match=message):
            act()


@pytest.mark.parametrize("k", [-1, 0, True, 2.0])
def test_core_functions_reject_a_rank_below_one_or_not_an_int(k):
    # a rank below 1 names no affine group, and at k = -1 content and the
    # reading words would divide by k + 1 = 0; unchecked, s_0 on () at
    # k = 0 raises IdentityError, a failed theorem, for a bad argument
    for call in (
        lambda: s_action((), 0, k),
        lambda: u_action((), 0, k),
        lambda: nilcoxeter.AlgebraElement(k),
        lambda: nilcoxeter.AlgebraElement.zero(k),
        lambda: is_core((5, 3), k),
        lambda: core_to_bounded((5, 3), k),
        lambda: bounded_to_core((), k),
        lambda: content(1, 1, k),
        lambda: skew_reading_word((1,), (), k),
        lambda: reading_word((1,), k),
    ):
        with pytest.raises(ValueError, match="rank parameter must be an integer >= 1"):
            call()


def test_u_and_s_agree_when_nonnull():
    rng = random.Random(2)
    for _ in range(150):
        k = rng.randint(1, 5)
        word = [rng.randrange(k + 1) for _ in range(rng.randrange(10))]
        core = apply_letters((), s_letters(word), k)
        for i in range(k + 1):
            res = u_action(core, i, k)
            if res is not None:
                assert res == s_action(core, i, k)


def test_skew_reading_words_k4():
    assert skew_reading_word((2, 2, 2), (), 4) == (4, 3, 0, 4, 1, 0)
    assert skew_reading_word((2, 2, 2, 2, 2, 2), (2, 2, 2), 4) == (1, 0, 2, 1, 3, 2)
    assert skew_reading_word((2, 2, 2, 1), (1,), 4) == (2, 4, 3, 0, 4, 1)
    assert skew_reading_word((), (), 3) == ()
    with pytest.raises(ValueError):
        skew_reading_word((2,), (3,), 3)


def test_w_of_partition_empty():
    assert w_of_partition((), 4) == AffinePermutation.identity(4)


def test_w_of_partition_rectangle_k4():
    assert w_of_partition((2, 2, 2), 4) == AffinePermutation.from_word(
        4, (4, 3, 0, 4, 1, 0)
    )


def bfs_minimal_word(target, k, max_len):
    """Breadth-first search over the group action from the empty core."""
    seen = {(): ()}
    queue = deque([()])
    while queue:
        core = queue.popleft()
        word = seen[core]
        if core == target:
            return word
        if len(word) >= max_len:
            continue
        for i in range(k + 1):
            nxt = s_action(core, i, k)
            if nxt not in seen:
                seen[nxt] = (i,) + word
                queue.append(nxt)
    raise AssertionError(f"no word of length <= {max_len} reaches {target}")


def test_w_of_partition_length_matches_bfs():
    lam = (2, 1, 1, 1, 1)
    w = w_of_partition(lam, 2)
    assert w.length() == 6 == sum(lam)
    assert apply_letters((), s_letters(w.reduced_word()), 2) == (4, 2, 2, 1, 1)
    oracle_word = bfs_minimal_word((4, 2, 2, 1, 1), 2, 6)
    assert len(oracle_word) == 6


def test_w_of_partition_is_one_fold_of_the_reading_word():
    for k in range(1, 7):
        for n in range(9):
            for lam in k_bounded_partitions(n, k):
                assert w_of_partition(lam, k) == AffinePermutation.from_word(k, reading_word(lam, k))


def test_w_of_partition_refuses_a_reading_word_that_is_not_reduced(monkeypatch):
    # from_word would take (1, 1) to the identity; the one fold must raise
    monkeypatch.setattr(cores, "_skew_reading_word", lambda outer, inner, k: (1, 1))
    with pytest.raises(IdentityError, match=r"reading word \(1, 1\) of \(2,\) is not reduced"):
        w_of_partition((2,), 3)


def test_bounded_to_core_runs_no_core_action(monkeypatch):
    # the core is read off the beta numbers, so no letter acts
    def refuse(*args):
        raise RuntimeError("core action called")

    monkeypatch.setattr(cores, "_s_step", refuse)
    assert bounded_to_core((2, 1, 1, 1, 1), 2) == (4, 2, 2, 1, 1)
    assert bounded_to_core([2, 1, 1, 1, 1, 0], 2) == (4, 2, 2, 1, 1)
    with pytest.raises(ValueError, match="exceeding 2"):
        bounded_to_core((3,), 2)


def test_w_of_partition_is_minimal_representative():
    # windows of minimal coset representatives increase left to right
    for n in range(7):
        for lam in k_bounded_partitions(n, 3):
            win = w_of_partition(lam, 3).window
            assert all(win[i] < win[i + 1] for i in range(3))


def test_bijection_known_values():
    assert bounded_to_core((2, 2, 2), 4) == (2, 2, 2)
    assert bounded_to_core((2, 1, 1, 1, 1), 2) == (4, 2, 2, 1, 1)
    assert core_to_bounded((4, 2, 2, 1, 1), 2) == (2, 1, 1, 1, 1)
    assert bounded_to_core((), 3) == ()


def test_bijection_roundtrip_exhaustive():
    for k in range(1, 9):
        for n in range(13):
            for lam in k_bounded_partitions(n, k):
                core = bounded_to_core(lam, k)
                assert is_core(core, k)
                assert core_to_bounded(core, k) == lam
                # both action routes agree with the bead reading
                word = w_of_partition(lam, k).reduced_word()
                assert apply_letters((), s_letters(word), k) == core
                assert apply_word_nil((), reading_word(lam, k), k) == core
                assert w_of_partition(lam, k).length() == n


def test_reading_word_never_dies_under_nil_action():
    for k in range(1, 5):
        for n in range(8):
            for lam in k_bounded_partitions(n, k):
                assert apply_word_nil((), reading_word(lam, k), k) is not None


def test_apply_letters_matches_a_letter_by_letter_oracle():
    # u_i is s_i where s_i adds cells and zero where it removes or fixes
    rng = random.Random(9)
    for _ in range(300):
        k = rng.randint(1, 5)
        lam = rng.choice(k_bounded_partitions(rng.randrange(9), k))
        core = bounded_to_core(lam, k)
        letters = [(rng.choice("us"), rng.randrange(k + 1)) for _ in range(rng.randint(1, 12))]
        expected = core
        for kind, i in reversed(letters):
            moved = s_action(expected, i, k)
            if kind == "u" and sum(moved) <= sum(expected):
                expected = None
                break
            expected = moved
        assert apply_letters(core, letters, k) == expected, (k, core, letters)


def test_core_never_has_addable_and_removable_of_same_residue():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(1, 5)
        word = [rng.randrange(k + 1) for _ in range(rng.randrange(12))]
        core = apply_letters((), s_letters(word), k)
        for i in range(k + 1):
            add = [c for c in addable_corners(core) if content(*c, k) == i]
            rem = [c for c in removable_corners(core) if content(*c, k) == i]
            assert not (add and rem)


def test_partition_enumeration():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert k_bounded_partitions(4, 2) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert k_bounded_partitions(0, 3) == [()]


def test_partitions_in_box():
    box = partitions_in_box(2, 3)
    assert len(box) == 10  # binomial(5, 2)
    assert set(box) == {
        (), (1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (2, 1, 1),
        (2, 2, 1), (2, 2, 2),
    }
    assert len(partitions_in_box(4, 4)) == 70


def test_union_partitions():
    assert union_partitions((2, 1), (2, 2, 2)) == (2, 2, 2, 2, 1)
    assert union_partitions((), (3, 1)) == (3, 1)
